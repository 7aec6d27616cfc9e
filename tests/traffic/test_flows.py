"""Flow model and reassembly tests."""

import pytest

from repro.core import compile_mfa
from repro.traffic.flows import (
    FiveTuple,
    FlowAssembler,
    Packet,
    PROTO_TCP,
    PROTO_UDP,
    dispatch_flows,
)

KEY_A = FiveTuple(PROTO_TCP, "10.0.0.1", 1234, "10.0.0.2", 80)
KEY_B = FiveTuple(PROTO_TCP, "10.0.0.3", 5678, "10.0.0.2", 80)
KEY_U = FiveTuple(PROTO_UDP, "10.0.0.1", 53, "10.0.0.2", 53)


def tcp(key, seq, payload):
    return Packet(key=key, payload=payload, seq=seq)


class TestAssembler:
    def test_in_order(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, 0, b"hello "))
        assembler.add(tcp(KEY_A, 6, b"world"))
        (flow,) = assembler.flows()
        assert flow.payload == b"hello world"

    def test_out_of_order(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, 6, b"world"))
        assembler.add(tcp(KEY_A, 0, b"hello "))
        (flow,) = assembler.flows()
        assert flow.payload == b"hello world"

    def test_duplicate_segment_dropped(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, 0, b"abc"))
        assembler.add(tcp(KEY_A, 0, b"xxx"))
        (flow,) = assembler.flows()
        assert flow.payload == b"abc"

    def test_overlapping_segment_trimmed(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, 0, b"abcd"))
        assembler.add(tcp(KEY_A, 2, b"cdef"))
        (flow,) = assembler.flows()
        assert flow.payload == b"abcdef"

    def test_gap_spliced(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, 0, b"ab"))
        assembler.add(tcp(KEY_A, 100, b"cd"))
        (flow,) = assembler.flows()
        assert flow.payload == b"abcd"

    def test_fully_contained_overlap_dropped(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, 0, b"abcdef"))
        assembler.add(tcp(KEY_A, 2, b"cd"))
        (flow,) = assembler.flows()
        assert flow.payload == b"abcdef"

    def test_multiple_flows_kept_separate(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, 0, b"aaa"))
        assembler.add(tcp(KEY_B, 0, b"bbb"))
        assembler.add(tcp(KEY_A, 3, b"AAA"))
        flows = {flow.key: flow.payload for flow in assembler.flows()}
        assert flows == {KEY_A: b"aaaAAA", KEY_B: b"bbb"}

    def test_first_seen_order(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_B, 0, b"b"))
        assembler.add(tcp(KEY_A, 0, b"a"))
        assert [flow.key for flow in assembler.flows()] == [KEY_B, KEY_A]

    def test_udp_concatenated_in_arrival_order(self):
        assembler = FlowAssembler()
        assembler.add(Packet(key=KEY_U, payload=b"22"))
        assembler.add(Packet(key=KEY_U, payload=b"11"))
        (flow,) = assembler.flows()
        assert flow.payload == b"2211"

    def test_empty_payloads_ignored(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, 0, b""))
        assert assembler.flows() == []


class TestDispatch:
    RULES = [".*alpha.*omega"]

    def test_matches_attributed_to_flows(self):
        mfa = compile_mfa(self.RULES)
        packets = [
            tcp(KEY_A, 0, b"alpha "),
            tcp(KEY_B, 0, b"nothing here"),
            tcp(KEY_A, 6, b"omega"),
        ]
        matches = list(dispatch_flows(mfa, packets))
        assert len(matches) == 1
        assert matches[0].key == KEY_A

    def test_no_cross_flow_contamination(self):
        mfa = compile_mfa(self.RULES)
        # alpha in flow A, omega in flow B: no match anywhere.
        packets = [tcp(KEY_A, 0, b"alpha "), tcp(KEY_B, 0, b"omega")]
        assert list(dispatch_flows(mfa, packets)) == []

    def test_out_of_order_rejected(self):
        mfa = compile_mfa(self.RULES)
        packets = [tcp(KEY_A, 0, b"ab"), tcp(KEY_A, 5, b"cd")]
        with pytest.raises(ValueError, match="out-of-order"):
            list(dispatch_flows(mfa, packets))

    def test_equals_per_flow_runs(self):
        mfa = compile_mfa(self.RULES)
        stream_a = b"alpha ... omega ... alpha omega"
        stream_b = b"omega alpha omega"
        packets = []
        seq_a = seq_b = 0
        for i in range(0, 40, 8):
            chunk_a, chunk_b = stream_a[i : i + 8], stream_b[i : i + 8]
            packets.append(tcp(KEY_A, seq_a, chunk_a))
            packets.append(tcp(KEY_B, seq_b, chunk_b))
            seq_a += len(chunk_a)
            seq_b += len(chunk_b)
        dispatched = [(m.key, m.event) for m in dispatch_flows(mfa, packets)]
        expected = [(KEY_A, e) for e in mfa.run(stream_a)]
        expected += [(KEY_B, e) for e in mfa.run(stream_b)]
        assert sorted(dispatched, key=repr) == sorted(expected, key=repr)


class TestSeqWraparound:
    """TCP sequence numbers live in a 32-bit ring (RFC 1982 comparison)."""

    MOD = 1 << 32

    def test_flow_crossing_wrap_reassembles(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, self.MOD - 6, b"hello "))
        assembler.add(tcp(KEY_A, 0, b"world"))
        (flow,) = assembler.flows()
        assert flow.payload == b"hello world"

    def test_out_of_order_across_wrap(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, 2, b"!"))
        assembler.add(tcp(KEY_A, self.MOD - 4, b"wrap"))
        assembler.add(tcp(KEY_A, 0, b"ed"))
        (flow,) = assembler.flows()
        assert flow.payload == b"wraped!"

    def test_overlap_across_wrap_first_copy_wins(self):
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, self.MOD - 2, b"ABCD"))
        assembler.add(tcp(KEY_A, 0, b"xy!"))  # overlaps CD by two bytes
        (flow,) = assembler.flows()
        assert flow.payload == b"ABCD!"

    def test_match_spanning_wrap(self):
        mfa = compile_mfa([".*alpha.*omega"])
        assembler = FlowAssembler()
        assembler.add(tcp(KEY_A, self.MOD - 8, b"alpha th"))
        assembler.add(tcp(KEY_A, 0, b"en omega"))
        (flow,) = assembler.flows()
        assert mfa.run(flow.payload)

    def test_dispatch_follows_seq_across_wrap(self):
        mfa = compile_mfa([".*alpha.*omega"])
        packets = [
            tcp(KEY_A, self.MOD - 8, b"alpha th"),
            tcp(KEY_A, 0, b"en omega"),
        ]
        matches = list(dispatch_flows(mfa, packets))
        assert len(matches) == 1 and matches[0].key == KEY_A


class TestAssemblerLimits:
    def test_unlimited_by_default(self):
        assembler = FlowAssembler()
        for i in range(100):
            key = FiveTuple(PROTO_TCP, "10.0.0.1", i + 1, "10.0.0.2", 80)
            assembler.add(tcp(key, 0, b"x"))
        assert len(assembler) == 100
        assert not assembler.stats.any_dropped()

    def test_max_flows_evicts_least_recently_updated(self):
        from repro.traffic.flows import FlowLimits

        evicted = []
        assembler = FlowAssembler(
            limits=FlowLimits(max_flows=2), on_evict=evicted.append
        )
        assembler.add(tcp(KEY_A, 0, b"aa"))
        assembler.add(tcp(KEY_B, 0, b"bb"))
        assembler.add(tcp(KEY_A, 2, b"aa"))  # refresh A: B is now LRU
        assembler.add(tcp(KEY_U, 0, b"uu"))  # overflow: B evicted
        assert [flow.key for flow in evicted] == [KEY_B]
        assert evicted[0].payload == b"bb"
        assert {flow.key for flow in assembler.flows()} == {KEY_A, KEY_U}
        assert assembler.stats.flows_evicted == 1
        assert assembler.stats.bytes_evicted == 2

    def test_max_flow_bytes_truncates(self):
        from repro.traffic.flows import FlowLimits

        assembler = FlowAssembler(limits=FlowLimits(max_flow_bytes=4))
        assembler.add(tcp(KEY_A, 0, b"abc"))
        assembler.add(tcp(KEY_A, 3, b"defg"))  # only one byte of room
        assembler.add(tcp(KEY_A, 7, b"hi"))    # no room at all
        (flow,) = assembler.flows()
        assert flow.payload == b"abcd"
        assert assembler.stats.bytes_dropped == 5
        assert assembler.stats.segments_dropped == 1

    def test_max_flow_segments(self):
        from repro.traffic.flows import FlowLimits

        assembler = FlowAssembler(limits=FlowLimits(max_flow_segments=2))
        assembler.add(tcp(KEY_A, 0, b"aa"))
        assembler.add(tcp(KEY_A, 2, b"bb"))
        assembler.add(tcp(KEY_A, 4, b"cc"))
        (flow,) = assembler.flows()
        assert flow.payload == b"aabb"
        assert assembler.stats.segments_dropped == 1
        # A duplicate of a buffered seq is not a new segment: not counted.
        assembler.add(tcp(KEY_A, 0, b"aa"))
        assert assembler.stats.segments_dropped == 1

    def test_udp_segment_cap(self):
        from repro.traffic.flows import FlowLimits

        assembler = FlowAssembler(limits=FlowLimits(max_flow_segments=1))
        assembler.add(Packet(key=KEY_U, payload=b"one"))
        assembler.add(Packet(key=KEY_U, payload=b"two"))
        (flow,) = assembler.flows()
        assert flow.payload == b"one"
        assert assembler.stats.segments_dropped == 1

    def test_eviction_storm_is_safe(self):
        from repro.traffic.flows import FlowLimits

        scanned = []
        assembler = FlowAssembler(
            limits=FlowLimits(max_flows=3), on_evict=scanned.append
        )
        for i in range(50):
            key = FiveTuple(PROTO_TCP, "10.0.0.1", i + 1, "10.0.0.2", 80)
            assembler.add(tcp(key, 0, bytes([65 + i % 26])))
        assert len(assembler) == 3
        assert assembler.stats.flows_evicted == 47
        # Nothing is lost: every flow either lives or was handed out.
        assert len(scanned) + len(assembler) == 50

    @pytest.mark.parametrize(
        "caps",
        [
            {"max_flows": 0},
            {"max_flows": -3},
            {"max_flow_bytes": 0},
            {"max_flow_bytes": -1},
            {"max_flow_segments": 0},
        ],
        ids=["flows-0", "flows-neg", "bytes-0", "bytes-neg", "segments-0"],
    )
    def test_caps_below_one_rejected(self, caps):
        # A zero flow cap leaves the LRU eviction nothing to evict, and a
        # negative byte cap would drop every segment.
        from repro.traffic.flows import FlowLimits

        (name,) = caps
        with pytest.raises(ValueError, match=name):
            FlowLimits(**caps)


class TestDispatchIsolation:
    RULES = [".*alpha.*omega"]

    class _Grenade:
        """Engine whose feed explodes on payloads containing a marker."""

        def __init__(self, inner, marker):
            self.inner = inner
            self.marker = marker

        def new_context(self):
            return self.inner.new_context()

        def feed(self, context, payload):
            if self.marker in payload:
                raise RuntimeError("grenade")
            return self.inner.feed(context, payload)

        def finish(self, context):
            return self.inner.finish(context)

    def test_out_of_order_isolated_not_raised(self):
        from repro.traffic.flows import DispatchStats

        mfa = compile_mfa(self.RULES)
        stats = DispatchStats()
        packets = [
            tcp(KEY_A, 0, b"ab"),
            tcp(KEY_A, 5, b"cd"),   # hole: flow A poisoned
            tcp(KEY_A, 7, b"ef"),   # later A packet skipped
            tcp(KEY_B, 0, b"alpha omega"),
        ]
        matches = list(dispatch_flows(mfa, packets, errors="isolate", stats=stats))
        assert [m.key for m in matches] == [KEY_B]
        assert stats.flows_poisoned == 1
        assert stats.packets_skipped == 2
        (bad_key, reason), = stats.errors
        assert bad_key == KEY_A and "out-of-order" in reason

    def test_engine_error_poisons_one_flow(self):
        from repro.traffic.flows import DispatchStats

        engine = self._Grenade(compile_mfa(self.RULES), marker=b"BOOM")
        stats = DispatchStats()
        packets = [
            tcp(KEY_A, 0, b"alpha BOOM"),
            tcp(KEY_B, 0, b"alpha omega"),
            tcp(KEY_A, 10, b" omega"),  # skipped: A already poisoned
        ]
        matches = list(dispatch_flows(engine, packets, errors="isolate", stats=stats))
        assert [m.key for m in matches] == [KEY_B]
        assert stats.flows_poisoned == 1
        assert stats.packets_skipped == 1

    def test_isolate_equals_raise_on_healthy_traffic(self):
        mfa = compile_mfa(self.RULES)
        packets = [
            tcp(KEY_A, 0, b"alpha "),
            tcp(KEY_B, 0, b"quiet"),
            tcp(KEY_A, 6, b"omega"),
        ]
        healthy = list(dispatch_flows(mfa, packets))
        isolated = list(dispatch_flows(mfa, packets, errors="isolate"))
        assert isolated == healthy

    def test_bad_errors_value_rejected(self):
        with pytest.raises(ValueError, match="isolate"):
            list(dispatch_flows(compile_mfa(["x"]), [], errors="ignore"))
