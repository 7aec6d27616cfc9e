"""Replay harness tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_mfa
from repro.fastpath import build_fastpath
from repro.traffic.flows import FiveTuple, Packet, PROTO_TCP
from repro.traffic.replay import ReplayStats, replay

KEY_A = FiveTuple(PROTO_TCP, "10.0.0.1", 1234, "10.0.0.2", 80)
KEY_B = FiveTuple(PROTO_TCP, "10.0.0.3", 4321, "10.0.0.2", 80)


def packets():
    return [
        Packet(key=KEY_A, payload=b"alpha ", seq=0),
        Packet(key=KEY_B, payload=b"nothing", seq=0),
        Packet(key=KEY_A, payload=b"omega", seq=6),
        Packet(key=KEY_B, payload=b"", seq=7),       # empty: skipped
    ]


class TestReplay:
    def test_counts(self):
        mfa = compile_mfa([".*alpha.*omega"])
        stats = replay(mfa, packets())
        assert stats.n_packets == 3
        assert stats.n_flows == 2
        assert stats.total_payload == len(b"alpha omega") + len(b"nothing")
        assert stats.n_alerts == 1

    def test_alert_attribution(self):
        mfa = compile_mfa([".*alpha.*omega"])
        stats = replay(mfa, packets())
        (key, event), = stats.alerts
        assert key == KEY_A
        assert event.pos == 10  # flow-absolute offset of the final byte

    def test_alerts_match_batch_run(self):
        mfa = compile_mfa([".*alpha.*omega", ".*noth"])
        stats = replay(mfa, packets())
        expected = sorted(mfa.run(b"alpha omega")) + sorted(mfa.run(b"nothing"))
        assert sorted(e for _k, e in stats.alerts) == sorted(expected)

    def test_latency_stats_populated(self):
        mfa = compile_mfa(["x"])
        stats = replay(mfa, packets())
        assert len(stats.packet_ns) == 3
        assert stats.mean_ns > 0
        assert stats.p50_ns <= stats.p99_ns
        assert stats.ns_per_byte > 0

    def test_describe(self):
        mfa = compile_mfa(["x"])
        lines = replay(mfa, packets()).describe()
        assert any("p99" in line for line in lines)
        assert any("flows: 2" in line for line in lines)

    def test_collect_alerts_off(self):
        mfa = compile_mfa([".*alpha.*omega"])
        stats = replay(mfa, packets(), collect_alerts=False)
        assert stats.n_alerts == 1
        assert stats.alerts == []

    def test_empty_replay(self):
        stats = replay(compile_mfa(["x"]), [])
        assert stats.n_packets == 0
        assert stats.mean_ns == 0.0
        assert stats.describe()


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


class TestReplayIsolation:
    def test_raise_mode_propagates(self):
        import pytest

        engine = _Grenade(compile_mfa(["x"]), marker=b"alpha")
        with pytest.raises(RuntimeError, match="grenade"):
            replay(engine, packets())

    def test_isolate_mode_poisons_one_flow(self):
        engine = _Grenade(compile_mfa([".*noth"]), marker=b"alpha")
        stats = replay(engine, packets(), errors="isolate")
        assert stats.n_poisoned == 1
        assert stats.n_skipped == 1  # flow A's second packet
        assert stats.n_alerts == 1   # flow B still matched
        (bad_key, reason), = stats.errors
        assert bad_key == KEY_A and "engine error" in reason

    def test_degraded_line_in_describe(self):
        engine = _Grenade(compile_mfa(["x"]), marker=b"alpha")
        stats = replay(engine, packets(), errors="isolate")
        assert any("degraded" in line for line in stats.describe())

    def test_bad_errors_value_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="isolate"):
            replay(compile_mfa(["x"]), [], errors="nope")


class TestReplayFlowTable:
    def _flows(self, n, payload=b"alpha omega "):
        return [
            Packet(
                key=FiveTuple(PROTO_TCP, "10.0.0.9", 1000 + i, "10.0.0.2", 80),
                payload=payload,
                seq=0,
            )
            for i in range(n)
        ]

    def test_max_flows_evicts_and_finishes(self):
        mfa = compile_mfa([".*alpha.*omega"])
        stats = replay(mfa, self._flows(10), max_flows=3)
        assert stats.n_evicted == 7
        assert stats.n_flows == 10
        # Evicted contexts were finished, not dropped: all alerts present.
        assert stats.n_alerts == 10

    def test_eviction_is_lru_by_feed_order(self):
        mfa = compile_mfa([".*alpha.*omega"])
        keys = [
            FiveTuple(PROTO_TCP, "10.0.0.9", 1000 + i, "10.0.0.2", 80)
            for i in range(3)
        ]
        packets = [
            Packet(key=keys[0], payload=b"alpha ", seq=0),
            Packet(key=keys[1], payload=b"noise", seq=0),
            Packet(key=keys[0], payload=b"omega", seq=6),   # refresh flow 0
            Packet(key=keys[2], payload=b"open third", seq=0),  # evicts flow 1
        ]
        stats = replay(mfa, packets, max_flows=2)
        assert stats.n_evicted == 1
        assert [k for k, _ in stats.alerts] == [keys[0]]

    def test_unlimited_by_default(self):
        stats = replay(compile_mfa(["x"]), self._flows(20))
        assert stats.n_evicted == 0
        assert stats.n_flows == 20


class TestReplayArguments:
    @pytest.mark.parametrize("max_flows", [0, -1])
    def test_bad_max_flows_rejected_on_scalar_path(self, max_flows):
        with pytest.raises(ValueError, match="max_flows"):
            replay(compile_mfa(["x"]), packets(), max_flows=max_flows)

    @pytest.mark.parametrize("max_flows", [0, -1])
    def test_bad_max_flows_rejected_on_batched_path(self, max_flows):
        engine = build_fastpath(compile_mfa(["x"]))
        with pytest.raises(ValueError, match="max_flows"):
            replay(engine, packets(), max_flows=max_flows, batch_size=4)

    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_one_packet_per_batch_without_feed_batch(self, batch_size):
        mfa = compile_mfa([".*alpha.*omega", ".*noth"])
        stats = replay(mfa, packets(), batch_size=batch_size)
        assert stats.n_batches == stats.n_packets == 3
        assert "batches: 3 (1.0 packets/batch)" in stats.describe()
        batched = replay(build_fastpath(mfa), packets(), batch_size=4)
        assert batched.n_batches == 1
        assert per_flow(stats) == per_flow(batched)
        assert stats.n_alerts == 2


# -- lockstep (batched) replay ---------------------------------------------------

BATCH_RULES = [
    ".*alpha.*omega",
    ".*abc[^\\n]*xyz",
    ".*start.{1,4}end0",
    "^HELO ",
]

# Fragments that exercise component hits, filter ops and near-misses.
FRAGMENTS = [
    b"alpha", b"omega", b"abc", b"xyz", b"start", b"end0",
    b"HELO ", b"\n", b"al", b"zz", b" ",
]

BATCH_SIZES = [2, 3, 64]


def flow_key(i: int) -> FiveTuple:
    return FiveTuple(PROTO_TCP, "10.0.1.1", 2000 + i, "10.0.0.2", 80)


def cut(payload: bytes, size: int) -> list[bytes]:
    return [payload[i : i + size] for i in range(0, len(payload), size)]


def flow_payloads(n: int) -> list[bytes]:
    """Flows whose matches straddle packet boundaries at small cut sizes."""
    pieces = (b"HELO alpha ", b"abc 12 ", b"xyz omega ", b"start 1 end0 ", b"noise ")
    return [b"".join(pieces[(i + j) % len(pieces)] for j in range(2 + i % 4)) for i in range(n)]


def back_to_back(payloads: list[bytes], size: int) -> list[Packet]:
    """Each flow's packets in a row, flow after flow."""
    return [
        Packet(key=flow_key(i), payload=piece, seq=0)
        for i, payload in enumerate(payloads)
        for piece in cut(payload, size)
    ]


def round_robin(payloads: list[bytes], size: int) -> list[Packet]:
    """One packet of each flow in turn until every flow is sent."""
    queues = [cut(payload, size) for payload in payloads]
    out = []
    for turn in range(max(len(q) for q in queues)):
        for i, queue in enumerate(queues):
            if turn < len(queue):
                out.append(Packet(key=flow_key(i), payload=queue[turn], seq=0))
    return out


def per_flow(stats: ReplayStats) -> dict:
    flows: dict = {}
    for key, event in stats.alerts:
        flows.setdefault(key, []).append(event)
    return {key: sorted(events) for key, events in flows.items()}


def assert_same_replay(batched: ReplayStats, scalar: ReplayStats) -> None:
    assert per_flow(batched) == per_flow(scalar)
    assert batched.n_packets == scalar.n_packets
    assert batched.total_payload == scalar.total_payload
    assert batched.n_alerts == scalar.n_alerts
    assert batched.n_flows == scalar.n_flows
    assert batched.n_evicted == scalar.n_evicted
    assert len(batched.packet_ns) == len(scalar.packet_ns)


@pytest.fixture(scope="module")
def batch_mfa():
    return compile_mfa(BATCH_RULES)


# Module-scoped: hypothesis forbids function-scoped fixtures inside @given.
# "auto" runs the prefilter whenever the MFA carries a plan; the ids name
# whether the prefilter runs.
@pytest.fixture(scope="module", params=["off", "auto"], ids=["off", "on"])
def batch_engine(request, batch_mfa):
    return build_fastpath(batch_mfa, prefilter=request.param)


class TestBatchedReplay:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("order", [back_to_back, round_robin])
    @pytest.mark.parametrize("size", [1, 5, 1400])
    def test_same_results_as_scalar(self, batch_mfa, batch_engine, order, size, batch_size):
        traffic = order(flow_payloads(9), size)
        batched = replay(batch_engine, traffic, batch_size=batch_size)
        scalar = replay(batch_mfa, traffic)
        assert scalar.n_alerts > 0
        assert_same_replay(batched, scalar)

    @given(
        payloads=st.lists(
            st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=12).map(b"".join),
            min_size=1,
            max_size=6,
        ),
        data=st.data(),
        batch_size=st.sampled_from(BATCH_SIZES),
        max_flows=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_orders_and_cuts_match_scalar(
        self, batch_mfa, batch_engine, payloads, data, batch_size, max_flows
    ):
        queues = []
        for payload in payloads:
            cuts = set()
            if len(payload) > 1:
                cuts = data.draw(st.sets(st.integers(1, len(payload) - 1), max_size=4))
            bounds = [0, *sorted(cuts), len(payload)]
            queues.append([payload[a:b] for a, b in zip(bounds, bounds[1:])])
        # A random interleaving that keeps each flow's packets in order.
        order = data.draw(st.permutations([i for i, q in enumerate(queues) for _ in q]))
        cursor = [0] * len(queues)
        traffic = []
        for i in order:
            traffic.append(Packet(key=flow_key(i), payload=queues[i][cursor[i]], seq=0))
            cursor[i] += 1
        batched = replay(batch_engine, traffic, max_flows=max_flows, batch_size=batch_size)
        scalar = replay(batch_mfa, traffic, max_flows=max_flows)
        assert_same_replay(batched, scalar)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_back_to_back_flows_fill_every_batch(self, batch_engine, batch_size):
        traffic = back_to_back(flow_payloads(9), 5)
        stats = replay(batch_engine, traffic, batch_size=batch_size)
        assert stats.n_packets == len(traffic)
        assert stats.n_batches == math.ceil(len(traffic) / batch_size)

    def test_describe_shows_packets_per_batch(self, batch_engine):
        traffic = back_to_back(flow_payloads(4), 5)
        stats = replay(batch_engine, traffic, batch_size=len(traffic))
        assert stats.n_batches == 1
        assert f"batches: 1 ({len(traffic)}.0 packets/batch)" in stats.describe()


class _BatchGrenade:
    """Engine whose ``feed_batch`` explodes when any chunk holds a marker."""

    def __init__(self, inner, marker):
        self.inner = inner
        self.marker = marker

    def new_context(self):
        return self.inner.new_context()

    def feed(self, context, payload):
        return self.inner.feed(context, payload)

    def finish(self, context):
        return self.inner.finish(context)

    def feed_batch(self, contexts, payloads):
        if any(self.marker in payload for payload in payloads):
            raise RuntimeError("grenade")
        return self.inner.feed_batch(contexts, payloads)


class TestBatchedReplayIsolation:
    def _traffic(self):
        # Six two-packet flows, back to back; flow 1's first packet carries
        # the marker.  At batch_size=3 the first batch is f0, f0, f1.
        payloads = [b"alpha omega"] * 6
        payloads[1] = b"BOOM! omega"
        return back_to_back(payloads, 6), payloads

    def test_raise_mode_propagates(self, batch_mfa):
        engine = _BatchGrenade(build_fastpath(batch_mfa), marker=b"BOOM")
        traffic, _ = self._traffic()
        with pytest.raises(RuntimeError, match="grenade"):
            replay(engine, traffic, batch_size=3)

    def test_isolate_poisons_exactly_the_failing_batch(self, batch_mfa):
        engine = _BatchGrenade(build_fastpath(batch_mfa), marker=b"BOOM")
        traffic, payloads = self._traffic()
        stats = replay(engine, traffic, errors="isolate", batch_size=3)
        assert {key for key, _ in stats.errors} == {flow_key(0), flow_key(1)}
        assert all("engine error in batch" in reason for _, reason in stats.errors)
        assert stats.n_poisoned == 2
        assert stats.n_skipped == 1  # flow 1's second packet
        assert stats.n_packets == len(traffic) - 3 - 1
        healthy = {flow_key(i): sorted(batch_mfa.run(payloads[i])) for i in range(2, 6)}
        assert per_flow(stats) == healthy
        assert stats.n_alerts == 4


class TestBatchedReplayFlowTable:
    def test_max_flows_evicts_and_finishes(self, batch_engine):
        traffic = [Packet(key=flow_key(i), payload=b"alpha omega ", seq=0) for i in range(10)]
        stats = replay(batch_engine, traffic, max_flows=3, batch_size=4)
        assert stats.n_evicted == 7
        assert stats.n_flows == 10
        # Evicted contexts were flushed and finished, not dropped.
        assert stats.n_alerts == 10

    def test_eviction_flushes_the_open_batch_first(self, batch_engine):
        # Split packets: a flow evicted while its first half sits in the
        # open batch would lose its alert.
        keys = [flow_key(i) for i in range(4)]
        traffic = []
        for key in keys:
            traffic.append(Packet(key=key, payload=b"alpha ", seq=0))
            traffic.append(Packet(key=key, payload=b"omega", seq=6))
        stats = replay(batch_engine, traffic, max_flows=1, batch_size=64)
        assert stats.n_evicted == 3
        assert stats.n_batches == 4
        assert sorted(key for key, _ in stats.alerts) == keys

    def test_eviction_is_lru_by_feed_order(self, batch_engine):
        keys = [flow_key(i) for i in range(3)]
        traffic = [
            Packet(key=keys[0], payload=b"alpha ", seq=0),
            Packet(key=keys[1], payload=b"noise", seq=0),
            Packet(key=keys[0], payload=b"omega", seq=6),   # refresh flow 0
            Packet(key=keys[2], payload=b"open third", seq=0),  # evicts flow 1
        ]
        stats = replay(batch_engine, traffic, max_flows=2, batch_size=64)
        assert stats.n_evicted == 1
        assert [k for k, _ in stats.alerts] == [keys[0]]
        assert stats.n_flows == 3
