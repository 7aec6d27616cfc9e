"""The lockstep batch engine must be observably identical to the scalar MFA.

Every property here compares full match-event streams (and, for the
streaming tests, the final per-flow ``(q, m)`` context) between
``FastPathMFA`` and the scalar engine over randomized payloads, batch
shapes, chunkings and segment lengths — including degenerate segments
(1 and 3 bytes) that force heavy speculation and stitching.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.nfa import MatchEvent
from repro.core import FlowContext, compile_mfa
from repro.fastpath import FastPathMFA, PrefilterRuntime, build_fastpath

RULES = [
    ".*alpha.*omega",
    ".*abc[^\\n]*xyz",
    ".*start.{1,4}end0",
    "^HELO ",
]

# Fragments that exercise component hits, filter ops and near-misses.
FRAGMENTS = [
    b"alpha", b"omega", b"abc", b"xyz", b"start", b"end0",
    b"HELO ", b"\n", b"al", b"zz", b"\x00\xff", b" ",
]

payloads_strategy = st.lists(
    st.lists(st.sampled_from(FRAGMENTS), max_size=24).map(b"".join),
    max_size=8,
)

# End-anchored rules beside a distance rule and an anchored head.  A flow
# whose only decision is an end-anchored test has no test, report or
# register action mid-stream, yet its mask-only sets decide the alert.
# The filler puts such a set and the end test that reads it in different
# prefilter windows.
END_RULES = [".*ab.*cd$", ".*alpha.*omega$", ".*start.{1,4}end0", "^HELO "]
END_FRAGMENTS = FRAGMENTS + [b"ab", b"cd", b"-" * 120]


@pytest.fixture(scope="module")
def mfa():
    return compile_mfa(RULES)


@pytest.fixture(scope="module")
def end_mfa():
    return compile_mfa(END_RULES)


# Every batch/streaming property runs twice: once with the required-literal
# prefilter off (pinning coverage of the classic lane/stitch machinery) and
# once with it on (the candidate-window confirm kernel), which "auto" selects
# whenever the MFA carries a plan.  The ids name whether the prefilter runs.
@pytest.fixture(scope="module", params=["off", "auto"], ids=["off", "on"])
def prefilter(request):
    # Module-scoped: the mode is pure configuration (no per-test state), and
    # hypothesis forbids function-scoped fixtures inside @given.
    return request.param


def final_state(context):
    memory = context.memory
    return (
        context.state,
        context.offset,
        memory.bits,
        dict(memory.registers),
        memory.sticky,
    )


class TestRunBatch:
    @given(payloads=payloads_strategy, segment=st.sampled_from([None, 1, 3, 7, 64]))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_run(self, mfa, prefilter, payloads, segment):
        engine = FastPathMFA(mfa, segment_bytes=segment, prefilter=prefilter)
        assert engine.run_batch(payloads) == [mfa.run(p) for p in payloads]

    def test_empty_batch_and_empty_payloads(self, mfa, prefilter):
        engine = build_fastpath(mfa, prefilter=prefilter)
        assert engine.run_batch([]) == []
        assert engine.run_batch([b"", b""]) == [[], []]
        assert engine.run_batch([b"", b"HELO alpha omega"]) == [
            [],
            mfa.run(b"HELO alpha omega"),
        ]

    def test_run_delegates_to_scalar(self, mfa, prefilter):
        engine = build_fastpath(mfa, prefilter=prefilter)
        payload = b"HELO alpha abc 12 xyz omega start 12 end0"
        assert engine.run(payload) == mfa.run(payload)

    def test_single_long_flow_multiple_lanes(self, mfa, prefilter):
        # One flow much longer than the segment splits into many lanes,
        # all but the first starting speculatively.
        engine = FastPathMFA(mfa, segment_bytes=16, prefilter=prefilter)
        payload = b"HELO " + b"alpha " * 40 + b"filler" * 30 + b"omega" + b"abcxyz" * 20
        assert engine.run_batch([payload]) == [mfa.run(payload)]


class TestReplayRule:
    """``run_batch`` replays only flows whose filter ops can reach an
    output: a full-op hit, or end-anchored decisions in the final state."""

    @given(
        payloads=st.lists(
            st.lists(st.sampled_from(END_FRAGMENTS), max_size=16).map(b"".join),
            max_size=8,
        ),
        segment=st.sampled_from([None, 1, 3, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_end_anchored_rules_match_scalar_run(
        self, end_mfa, prefilter, payloads, segment
    ):
        engine = FastPathMFA(end_mfa, segment_bytes=segment, prefilter=prefilter)
        assert engine.run_batch(payloads) == [end_mfa.run(p) for p in payloads]

    @pytest.mark.parametrize("segment", [None, 1, 3, 64])
    def test_mask_set_read_only_by_end_test(self, end_mfa, prefilter, segment):
        engine = FastPathMFA(end_mfa, segment_bytes=segment, prefilter=prefilter)
        payload = b"ab" + b"x" * 300 + b"cd"
        assert engine.run_batch([payload]) == [[MatchEvent(303, 1)]]


def op_kinds(mfa, payload) -> set[str]:
    """Filter ops the scalar walk of ``payload`` reaches: "mask" for a
    mask-pair state, "full" for a test, a report or a register action."""
    kinds = set()
    state = mfa.dfa.start
    for byte in payload:
        state = mfa.dfa.rows[state][byte]
        ops = mfa._ops[state]
        if ops is not None:
            kinds.add("mask" if type(ops) is list else "full")
    return kinds


class TestFixedCost:
    def test_whole_flows_without_full_ops_build_no_context(
        self, mfa, prefilter, monkeypatch
    ):
        payloads = [
            b"alpha " + bytes([65 + i % 26]) * (300 + i) + b" abc\nzz"
            for i in range(64)
        ]
        assert set().union(*(op_kinds(mfa, p) for p in payloads)) == {"mask"}
        want = [mfa.run(p) for p in payloads]
        engine = FastPathMFA(mfa, prefilter=prefilter)
        built = []
        init = FlowContext.__init__

        def counting_init(context, owner):
            built.append(owner)
            init(context, owner)

        monkeypatch.setattr(FlowContext, "__init__", counting_init)
        assert engine.run_batch(payloads) == want
        assert built == []

    def test_one_skim_per_batch_call(self, mfa, monkeypatch):
        # A density-fallback batch goes from its one skim to the lane walk.
        engine = build_fastpath(mfa)
        assert engine.prefilter_active
        skims, lane_walks = [], []
        scan = PrefilterRuntime.scan
        walk_lanes = FastPathMFA._walk_lanes
        monkeypatch.setattr(
            PrefilterRuntime, "scan", lambda self, buf: skims.append(1) or scan(self, buf)
        )
        monkeypatch.setattr(
            FastPathMFA,
            "_walk_lanes",
            lambda self, *args: lane_walks.append(1) or walk_lanes(self, *args),
        )
        sparse = [b"HELO " + b"-" * 200 + b" alpha" for _ in range(64)]
        dense = [b"alpha omega " * 30 for _ in range(64)]
        for payloads, fallback in ((sparse, False), (dense, True)):
            want = [mfa.run(p) for p in payloads]
            for batched in ("run_batch", "feed_batch"):
                skims.clear()
                lane_walks.clear()
                if batched == "run_batch":
                    got = engine.run_batch(payloads)
                else:
                    contexts = [engine.new_context() for _ in payloads]
                    got = [
                        events + list(engine.finish(context))
                        for events, context in zip(
                            engine.feed_batch(contexts, payloads), contexts
                        )
                    ]
                assert got == want
                assert len(skims) == 1
                assert len(lane_walks) == fallback


class TestStreaming:
    @given(
        payloads=st.lists(
            st.lists(st.sampled_from(FRAGMENTS), max_size=16).map(b"".join),
            min_size=1,
            max_size=5,
        ),
        chunk=st.sampled_from([1, 5, 9, 33]),
        segment=st.sampled_from([None, 3, 7]),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunked_feed_batch_matches_scalar_feed(
        self, mfa, prefilter, payloads, chunk, segment
    ):
        engine = FastPathMFA(mfa, segment_bytes=segment, prefilter=prefilter)
        fast_contexts = [engine.new_context() for _ in payloads]
        slow_contexts = [mfa.new_context() for _ in payloads]
        fast_events = [[] for _ in payloads]
        slow_events = [[] for _ in payloads]
        longest = max(len(p) for p in payloads)
        for offset in range(0, longest, chunk):
            pieces = [p[offset : offset + chunk] for p in payloads]
            for flow_events, events in zip(
                fast_events, engine.feed_batch(fast_contexts, pieces)
            ):
                flow_events.extend(events)
            for flow_events, context, piece in zip(slow_events, slow_contexts, pieces):
                flow_events.extend(mfa.feed(context, piece))
        for i in range(len(payloads)):
            fast_events[i].extend(engine.finish(fast_contexts[i]))
            slow_events[i].extend(mfa.finish(slow_contexts[i]))
        assert fast_events == slow_events
        for fast, slow in zip(fast_contexts, slow_contexts):
            assert final_state(fast) == final_state(slow)

    def test_context_reusable_across_batches(self, mfa, prefilter):
        # The same contexts fed through two successive batch calls must
        # see offsets continue, exactly like two scalar feed() calls.
        engine = build_fastpath(mfa, prefilter=prefilter)
        first, second = b"HELO alpha abc ", b"xyz omega start 1 end0"
        context = engine.new_context()
        events = list(engine.feed_batch([context], [first])[0])
        events += list(engine.feed_batch([context], [second])[0])
        events += list(engine.finish(context))
        assert events == mfa.run(first + second)
        assert final_state(context) == final_state_of_scalar(mfa, first + second)


def final_state_of_scalar(mfa, payload):
    context = mfa.new_context()
    list(mfa.feed(context, payload))
    return final_state(context)


class TestScalarFallback:
    @given(payloads=payloads_strategy)
    @settings(max_examples=25, deadline=None)
    def test_fallback_path_matches_scalar(self, mfa, payloads):
        # The pure-Python path that empty batches take stays live: drive
        # it directly.
        engine = build_fastpath(mfa)
        contexts = [engine.new_context() for _ in payloads]
        got = engine._feed_scalar(contexts, payloads)
        got = [list(events) + list(engine.finish(c)) for events, c in zip(got, contexts)]
        assert got == [mfa.run(p) for p in payloads]
