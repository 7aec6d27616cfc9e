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

from repro.core import compile_mfa
from repro.fastpath import FastPathMFA, build_fastpath

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

@pytest.fixture(scope="module")
def mfa():
    return compile_mfa(RULES)


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
