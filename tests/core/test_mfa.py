"""MFA behaviour beyond plain matching: streaming, flow contexts, sizes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import minimize_dfa
from repro.core import MFA, build_mfa, compile_dfa, compile_mfa
from repro.regex import parse_many

RULES = [".*alpha.*omega", ".*abc[^\\n]*xyz", ".*start.{1,4}end0", "^HELO "]


@pytest.fixture(scope="module")
def mfa():
    return compile_mfa(RULES)


@pytest.fixture(scope="module")
def reference():
    return compile_dfa(RULES)


PAYLOAD = b"HELO alpha abc 12 xyz omega start 12 end0 alpha\nomega"


class TestStreaming:
    def test_feed_whole_equals_run(self, mfa):
        context = mfa.new_context()
        streamed = list(mfa.feed(context, PAYLOAD)) + list(mfa.finish(context))
        assert sorted(streamed) == sorted(mfa.run(PAYLOAD))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 16])
    def test_chunked_feed_equals_whole(self, mfa, chunk):
        context = mfa.new_context()
        events = []
        for offset in range(0, len(PAYLOAD), chunk):
            events.extend(mfa.feed(context, PAYLOAD[offset : offset + chunk]))
        events.extend(mfa.finish(context))
        assert sorted(events) == sorted(mfa.run(PAYLOAD))

    def test_offsets_are_flow_absolute(self, mfa):
        context = mfa.new_context()
        list(mfa.feed(context, b"." * 100))
        events = list(mfa.feed(context, b"alpha omega"))
        assert events and all(event.pos >= 100 for event in events)

    def test_counted_gap_across_chunk_boundary(self, mfa, reference):
        # The register must survive the packet boundary mid-gap.
        data = b"start 1 end0"
        context = mfa.new_context()
        events = list(mfa.feed(context, data[:8]))
        events += list(mfa.feed(context, data[8:]))
        assert sorted(events) == sorted(reference.run(data))

    def test_empty_chunk_is_noop(self, mfa):
        context = mfa.new_context()
        assert list(mfa.feed(context, b"")) == []
        assert context.offset == 0


class TestFlowIsolation:
    def test_contexts_do_not_leak(self, mfa):
        benign = mfa.new_context()
        hot = mfa.new_context()
        list(mfa.feed(hot, b"alpha "))       # sets the alpha flag in `hot`
        events = list(mfa.feed(benign, b"omega"))
        assert events == []                  # benign flow saw no alpha
        assert list(mfa.feed(hot, b"omega"))  # hot flow confirms

    def test_interleaved_flows_equal_isolated_runs(self, mfa):
        flow_a = b"alpha ... omega"
        flow_b = b"abc qq xyz"
        context_a, context_b = mfa.new_context(), mfa.new_context()
        interleaved = []
        for i in range(0, 20, 5):
            interleaved.extend(mfa.feed(context_a, flow_a[i : i + 5]))
            interleaved.extend(mfa.feed(context_b, flow_b[i : i + 5]))
        expected = sorted(mfa.run(flow_a)) + sorted(mfa.run(flow_b))
        assert sorted(interleaved) == sorted(expected)


class TestAccounting:
    def test_memory_breakdown(self, mfa):
        assert mfa.memory_bytes() == mfa.dfa.memory_bytes() + mfa.filter_bytes()
        assert 0 < mfa.filter_bytes() < mfa.memory_bytes() * 0.05

    def test_width_and_registers(self, mfa):
        assert mfa.width == 2          # one dot-star bit + one almost bit
        assert mfa.program.n_registers == 1

    def test_stats_exposed(self, mfa):
        stats = mfa.stats()
        assert stats.n_dot_star == 1
        assert stats.n_almost_dot_star == 1
        assert stats.n_counted == 1

    def test_scan_returns_state(self, mfa):
        assert isinstance(mfa.scan(b"whatever"), int)


class TestEndAnchored:
    def test_end_anchor_via_finish(self):
        mfa = compile_mfa([".*ab.*cd$"])
        reference = compile_dfa([".*ab.*cd$"])
        for data in (b"ab..cd", b"ab..cd!", b"cd ab cd", b""):
            assert sorted(mfa.run(data)) == sorted(reference.run(data)), data


@given(st.binary(max_size=80), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_chunking_property(data, chunk):
    """Any chunking of any input produces the whole-payload stream."""
    mfa = compile_mfa(RULES)
    context = mfa.new_context()
    events = []
    for offset in range(0, len(data), chunk):
        events.extend(mfa.feed(context, data[offset : offset + chunk]))
    events.extend(mfa.finish(context))
    assert sorted(events) == sorted(mfa.run(data))


class TestEarlyExit:
    def test_first_match_is_earliest(self, mfa):
        first = mfa.first_match(PAYLOAD)
        assert first == sorted(mfa.run(PAYLOAD))[0]

    def test_no_match_returns_none(self, mfa):
        assert mfa.first_match(b"nothing to see") is None
        assert not mfa.matches(b"nothing to see")

    def test_matches_bool(self, mfa):
        assert mfa.matches(PAYLOAD)

    def test_early_exit_stops_scanning(self, mfa):
        # A match at the very front of a huge payload returns immediately:
        # generator-based feed means no further bytes are consumed.
        import time

        hot = b"HELO " + b"z" * 2_000_000
        start = time.perf_counter()
        event = mfa.first_match(hot)
        elapsed = time.perf_counter() - start
        assert event is not None and event.pos == 4
        assert elapsed < 0.2  # far less than scanning 2 MB would take


class TestMinimizedBuild:
    def test_minimize_option(self):
        patterns = parse_many(RULES)
        plain = build_mfa(patterns)
        small = MFA(minimize_dfa(plain.dfa), plain.program, plain.split)
        assert small.n_states <= plain.n_states
        data = b"HELO alpha abc 1 xyz omega start 12 end0"
        assert sorted(small.run(data)) == sorted(plain.run(data))
