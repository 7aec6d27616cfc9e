"""Sharded parallel compilation: stream fidelity and per-shard degradation.

The recombination claim is exact: a rule set compiled as shards (any
shard count, any job count) confirms the same matches as the single-shot
``compile_mfa``, in canonical ``(pos, match_id)`` order.  Hypothesis
drives random rule subsets and fault-injected payloads through both
paths; the resilient-compiler test shows one exploding shard degrading
alone.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_mfa
from repro.core.sharded import scan_isolated
from repro.fastcompile import ShardedMFA, partition_patterns
from repro.fastpath import build_fastpath
from repro.patterns import ruleset
from repro.regex import parse_many
from repro.robust import ResilientCompiler
from repro.robust.limits import CompileLimits
from repro.robust.faults import xflood_payload

RULES = list(ruleset("S31p").rules)

PAYLOADS = [
    b"",
    b"pqsusr/bin/idabcdefabcdefwhoamixyz" * 20,
    xflood_payload(repeats=200),
    b"GET /scripts/..%c1%1c/ HTTP/1.0\r\n\r\nSSH-1.5-OpenSSH",
]


def canonical(engine, payload):
    return sorted(engine.run(payload))


@pytest.fixture(scope="module")
def single():
    return compile_mfa(RULES)


class TestPartition:
    def test_sizes_and_order(self):
        patterns = parse_many(["a", "b", "c", "d", "e"])
        chunks = partition_patterns(patterns, 2)
        assert [len(c) for c in chunks] == [3, 2]
        assert [p.source for c in chunks for p in c] == ["a", "b", "c", "d", "e"]

    def test_more_shards_than_patterns(self):
        patterns = parse_many(["a", "b"])
        chunks = partition_patterns(patterns, 8)
        assert [len(c) for c in chunks] == [1, 1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            partition_patterns(parse_many(["a"]), 0)


class _Marked:
    """An engine whose scans raise on a payload holding ``marker``; it has
    ``run_batch`` only when ``batched``, and records every call."""

    def __init__(self, inner, marker, batched):
        self.inner = inner
        self.marker = marker
        self.calls = []
        if batched:
            self.run_batch = self._run_batch

    def run(self, payload):
        self.calls.append(("run", payload))
        if self.marker in payload:
            raise RuntimeError("marked payload")
        return self.inner.run(payload)

    def _run_batch(self, payloads):
        self.calls.append(("run_batch", len(payloads)))
        if any(self.marker in payload for payload in payloads):
            raise RuntimeError("marked batch")
        return [self.inner.run(payload) for payload in payloads]


class TestScanIsolated:
    MARKED = b"BOOM"

    def payloads(self):
        return [PAYLOADS[1], b"BOOM" + PAYLOADS[3], PAYLOADS[3], PAYLOADS[0]]

    @pytest.mark.parametrize("batched", [True, False], ids=["run_batch", "run"])
    def test_exception_stays_in_its_payloads_slot(self, single, batched):
        engine = _Marked(single, self.MARKED, batched)
        results = scan_isolated(engine, self.payloads())
        assert isinstance(results[1], RuntimeError)
        for index in (0, 2, 3):
            assert sorted(results[index]) == canonical(single, self.payloads()[index])
        if batched:
            # One batch, then each payload alone; the marked one raises.
            assert [call[1] for call in engine.calls] == [4, 1, 1, 1, 1]

    def test_engine_without_run_batch_is_scanned_with_run(self, single):
        engine = _Marked(single, self.MARKED, batched=False)
        payloads = [PAYLOADS[1], PAYLOADS[3]]
        results = scan_isolated(engine, payloads)
        assert [sorted(events) for events in results] == [
            canonical(single, payload) for payload in payloads
        ]
        assert engine.calls == [("run", payload) for payload in payloads]

    def test_a_failing_single_payload_is_not_rescanned(self, single):
        engine = _Marked(single, self.MARKED, batched=True)
        (result,) = scan_isolated(engine, [b"BOOM"])
        assert str(result) == "marked batch"
        assert engine.calls == [("run_batch", 1)]


class TestStreamFidelity:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_exact_stream(self, single, shards, jobs):
        engine = compile_mfa(RULES, shards=shards, jobs=jobs)
        if shards > 1:
            assert isinstance(engine, ShardedMFA)
            assert engine.n_shards == shards
        for payload in PAYLOADS:
            want = canonical(single, payload)
            got = engine.run(payload)
            if shards > 1:
                # The sharded engine emits canonical order directly.
                assert got == want
            else:
                assert sorted(got) == want
        if shards > 1:
            # Batched scans equal per-flow runs, over MFA shards (per-flow
            # fallback) and fastpath shards (lockstep run_batch) alike.
            fast = ShardedMFA([build_fastpath(shard) for shard in engine.shards])
            for sharded in (engine, fast):
                assert sharded.run_batch(PAYLOADS) == [
                    sharded.run(payload) for payload in PAYLOADS
                ]
            assert fast.run_batch(PAYLOADS) == [
                canonical(single, payload) for payload in PAYLOADS
            ]

    def test_streaming_trio_matches_run(self, single):
        engine = compile_mfa(RULES, shards=4)
        payload = PAYLOADS[1]
        for step in (7, 64, 1000):
            context = engine.new_context()
            events = []
            for start in range(0, len(payload), step):
                events.extend(engine.feed(context, payload[start : start + step]))
            events.extend(engine.finish(context))
            assert sorted(events) == canonical(single, payload)

    @given(
        indices=st.sets(st.integers(0, len(RULES) - 1), min_size=2, max_size=8),
        shards=st.sampled_from([1, 2, 4]),
        payload=st.binary(max_size=120),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_subsets(self, indices, shards, payload):
        subset = [RULES[i] for i in sorted(indices)]
        reference = compile_mfa(subset)
        sharded = compile_mfa(subset, shards=shards)
        for probe in (payload, payload + xflood_payload(repeats=4)):
            assert sorted(sharded.run(probe)) == canonical(reference, probe)


class TestResilientSharding:
    EASY = ["^GET /", "^HEAD /", "^SSH-1\\.", "^OPTIONS "]
    # Overlap-refused splits compile whole, so this shard's component DFA
    # is two orders of magnitude larger than the easy shard's (~273 vs
    # ~27 states) — a budget of 100 separates them cleanly.
    EXPLOSIVE = [".*aab.*aba", ".*bba.*bab", ".*cca.*cac", ".*dda.*dad"]

    def test_exploding_shard_degrades_alone(self):
        rules = self.EASY + self.EXPLOSIVE
        limits = CompileLimits(budget_schedule=(100,), fallback_chain=("mfa", "nfa"))
        compiler = ResilientCompiler(limits=limits, shards=2, jobs=2)
        result = compiler.compile(rules)
        assert result.ok
        assert result.engine_name == "sharded(mfa,nfa)"
        assert result.report.n_shards == 2
        by_shard = {}
        for attempt in result.report.attempts:
            by_shard.setdefault(attempt.shard, []).append(attempt)
        # Shard 0 (the easy rules) compiled as an MFA on the first try;
        # shard 1 exploded and fell back to the NFA on its own.
        assert [(a.engine, a.ok) for a in by_shard[0]] == [("mfa", True)]
        assert [(a.engine, a.ok) for a in by_shard[1]] == [
            ("mfa", False),
            ("nfa", True),
        ]
        # The combined engine still matches rules from both shards, with
        # the global match-ids of the full list.
        probe = b"GET / HTTP/1.0 aab aba"
        ids = {event.match_id for event in result.engine.run(probe)}
        assert 1 in ids  # ^GET / is rule 1, shard 0
        assert 5 in ids  # .*aab.*aba is rule 5, shard 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fractional_time_budget_survives_rebuild(self, jobs):
        """A ``seconds`` explosion keeps its float budget whether a shard
        raised it in process or it was rebuilt from a pool worker's tag.
        A nanosecond budget trips every walk at its first deadline check."""
        limits = CompileLimits(
            budget_schedule=(10**9,), time_budget=1e-9, fallback_chain=("mfa", "nfa")
        )
        result = ResilientCompiler(limits=limits, shards=2, jobs=jobs).compile(self.EXPLOSIVE)
        assert result.ok
        failed = [attempt for attempt in result.report.attempts if not attempt.ok]
        assert [attempt.shard for attempt in failed] == [0, 1]
        assert all(attempt.error == "exceeded 1e-09 seconds" for attempt in failed)

    def test_sharded_matches_unsharded_resilient(self):
        rules = self.EASY + self.EXPLOSIVE
        plain = ResilientCompiler().compile(rules)
        sharded = ResilientCompiler(shards=3, jobs=2).compile(rules)
        assert sharded.report.n_shards == 3
        probe = b"HEAD / HTTP/1.0 aab-aba bba.bab cca cac" * 3
        assert sorted(sharded.engine.run(probe)) == sorted(plain.engine.run(probe))
