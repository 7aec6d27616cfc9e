"""The cross-rule interaction analyzer: oracle, findings, pruning, plans.

The containment oracle is the load-bearing piece — RS101/RS102 pruning
drops rules from production engines on its word, so it is checked two
independent ways: hand-built semantic cases with known answers, and a
hypothesis property comparing the product-automaton walk against
brute-force enumeration of every string up to length 6 over a 4-byte
alphabet (the same event semantics the engines implement: B's reported
positions must be a subset of A's on every input).
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import analyze_ruleset, pattern_contains, plan_shards, prune_patterns
from repro.analyze.ruleset import map_stream
from repro.automata.nfa import build_nfa
from repro.bench.harness import patterns_for
from repro.core import compile_mfa
from repro.fastcompile.shards import partition_patterns
from repro.regex import parse_many


def _patterns(*sources: str):
    return list(parse_many(list(sources)))


def _contains(a_src: str, b_src: str) -> bool:
    a, b = _patterns(a_src, b_src)
    verdict = pattern_contains(a, b)
    assert not verdict.bounded
    return verdict.contains


class TestContainmentOracle:
    def test_literal_prefix_subsumption(self):
        assert _contains(".*login", ".*loginpanel") is False  # different positions
        assert _contains(".*admin", ".*admin") is True

    def test_character_class_widening(self):
        assert _contains(".*uid=[0-9]", ".*uid=7") is True
        assert _contains(".*uid=7", ".*uid=[0-9]") is False

    def test_anchoring_matters(self):
        assert _contains("^abc", "^abcd") is False  # events at positions 3 vs 4
        assert _contains(".*abc", "^abc") is True

    def test_counted_repetition(self):
        # Wherever a{3,} ends, at least two trailing a's end too.
        assert _contains(".*a{2,}", ".*a{3,}") is True
        assert _contains(".*a{3,}", ".*a{2,}") is False  # "aa" fires only the lax rule
        assert _contains(".*ab.*cd", ".*ab.*cd") is True

    def test_refutation_witness_is_replayable(self):
        a, b = _patterns(".*uid=7", ".*uid=[0-9]")
        verdict = pattern_contains(a, b)
        assert not verdict.contains and verdict.refutation is not None
        nfa_a = build_nfa([a.with_id(1)])
        nfa_b = build_nfa([b.with_id(1)])
        at_b = {e.pos for e in nfa_b.run(verdict.refutation)}
        at_a = {e.pos for e in nfa_a.run(verdict.refutation)}
        assert at_b - at_a  # B fires somewhere A does not

    def test_budget_bound_is_reported(self):
        a, b = _patterns(".*a[ab]{12}b", ".*a[ab]{12}b")
        verdict = pattern_contains(a, b, budget=4)
        # A bounded walk is inconclusive: the analyzer must not prune on it.
        assert verdict.bounded and verdict.states <= 4


# -- hypothesis: oracle versus brute force ------------------------------------

_ALPHABET = b"abxy"
_ALL_STRINGS = tuple(
    bytes(combo)
    for length in range(7)
    for combo in product(_ALPHABET, repeat=length)
)

_words = st.text(alphabet="ab", min_size=1, max_size=3)
_pieces = st.sampled_from(
    ["a", "b", "x", "[ab]", "[ax]", "[^a]", "a*", "b+", "a{1,2}", ".", ".*"]
)


@st.composite
def _tiny_pattern(draw):
    prefix = draw(st.sampled_from(["", "^", ".*"]))
    body = "".join(draw(st.lists(_pieces, min_size=1, max_size=4)))
    suffix = draw(st.sampled_from(["", "$"]))
    return prefix + body + suffix


def _event_positions(nfa, payload: bytes) -> frozenset:
    return frozenset(e.pos for e in nfa.run(payload))


@given(_tiny_pattern(), _tiny_pattern())
@settings(max_examples=25, deadline=None)
def test_oracle_agrees_with_brute_force(a_src, b_src):
    a, b = _patterns(a_src, b_src)
    verdict = pattern_contains(a, b)
    assert not verdict.bounded
    nfa_a = build_nfa([a.with_id(1)])
    nfa_b = build_nfa([b.with_id(1)])
    brute = all(
        _event_positions(nfa_b, s) <= _event_positions(nfa_a, s)
        for s in _ALL_STRINGS
    )
    assert verdict.contains == brute
    if not verdict.contains:
        # The refutation must itself be a counterexample.
        payload = verdict.refutation
        assert payload is not None
        assert not (_event_positions(nfa_b, payload) <= _event_positions(nfa_a, payload))


# -- the R32 fixture end to end -----------------------------------------------


@pytest.fixture(scope="module")
def r32_result():
    return analyze_ruleset(list(patterns_for("R32")))


class TestR32Findings:
    def test_expected_findings(self, r32_result):
        codes = [f.code for f in r32_result.report]
        assert codes.count("RS101") == 1
        assert codes.count("RS102") == 4
        assert codes.count("RS103") == 1
        assert "RS130" in codes
        assert not r32_result.report.has_errors

    def test_every_witness_is_replay_confirmed(self, r32_result):
        assert len(r32_result.witnesses) == 6
        assert all(w.confirmed for w in r32_result.witnesses)

    def test_duplicate_keeps_lower_id(self, r32_result):
        assert (4, 5) in r32_result.duplicates

    def test_clusters_group_by_literal_head(self, r32_result):
        heads = {tuple(sorted(c)) for c in r32_result.clusters}
        # "GET /admin*" (rules 4-6) and "sid=*" (rules 10-12) share heads;
        # the .exe family does not (".ex"/"cmd"/"pow" differ) by design.
        assert (3, 4, 5) in heads
        assert (9, 10, 11) in heads

    def test_to_dict_round_trips(self, r32_result):
        doc = r32_result.to_dict()
        assert doc["pairs"]["walked"] > 0
        assert len(doc["witnesses"]) == 6
        assert all("payload_hex" in w for w in doc["witnesses"])


class TestPruning:
    def test_prune_drops_flagged_rules_only(self, r32_result):
        patterns = list(patterns_for("R32"))
        kept, alias = prune_patterns(patterns, r32_result)
        assert len(kept) == len(patterns) - 5  # 1 duplicate + 4 subsumed
        dropped = {p.match_id for p in patterns} - {p.match_id for p in kept}
        assert dropped == set(alias)

    def test_pruned_engine_is_stream_equivalent(self, r32_result):
        patterns = list(patterns_for("R32"))
        kept, alias = prune_patterns(patterns, r32_result)
        unpruned = compile_mfa(patterns)
        pruned = compile_mfa(kept)
        payload = b"GET /admin cmd.exe uid=1000; sid=3x"
        expect = map_stream(unpruned.run(payload), alias)
        assert expect == {(e.pos, e.match_id) for e in pruned.run(payload)}


class TestShardPlanning:
    def test_plan_is_a_permutation_partition(self):
        patterns = list(patterns_for("R32"))
        plan = plan_shards(patterns, 4)
        flat = sorted(i for chunk in plan.assignments for i in chunk)
        assert flat == list(range(len(patterns)))
        assert all(chunk == sorted(chunk) for chunk in plan.assignments)

    def test_interaction_plan_beats_contiguous_peak(self):
        from repro.analyze.ruleset import contiguous_plan

        patterns = list(patterns_for("R32"))
        inter = plan_shards(patterns, 4)
        contig = contiguous_plan(patterns, 4)
        assert inter.peak < contig.peak

    def test_compile_mfa_accepts_interaction_plan(self):
        patterns = list(patterns_for("R32"))
        contig = compile_mfa(patterns, shards=4)
        inter = compile_mfa(patterns, shards=4, shard_plan="interaction")
        payload = b"GET /administrator powershell.exe sid=5x tozzot"
        assert contig.run(payload) == inter.run(payload)

    def test_unknown_plan_raises(self):
        # Whatever the shard count, and before any rule parses.
        for shards in (1, 2):
            with pytest.raises(ValueError, match="shard_plan"):
                compile_mfa(list(patterns_for("C8")), shards=shards, shard_plan="bogus")
            with pytest.raises(ValueError, match="shard_plan"):
                compile_mfa(["(unparseable"], shards=shards, shard_plan="bogus")

    @pytest.mark.parametrize(
        "option", [{"shards": 0}, {"shards": -3}, {"jobs": 0}], ids=["shards0", "shards-3", "jobs0"]
    )
    def test_bad_shard_count_raises_before_parsing(self, option):
        (name,) = option
        with pytest.raises(ValueError, match=name):
            compile_mfa(["(unparseable"], **option)

    def test_partition_patterns_empty_input(self):
        assert partition_patterns([], 4) == []
