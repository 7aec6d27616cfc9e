"""Bitset subset construction: equivalence with the reference walk.

The bitset core replaced the frozenset walk *behind the same API*, so the
contract is strong: byte-identical automata — same state numbering, same
rows, same decision sets — plus identical budget/explosion semantics for
both the ``states`` and ``seconds`` reasons.
"""

from unittest import mock

import pytest
from hypothesis import given, settings

import repro.fastcompile.bitset as bitset_module
from repro.automata.dfa import DfaExplosionError, build_dfa, build_dfa_from_nfa_reference
from repro.automata.nfa import build_nfa
from repro.fastcompile.bitset import move_masks, subset_construct
from repro.regex import parse_many
from repro.regex.ast import Pattern

from ..regex.test_parser import node_trees


def assert_same_dfa(got, want):
    assert got.n_states == want.n_states
    assert got.start == want.start
    assert [list(row) for row in got.rows] == [list(row) for row in want.rows]
    assert got.accepts == want.accepts
    assert got.accepts_end == want.accepts_end
    assert list(got.group_of_byte) == list(want.group_of_byte)


@pytest.fixture(params=["packed", "per-group"])
def layout(request, monkeypatch):
    """Run a test under both memory layouts of the walk."""
    if request.param == "per-group":
        monkeypatch.setattr(bitset_module, "PACKED_LIMIT_BITS", 0)
    return request.param


def sticky_states(nfa):
    """NFA states that loop to themselves on every alphabet group."""
    _, representatives = nfa.alphabet_groups()
    return {
        state
        for state, per_group in enumerate(move_masks(nfa, representatives))
        if all(mask >> state & 1 for mask in per_group)
    }


def sticky_after(nfa, data):
    """The sticky members of the subset reached by reading ``data``."""
    group_of_byte, representatives = nfa.alphabet_groups()
    masks = move_masks(nfa, representatives)
    current = set(nfa.initial)
    for byte in data:
        nxt = 0
        for state in current:
            nxt |= masks[state][group_of_byte[byte]]
        current = {state for state in range(nfa.n_states) if nxt >> state & 1}
    return current & sticky_states(nfa)


class TestEquivalence:
    RULES = [
        "^GET /[a-z]+",
        ".*vi.*emacs",
        "ab{2,4}c",
        "x(y|z)*w$",
        "[a-f]{3}",
        ".*root.*login",
    ]

    def test_byte_identical_small_set(self):
        nfa = build_nfa(parse_many(self.RULES))
        assert_same_dfa(subset_construct(nfa), build_dfa_from_nfa_reference(nfa))

    def test_fallback_mode_identical(self, monkeypatch):
        """Below the packed-vector limit the walk ORs per-group masks;
        force that path and demand the same automaton."""
        monkeypatch.setattr(bitset_module, "PACKED_LIMIT_BITS", 0)
        nfa = build_nfa(parse_many(self.RULES))
        assert_same_dfa(subset_construct(nfa), build_dfa_from_nfa_reference(nfa))

    @given(node_trees, node_trees)
    @settings(max_examples=60, deadline=None)
    def test_random_patterns_identical(self, tree_a, tree_b):
        nfa = build_nfa([Pattern(tree_a, match_id=1), Pattern(tree_b, match_id=2)])
        assert_same_dfa(
            subset_construct(nfa), build_dfa_from_nfa_reference(nfa)
        )

    @given(node_trees, node_trees)
    @settings(max_examples=60, deadline=None)
    def test_random_patterns_identical_per_group(self, tree_a, tree_b):
        nfa = build_nfa([Pattern(tree_a, match_id=1), Pattern(tree_b, match_id=2)])
        with mock.patch.object(bitset_module, "PACKED_LIMIT_BITS", 0):
            got = subset_construct(nfa)
        assert_same_dfa(got, build_dfa_from_nfa_reference(nfa))


class TestStickyCore:
    """The walk memoizes the moves of each subset's sticky core (states
    with a full self-loop); the reference walk is the oracle for every
    shape of core: growing, absent."""

    ANCHORED = ["^GET /[a-z]+", "^abc[0-9]{2}x", "^(foo|bar)+baz$", "^[^\\n]*evil"]

    def test_core_grows_mid_walk(self, layout):
        """Each ``.*AB.*CD`` rule's middle ``.*`` joins the core one byte
        after its ``AB``: the walk meets several distinct cores."""
        patterns = parse_many(TestExplosion.EXPLOSIVE)
        nfa = build_nfa(patterns)
        assert sticky_after(nfa, b"ac") < sticky_after(nfa, b"ace")
        assert_same_dfa(build_dfa(patterns), build_dfa_from_nfa_reference(nfa))

    def test_no_sticky_states(self, layout):
        nfa = build_nfa(parse_many(self.ANCHORED))
        assert sticky_states(nfa) == set()
        assert_same_dfa(subset_construct(nfa), build_dfa_from_nfa_reference(nfa))


class TestExplosion:
    EXPLOSIVE = [f".*{a}{b}.*{c}{d}" for a in "ab" for b in "cd" for c in "ef" for d in "gh"]

    def test_state_budget_reason(self):
        nfa = build_nfa(parse_many(self.EXPLOSIVE))
        with pytest.raises(DfaExplosionError) as info:
            subset_construct(nfa, state_budget=50)
        assert info.value.budget == 50
        assert info.value.reason == "states"

    def test_time_budget_reason(self):
        nfa = build_nfa(parse_many(self.EXPLOSIVE))
        with pytest.raises(DfaExplosionError) as info:
            subset_construct(nfa, time_budget=0.0)
        assert info.value.reason == "seconds"

    def test_reasons_surface_through_build_dfa(self):
        patterns = parse_many(self.EXPLOSIVE)
        with pytest.raises(DfaExplosionError) as states_info:
            build_dfa(patterns, state_budget=50)
        assert states_info.value.reason == "states"
        with pytest.raises(DfaExplosionError) as time_info:
            build_dfa(patterns, time_budget=0.0)
        assert time_info.value.reason == "seconds"

    def test_fallback_mode_budget(self, monkeypatch):
        monkeypatch.setattr(bitset_module, "PACKED_LIMIT_BITS", 0)
        nfa = build_nfa(parse_many(self.EXPLOSIVE))
        with pytest.raises(DfaExplosionError) as info:
            subset_construct(nfa, state_budget=50)
        assert info.value.reason == "states"
