"""Bitset subset construction: equivalence with the reference walk.

The bitset core replaced the frozenset walk *behind the same API*, so the
contract is strong: byte-identical automata — same state numbering, same
rows, same decision sets — plus identical budget/explosion semantics for
both the ``states`` and ``seconds`` reasons.
"""

import hashlib
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.automata.dfa as dfa_module
import repro.fastcompile.bitset as bitset_module
from repro.automata.dfa import DfaExplosionError, build_dfa, build_dfa_from_nfa_reference
from repro.automata.nfa import NFA, build_nfa
from repro.automata.serialize import dumps_dfa
from repro.core import compile_mfa
from repro.core.serialize import dumps_mfa
from repro.fastcompile.bitset import move_masks, subset_construct
from repro.patterns import ruleset, ruleset_names
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


def group_rows(dfa):
    """Each state's row with one entry per alphabet group, read at the
    group's first byte."""
    first: dict[int, int] = {}
    for byte, group in enumerate(dfa.group_of_byte):
        first.setdefault(group, byte)
    return [[row[first[group]] for group in range(dfa.n_groups)] for row in dfa.rows]


def assert_same_image(got, want):
    """The packed image — dense rows of 256 four-byte entries — byte for byte."""
    assert all(row.typecode == "i" for row in got.rows)
    assert dumps_dfa(got) == dumps_dfa(want)


def assert_same_group_rows(got, want):
    """The per-group rows the walk resolves, and their dense expansion
    through ``group_of_byte``."""
    assert got.n_groups == want.n_groups
    assert list(got.group_of_byte) == list(want.group_of_byte)
    per_group = group_rows(got)
    assert per_group == group_rows(want)
    assert [list(row) for row in got.rows] == [
        [row[group] for group in got.group_of_byte] for row in per_group
    ]
    assert (got.start, got.accepts, got.accepts_end) == (
        want.start,
        want.accepts,
        want.accepts_end,
    )


@pytest.fixture(params=["packed", "per-group"])
def same_in_layout(request):
    """Compare with the reference in one of the walk's two table layouts."""
    return assert_same_image if request.param == "packed" else assert_same_group_rows


def outcome(walk, nfa, **budgets):
    """The walk's automaton, or the ``(budget, reason)`` of its explosion."""
    try:
        return walk(nfa, **budgets)
    except DfaExplosionError as exc:
        return (exc.budget, exc.reason)


def assert_same_outcome(nfa, **budgets):
    got = outcome(subset_construct, nfa, **budgets)
    want = outcome(build_dfa_from_nfa_reference, nfa, **budgets)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_dfa(got, want)
    return want


def ticking_clock():
    """A ``time`` stand-in whose ``perf_counter`` advances one second per read."""
    return SimpleNamespace(perf_counter=itertools.count(1.0).__next__)


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


LOOPY_PIECES = ["a", "b", "x", "[ab]", "[^x]*", "b?", "(a|bx)", ".*"]


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

    @given(node_trees, node_trees)
    @settings(max_examples=60, deadline=None)
    def test_random_patterns_identical(self, tree_a, tree_b):
        nfa = build_nfa([Pattern(tree_a, match_id=1), Pattern(tree_b, match_id=2)])
        assert_same_dfa(
            subset_construct(nfa), build_dfa_from_nfa_reference(nfa)
        )

    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.sampled_from(LOOPY_PIECES), min_size=1, max_size=5),
                st.booleans(),
            ),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_unsplit_loopy_sets_identical(self, specs):
        """Whole multi-pattern sets, not split into components: anchors
        and ``[^x]*`` loops give few sticky states and many transient ones,
        so most of a subset's groups come from the transient delta."""
        rules = [
            ("^" if head else "") + "".join(pieces) + ("$" if tail else "")
            for head, pieces, tail in specs
        ]
        assert_same_outcome(build_nfa(parse_many(rules)), state_budget=2_000)


class TestStickyCore:
    """The walk memoizes the moves of each subset's sticky core (states
    with a full self-loop); the reference walk is the oracle for every
    shape of core: growing, absent."""

    ANCHORED = ["^GET /[a-z]+", "^abc[0-9]{2}x", "^(foo|bar)+baz$", "^[^\\n]*evil"]

    def test_core_grows_mid_walk(self, same_in_layout):
        """Each ``.*AB.*CD`` rule's middle ``.*`` joins the core one byte
        after its ``AB``: the walk meets several distinct cores."""
        patterns = parse_many(TestExplosion.EXPLOSIVE)
        nfa = build_nfa(patterns)
        assert sticky_after(nfa, b"ac") < sticky_after(nfa, b"ace")
        same_in_layout(build_dfa(patterns), build_dfa_from_nfa_reference(nfa))

    def test_no_sticky_states(self, same_in_layout):
        nfa = build_nfa(parse_many(self.ANCHORED))
        assert sticky_states(nfa) == set()
        same_in_layout(subset_construct(nfa), build_dfa_from_nfa_reference(nfa))

    def test_template_slot_filled_lazily(self):
        """Core ``{0}`` is first met in ``{0, 1}``, whose transient state 1
        moves on ``a``: that group's template slot stays empty until the
        bare core ``{0}`` resolves it, and ``{0, 2}`` then takes ``a`` from
        the template while resolving ``b`` itself."""
        everything = (1 << 256) - 1
        nfa = NFA(
            [[(everything, 0)], [(1 << ord("a"), 2)], [(1 << ord("b"), 3)], []],
            (0, 1),
            [(), (), (), (7,)],
            [(), (), (5,), ()],
        )
        assert sticky_states(nfa) == {0}
        dfa = subset_construct(nfa)
        assert_same_dfa(dfa, build_dfa_from_nfa_reference(nfa))
        # States: 0 = {0, 1}, 1 = {0}, 2 = {0, 2}, 3 = {0, 3}.
        assert [[row[byte] for byte in b"-ab"] for row in dfa.rows] == [
            [1, 2, 1],
            [1, 1, 1],
            [1, 1, 3],
            [1, 1, 1],
        ]
        assert dfa.accepts == [(), (), (), (7,)]
        assert dfa.accepts_end == [(), (), (5,), ()]


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

    @pytest.mark.parametrize("walk", [subset_construct, build_dfa_from_nfa_reference])
    def test_fractional_time_budget_kept(self, walk, monkeypatch):
        """The budget a ``seconds`` explosion reports is the float it was
        given, not its truncation."""
        monkeypatch.setattr(bitset_module, "time", ticking_clock())
        monkeypatch.setattr(dfa_module, "time", ticking_clock())
        nfa = build_nfa(parse_many(self.EXPLOSIVE))
        with pytest.raises(DfaExplosionError) as info:
            walk(nfa, time_budget=0.5)
        assert info.value.budget == 0.5
        assert info.value.reason == "seconds"
        assert "budget of 0.5 seconds" in str(info.value)

    def test_time_budget_trips_at_the_same_check(self, monkeypatch):
        """The clock is read once before the walk and once every 512
        subsets, in both walks: a budget of 1.5 ticks lets the check at
        subset 0 pass and trips the one at subset 512, so only an
        automaton of more than 512 states explodes."""
        monkeypatch.setattr(bitset_module, "time", ticking_clock())
        monkeypatch.setattr(dfa_module, "time", ticking_clock())
        small = build_nfa(parse_many(self.EXPLOSIVE))
        assert isinstance(assert_same_outcome(small, time_budget=1.5), dfa_module.DFA)
        wide = build_nfa(parse_many(self.EXPLOSIVE + [".*ij.*kl", ".*mn.*op"]))
        assert assert_same_outcome(wide, time_budget=1.5) == (1.5, "seconds")

    def test_every_state_budget_trips_where_the_reference_does(self):
        """For each budget below the DFA's size both walks raise it at the
        same discovery; at the size both return the same automaton."""
        nfa = build_nfa(parse_many(self.EXPLOSIVE))
        n_states = build_dfa_from_nfa_reference(nfa).n_states
        for budget in range(1, n_states + 1):
            want = assert_same_outcome(nfa, state_budget=budget)
            if budget < n_states:
                assert want == (budget, "states")
            else:
                assert want.n_states == n_states

    def test_reasons_surface_through_build_dfa(self):
        patterns = parse_many(self.EXPLOSIVE)
        with pytest.raises(DfaExplosionError) as states_info:
            build_dfa(patterns, state_budget=50)
        assert states_info.value.reason == "states"
        with pytest.raises(DfaExplosionError) as time_info:
            build_dfa(patterns, time_budget=0.0)
        assert time_info.value.reason == "seconds"


# sha256 of ``dumps_mfa(compile_mfa(rules))`` per tracked rule set, computed
# with the per-group walk the delta-row walk replaced.  Any change to
# subset construction must leave every shipped artifact byte-identical.
PINNED_ARTIFACTS = {
    "B217p": "58c2d0adddf4fcdc1dd6eaf1865cb911f972a00a2596e01cc5a5c51cab4d8f73",
    "C7p": "0333b9479a3ac932db60c0156b07389a99b01ab1e742ae863c6d6b5a9904ec96",
    "C8": "8787bb7f88de174d80504e743e5ac7ac544cb2c414728457ee6073ed9d09c512",
    "C10": "20cb348cdabbb9127adb3ad00b3dede16b6b2a633adac02b52b7bb277a0924e0",
    "S24": "65fd58c5057f84d7c9bcc37488097eea2230903fc6bf0c96d6e34469eff7b84a",
    "S31p": "a4d8a5db5d602b5b9db340409bc943fd4a2343d735c8d78e25d68674a6588a73",
    "S34": "c5bdd7a69c63cfa16bd0488d61636bff0645efbb82bccb12b8036525c827cde5",
}


def test_pins_cover_every_tracked_set():
    assert sorted(PINNED_ARTIFACTS) == sorted(ruleset_names())


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
def test_tracked_artifact_unchanged(name):
    blob = dumps_mfa(compile_mfa(list(ruleset(name).rules)))
    assert hashlib.sha256(blob).hexdigest() == PINNED_ARTIFACTS[name]
