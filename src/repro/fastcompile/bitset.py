"""Bitset subset construction: the determinization hot loop as integer ops.

The classic subset walk (kept as
:func:`repro.automata.dfa.build_dfa_from_nfa_reference`) spends nearly all
of its time building Python ``set`` objects — one ``set.update`` per
(subset member, alphabet group) pair, then a ``frozenset`` allocation and
hash per candidate successor.  This module replaces those structures with
Python ints, and resolves per subset only the alphabet groups on which it
can differ from what an earlier subset already resolved:

* an NFA state set is a single int with bit *s* set for member state *s*;
* each NFA state's moves are a sparse ``[(group, target mask)]`` list —
  the groups it has no edge on cost nothing;
* successor memoization keys the ``int`` masks directly — int hashing is a
  fraction of frozenset hashing.

**Sticky core.**  Decomposition leaves every unanchored component with a
``.*`` head that loops to itself on every byte.  Such a *sticky* state,
once in a subset, is in every later subset, and on the split rule sets
sticky states are most of each subset's members.  The walk therefore
splits each subset into ``core = members & sticky`` and the transient
rest.  Cores only grow along a path, so a walk meets few of them (3 on
B217p's component DFA), and per distinct core it memoizes

* the core's OR'd successor key for every group, and
* a *row template*: for each group, the DFA state whose subset is exactly
  the core's key, filled the first time a subset resolves that group to
  that key.

**Delta rows.**  A subset's successor on group *g* is its core's key
unless a transient member moves on *g*.  So a subset copies its core's
template and looks up only the groups its transient members touch plus
the template's still unfilled slots, in ascending group order.  A skipped
group would only have looked up a key an earlier subset already indexed,
which discovers nothing; discovery order — and with it the state
numbering, the dense rows, the decision sets and the points where
``state_budget`` and ``time_budget`` trip — is exactly the reference
walk's, so the DFA is byte-identical to the reference construction
(property-tested).

The group rows live in one flat ``array('i')``; the dense 256-entry rows
are one numpy gather through ``group_of_byte`` per chunk of
:data:`_GATHER_CHUNK` states, so the temporary stays a few MB at any
state budget.  Decision sets are memoized per distinct set of deciding
members.

Budgets: ``state_budget`` trips :class:`DfaExplosionError` with
``reason="states"`` (the default) and ``time_budget`` trips it with
``reason="seconds"``, each reporting the budget as given, at the same
check cadence as the reference walk.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from ..automata.dfa import DEFAULT_STATE_BUDGET, DFA, DfaExplosionError
from ..automata.nfa import NFA

__all__ = ["subset_construct", "move_masks"]

# States per dense-row gather: 4,096 rows of 256 four-byte entries = 4 MB.
_GATHER_CHUNK = 4096


def move_masks(nfa: NFA, representatives: list[int]) -> list[list[int]]:
    """Per-state, per-group successor bitmasks.

    Each distinct edge class is resolved to the groups whose representative
    byte it contains once, not once per edge (edges share few classes).

    Public because the equivalence prover (:mod:`repro.analyze.equivalence`)
    and the ruleset analyzer (:mod:`repro.analyze.ruleset`) reuse the same
    packing for their own subset walks.
    """
    n_groups = len(representatives)
    groups_of: dict[int, list[int]] = {}
    masks: list[list[int]] = []
    for edges in nfa.transitions:
        per_group = [0] * n_groups
        for bits, target in edges:
            groups = groups_of.get(bits)
            if groups is None:
                groups = [g for g, rep in enumerate(representatives) if bits >> rep & 1]
                groups_of[bits] = groups
            bit = 1 << target
            for group in groups:
                per_group[group] |= bit
        masks.append(per_group)
    return masks


def _bits(mask: int) -> list[int]:
    """The set bit positions of ``mask``, lowest first."""
    out: list[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def subset_construct(
    nfa: NFA,
    state_budget: int = DEFAULT_STATE_BUDGET,
    time_budget: float | None = None,
) -> DFA:
    """Determinize ``nfa`` with the bitset core (see the module docstring).

    Drop-in replacement for the reference frozenset walk: same signature,
    same budgets, same exceptions, byte-identical output.
    """
    group_of_byte, representatives = nfa.alphabet_groups()
    group_of_byte = array("i", group_of_byte)
    n_groups = len(representatives)

    moves: list[list[tuple[int, int]]] = []
    sticky = 0
    for state, per_group in enumerate(move_masks(nfa, representatives)):
        bit = 1 << state
        if all(mask & bit for mask in per_group):
            sticky |= bit
        moves.append([(group, mask) for group, mask in enumerate(per_group) if mask])

    # core -> (its OR'd key per group, row template, unfilled template slots)
    cores: dict[int, tuple[list[int], array, set[int]]] = {}

    initial = 0
    for state in nfa.initial:
        initial |= 1 << state
    index_of: dict[int, int] = {initial: 0}
    subsets: list[int] = [initial]
    # subsets[i]'s group row is group_rows[i * n_groups:(i + 1) * n_groups].
    group_rows = array("i")

    started = time.perf_counter()

    # Process subsets in index order; newly discovered subsets are appended
    # in the reference walk's discovery order, which keeps state numbering
    # — and therefore the serialized automaton — byte-identical.
    i = 0
    while i < len(subsets):
        if time_budget is not None and i % 512 == 0 and time.perf_counter() - started > time_budget:
            raise DfaExplosionError(time_budget, "seconds")
        members = subsets[i]
        core = members & sticky
        memo = cores.get(core)
        if memo is None:
            core_keys = [0] * n_groups
            for state in _bits(core):
                for group, mask in moves[state]:
                    core_keys[group] |= mask
            memo = cores[core] = (core_keys, array("i", [-1]) * n_groups, set(range(n_groups)))
        core_keys, template, unfilled = memo
        # The successor key of every group a transient member moves on.
        keys: dict[int, int] = {}
        for state in _bits(members ^ core):
            for group, mask in moves[state]:
                keys[group] = keys.get(group, core_keys[group]) | mask
        base = len(group_rows)
        group_rows += template
        for group in sorted(keys.keys() | unfilled):
            key = keys.get(group, core_keys[group])
            target = index_of.get(key)
            if target is None:
                target = len(subsets)
                if target >= state_budget:
                    raise DfaExplosionError(state_budget)
                index_of[key] = target
                subsets.append(key)
            group_rows[base + group] = target
            if group in unfilled and key == core_keys[group]:
                template[group] = target
                unfilled.discard(group)
        i += 1

    # Expand group rows to dense 256-entry rows, one gather per chunk.
    table = np.frombuffer(group_rows, dtype=np.intc).reshape(-1, n_groups)
    byte_groups = np.frombuffer(group_of_byte, dtype=np.intc)
    rows: list[array] = []
    for start in range(0, len(subsets), _GATHER_CHUNK):
        dense = table[start : start + _GATHER_CHUNK].take(byte_groups, axis=1)
        for entries in dense.view(np.uint8):
            row = array("i")
            row.frombytes(entries)
            rows.append(row)

    # A subset's decisions depend only on its deciding members, so each
    # distinct deciding set is unioned once.
    nfa_accepts = nfa.accepts
    nfa_accepts_end = nfa.accepts_end
    deciding = 0
    for state in range(nfa.n_states):
        if nfa_accepts[state] or nfa_accepts_end[state]:
            deciding |= 1 << state
    decisions: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    accepts: list[tuple[int, ...]] = []
    accepts_end: list[tuple[int, ...]] = []
    for members in subsets:
        key = members & deciding
        pair = decisions.get(key)
        if pair is None:
            acc: set[int] = set()
            acc_end: set[int] = set()
            for state in _bits(key):
                acc.update(nfa_accepts[state])
                acc_end.update(nfa_accepts_end[state])
            pair = decisions[key] = (tuple(sorted(acc)), tuple(sorted(acc_end)))
        accepts.append(pair[0])
        accepts_end.append(pair[1])

    return DFA(
        rows,
        0,
        accepts,
        accepts_end,
        group_of_byte=group_of_byte,
        n_groups=n_groups,
    )
