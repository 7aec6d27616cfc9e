"""Bitset subset construction: the determinization hot loop as integer ops.

The classic subset walk (kept as
:func:`repro.automata.dfa.build_dfa_from_nfa_reference`) spends nearly all
of its time building Python ``set`` objects — one ``set.update`` per
(subset member, alphabet group) pair, then a ``frozenset`` allocation and
hash per candidate successor.  This module replaces every one of those
structures with machine-word-dense Python ints:

* an NFA state set is a single int with bit *s* set for member state *s*;
* each NFA state's successors are precomputed as a **packed move vector** —
  the per-alphabet-group target masks concatenated into one big int, one
  byte-aligned field per group;
* a subset's successors *for every group at once* are then the OR of its
  members' move vectors, after which the combined vector is turned into
  bytes once and each group's target mask is read off its byte slice;
* successor memoization keys the ``int`` masks directly — int hashing is a
  fraction of frozenset hashing.

**Sticky core.**  Decomposition leaves every unanchored component with a
``.*`` head that loops to itself on every byte.  Such a *sticky* state,
once in a subset, is in every later subset, and on the split rule sets
sticky states are over 90% of each subset's members.  The walk therefore
splits each subset into ``core = members & sticky`` and the transient
rest: each distinct core's OR'd moves are computed once and memoized, so
a subset costs one OR per *transient* member only.  Cores only grow along
a path, so a walk meets few of them (3 on B217p's component DFA).
Decision sets are likewise memoized per distinct set of deciding members.

For very large NFAs the packed vectors would get wide (``n_states *
n_groups`` bits per state), so past :data:`PACKED_LIMIT_BITS` of total
table the core falls back to per-group target masks (still ints, still no
sets, still the sticky-core memo).  Both layouts explore subsets in
exactly the reference discovery order, so the resulting DFA is
byte-identical to the reference construction — same state numbering, same
dense rows, same decision sets (property-tested).

Budget semantics are unchanged: ``state_budget`` trips
:class:`DfaExplosionError` with ``reason="states"`` (the default) and
``time_budget`` trips it with ``reason="seconds"``, at the same check
cadence as the reference walk.
"""

from __future__ import annotations

import time
from array import array

from ..automata.dfa import DEFAULT_STATE_BUDGET, DFA, DfaExplosionError
from ..automata.nfa import NFA

__all__ = ["subset_construct", "move_masks", "PACKED_LIMIT_BITS"]

# Total packed-vector table size (bits) above which the core switches to
# the per-group mask layout: n_states * field width * n_groups for the
# full table, the field width being n_states rounded up to whole bytes.
# 2**29 bits is 64 MB of move vectors — far beyond every bundled set.
PACKED_LIMIT_BITS = 1 << 29


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
    n = nfa.n_states
    masks = move_masks(nfa, representatives)

    sticky = 0
    for state, per_group in enumerate(masks):
        bit = 1 << state
        if all(mask & bit for mask in per_group):
            sticky |= bit

    # Fields are whole bytes wide so each group's mask is a byte slice of
    # the combined vector; the padding bits stay zero, so the field values
    # (the successor keys) are the same ints as unpadded fields.
    field = (n + 7) // 8
    packed = n * 8 * field * n_groups <= PACKED_LIMIT_BITS
    if packed:
        vectors: list[int] = []
        for per_group in masks:
            vector = 0
            for group, mask in enumerate(per_group):
                if mask:
                    vector |= mask << (group * 8 * field)
            vectors.append(vector)
        vector_bytes = field * n_groups
        fields = [slice(g * field, (g + 1) * field) for g in range(n_groups)]
        core_vectors: dict[int, int] = {}  # core -> its members' OR'd vector
    else:
        core_masks: dict[int, list[int]] = {}  # core -> OR'd per-group masks

    initial = 0
    for state in nfa.initial:
        initial |= 1 << state
    index_of: dict[int, int] = {initial: 0}
    subsets: list[int] = [initial]
    group_rows: list[array] = []

    deadline = None if time_budget is None else time.perf_counter() + time_budget

    # Process subsets in index order; newly discovered subsets are appended,
    # so group_rows[i] always describes subsets[i] (the discovery order is
    # identical to the reference walk's, which keeps state numbering — and
    # therefore the serialized automaton — byte-identical).
    i = 0
    while i < len(subsets):
        if deadline is not None and i % 512 == 0 and time.perf_counter() > deadline:
            raise DfaExplosionError(int(time_budget), "seconds")
        members = subsets[i]
        core = members & sticky
        transient = _bits(members ^ core)
        row = array("i", [0] * n_groups)
        if packed:
            combined = core_vectors.get(core)
            if combined is None:
                combined = 0
                for state in _bits(core):
                    combined |= vectors[state]
                core_vectors[core] = combined
            for state in transient:
                combined |= vectors[state]
            view = memoryview(combined.to_bytes(vector_bytes, "little"))
            for group, part in enumerate(fields):
                key = int.from_bytes(view[part], "little")
                target = index_of.get(key)
                if target is None:
                    target = len(subsets)
                    if target >= state_budget:
                        raise DfaExplosionError(state_budget)
                    index_of[key] = target
                    subsets.append(key)
                row[group] = target
        else:
            keys = core_masks.get(core)
            if keys is None:
                keys = [0] * n_groups
                for state in _bits(core):
                    for group, mask in enumerate(masks[state]):
                        keys[group] |= mask
                core_masks[core] = keys
            for group in range(n_groups):
                key = keys[group]
                for state in transient:
                    key |= masks[state][group]
                target = index_of.get(key)
                if target is None:
                    target = len(subsets)
                    if target >= state_budget:
                        raise DfaExplosionError(state_budget)
                    index_of[key] = target
                    subsets.append(key)
                row[group] = target
        group_rows.append(row)
        i += 1

    # Expand compressed rows to dense 256-entry rows and collect decisions.
    # A subset's decisions depend only on its deciding members, so each
    # distinct deciding set is unioned once.
    nfa_accepts = nfa.accepts
    nfa_accepts_end = nfa.accepts_end
    deciding = 0
    for state in range(n):
        if nfa_accepts[state] or nfa_accepts_end[state]:
            deciding |= 1 << state
    decisions: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    rows: list[array] = []
    accepts: list[tuple[int, ...]] = []
    accepts_end: list[tuple[int, ...]] = []
    for members, group_row in zip(subsets, group_rows):
        rows.append(array("i", map(group_row.__getitem__, group_of_byte)))
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
