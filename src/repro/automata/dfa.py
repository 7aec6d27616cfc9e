"""Deterministic finite automata: subset construction and the table engine.

The DFA is both the paper's fastest baseline and the matching core inside
every MFA.  Construction uses the classic subset algorithm with *alphabet
compression*: bytes that every edge class treats identically are grouped, so
each subset is expanded once per alphabet group instead of 256 times.  The
runtime table is still dense (one row of 256 targets per state, as an
``array('i')`` row) because the per-byte hot loop must be a plain indexed
lookup — exactly the trade the paper describes.

Construction takes a state budget and raises :class:`DfaExplosionError` when
subset construction exceeds it; this models the paper's observation that the
B217p pattern set "could not be constructed as a DFA".
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..regex.ast import Pattern
from .nfa import NFA, MatchEvent, build_nfa

__all__ = [
    "DFA",
    "DfaContext",
    "DfaExplosionError",
    "build_dfa",
    "build_dfa_from_nfa",
    "build_dfa_from_nfa_reference",
    "alphabet_groups",
    "DEFAULT_STATE_BUDGET",
]

DEFAULT_STATE_BUDGET = 250_000


class DfaExplosionError(RuntimeError):
    """Subset construction exceeded its state or time budget.

    Models the paper's "pattern set B217p could not be constructed as a
    DFA": past a resource budget the engine gives up rather than thrash.
    """

    def __init__(self, budget: int | float, reason: str = "states"):
        super().__init__(
            f"DFA subset construction exceeded the budget of {budget} {reason}"
        )
        self.budget = budget
        self.reason = reason


def alphabet_groups(nfa: NFA) -> tuple[array, list[int]]:
    """Partition the 256 byte values into equivalence groups.

    Two bytes are equivalent when every edge class in the NFA either contains
    both or neither; a DFA transition can only ever distinguish inequivalent
    bytes.  Returns ``(group_of_byte, representatives)`` where
    ``group_of_byte`` maps each byte to its group id and ``representatives``
    holds one sample byte per group.

    The partition is computed (once) and cached on the NFA — see
    :meth:`repro.automata.nfa.NFA.alphabet_groups`.  A fresh copy of the
    byte map is returned so callers may hand it to a DFA without sharing
    mutable state.
    """
    group_of_byte, representatives = nfa.alphabet_groups()
    return array("i", group_of_byte), list(representatives)


class DfaContext:
    """Per-flow DFA state for the streaming interface."""

    __slots__ = ("state", "offset")

    def __init__(self, dfa: "DFA"):
        self.state = dfa.start
        self.offset = 0


class DFA:
    """Dense-table DFA with multi-match decision sets.

    ``rows[q][c]`` is the next state from ``q`` on byte ``c``.  ``accepts[q]``
    is the (possibly empty) tuple of match-ids reported whenever state ``q``
    is entered; ``accepts_end[q]`` are ids reported only when ``q`` is the
    state after the final payload byte (``$``-anchored patterns).
    """

    def __init__(
        self,
        rows: list[array],
        start: int,
        accepts: list[tuple[int, ...]],
        accepts_end: list[tuple[int, ...]],
        group_of_byte: array | None = None,
        n_groups: int | None = None,
    ):
        self.rows = rows
        self.start = start
        self.accepts = accepts
        self.accepts_end = accepts_end
        # Alphabet-compression provenance: byte -> equivalence group, kept
        # from subset construction so the image accounting (and vectorized
        # engines) can use the byte-class compressed table layout.
        self.group_of_byte = group_of_byte
        self.n_groups = n_groups if n_groups is not None else (
            len(set(group_of_byte)) if group_of_byte is not None else None
        )
        # Hot-loop accelerators: one (row, decisions) pair per state, so the
        # per-byte loop resolves the next state's row and decision set with a
        # single list index, and an engine-wide flag for the common
        # benign-traffic case where no state ever reports.
        self._steps: list[tuple[array, tuple[int, ...]]] = list(zip(rows, accepts))
        self._has_accepts = any(accepts)

    @property
    def n_states(self) -> int:
        return len(self.rows)

    def memory_bytes(self, compressed: bool | None = None) -> int:
        """Modelled image size: 4-byte dense entries plus decision lists.

        Matches the paper's accounting (e.g. a ~244k-state DFA at 250 MB is
        ~1 KB/state, i.e. 256 four-byte entries).

        ``compressed=True`` models the byte-class compressed layout instead
        — one row of ``n_groups`` entries per state plus a shared 256-byte
        byte->group map — which is how engines built with alphabet
        compression actually store their tables.  ``compressed=None`` keeps
        the dense accounting unless the caller opted in (dense is what the
        paper reports for the plain-DFA baseline).  A DFA with no recorded
        group map falls back to dense accounting.
        """
        decisions = sum(len(a) for a in self.accepts) + sum(len(a) for a in self.accepts_end)
        if compressed and self.n_groups is not None and self.n_groups < 256:
            # Per state: n_groups entries * 4B + a 4B decision-list offset;
            # plus the shared one-byte-per-byte indirection map.
            return self.n_states * (self.n_groups * 4 + 4) + 256 + 4 * decisions
        # Per state: 256 entries * 4B + a 4B decision-list offset.
        return self.n_states * (256 * 4 + 4) + 4 * decisions

    # -- execution -----------------------------------------------------------

    def run(self, data: bytes) -> list[MatchEvent]:
        """Collect every match event over ``data``."""
        out: list[MatchEvent] = []
        if not self._has_accepts:
            # No state ever reports mid-stream: a pure table walk suffices.
            state = self.scan(data)
        else:
            steps = self._steps
            state = self.start
            row, acc = steps[state]
            append = out.append
            for pos, byte in enumerate(data):
                state = row[byte]
                row, acc = steps[state]
                if acc:
                    for match_id in acc:
                        append(MatchEvent(pos, match_id))
        if data:
            for match_id in self.accepts_end[state]:
                out.append(MatchEvent(len(data) - 1, match_id))
        return out

    def iter_matches(self, data: bytes) -> Iterator[MatchEvent]:
        yield from self.run(data)

    def scan(self, data: bytes, state: Optional[int] = None) -> int:
        """Advance through ``data`` without collecting matches.

        This is the benchmark inner loop — the pure table-walk cost that the
        paper's cycles-per-byte numbers measure on non-matching traffic.
        Returns the final state so streaming callers can continue.
        """
        rows = self.rows
        current = self.start if state is None else state
        for byte in data:
            current = rows[current][byte]
        return current

    # -- streaming (same trio as the MFA, for dispatch/replay drivers) ------

    def new_context(self) -> "DfaContext":
        return DfaContext(self)

    def feed(self, context: "DfaContext", data: bytes) -> Iterator[MatchEvent]:
        state = context.state
        base = context.offset
        if not self._has_accepts:
            context.state = self.scan(data, state)
            context.offset = base + len(data)
            return
        steps = self._steps
        row, acc = steps[state]
        for pos, byte in enumerate(data):
            state = row[byte]
            row, acc = steps[state]
            if acc:
                absolute = base + pos
                for match_id in acc:
                    yield MatchEvent(absolute, match_id)
        context.state = state
        context.offset = base + len(data)

    def finish(self, context: "DfaContext") -> Iterator[MatchEvent]:
        if context.offset:
            for match_id in self.accepts_end[context.state]:
                yield MatchEvent(context.offset - 1, match_id)

    def final_states(self) -> list[int]:
        """States with a non-empty decision set."""
        return [q for q, acc in enumerate(self.accepts) if acc]


def build_dfa(
    patterns: Sequence[Pattern],
    state_budget: int = DEFAULT_STATE_BUDGET,
    time_budget: float | None = None,
) -> DFA:
    """Compile a rule set straight to a DFA (the paper's DFA baseline)."""
    return build_dfa_from_nfa(
        build_nfa(patterns), state_budget=state_budget, time_budget=time_budget
    )


def build_dfa_from_nfa(
    nfa: NFA,
    state_budget: int = DEFAULT_STATE_BUDGET,
    time_budget: float | None = None,
) -> DFA:
    """Subset construction with alphabet compression and resource budgets.

    ``time_budget`` (seconds of wall time, checked periodically) bounds the
    pathological sets whose subsets are individually expensive enough that
    the state budget alone would take minutes to trip.

    The walk itself is the bitset core of :mod:`repro.fastcompile.bitset`:
    NFA state sets are Python ints, each subset starts from its sticky
    core's memoized row and resolves only the alphabet groups its other
    members move on, and the dense rows come from one numpy gather per
    chunk of states — tens of times faster than the classic frozenset
    expansion on the large sets.  The frozenset version is retained as
    :func:`build_dfa_from_nfa_reference` for equivalence tests and the
    construction benchmark's pre-optimization baseline.  Both produce
    byte-identical automata (same state numbering, same tables) and trip
    their budgets at the same subset.
    """
    from ..fastcompile.bitset import subset_construct

    return subset_construct(nfa, state_budget=state_budget, time_budget=time_budget)


def build_dfa_from_nfa_reference(
    nfa: NFA,
    state_budget: int = DEFAULT_STATE_BUDGET,
    time_budget: float | None = None,
) -> DFA:
    """The classic frozenset-of-states subset construction (pre-bitset).

    Kept as the reference implementation: equivalence tests assert the
    bitset core reproduces its output exactly, and
    ``benchmarks/bench_construction.py`` uses it as the single-core
    baseline its speedups are measured against.
    """
    group_of_byte, representatives = alphabet_groups(nfa)
    n_groups = len(representatives)

    # Pre-compute, for each NFA state, its target tuple per alphabet group.
    moves: list[list[tuple[int, ...]]] = []
    for edges in nfa.transitions:
        per_group: list[tuple[int, ...]] = []
        for rep in representatives:
            bit = 1 << rep
            per_group.append(tuple(t for bits, t in edges if bits & bit))
        moves.append(per_group)

    initial = frozenset(nfa.initial)
    index_of: dict[frozenset[int], int] = {initial: 0}
    subsets: list[frozenset[int]] = [initial]
    group_rows: list[array] = []

    started = time.perf_counter()

    # Process subsets in index order; newly discovered subsets are appended,
    # so group_rows[i] always describes subsets[i].
    i = 0
    while i < len(subsets):
        if time_budget is not None and i % 512 == 0 and time.perf_counter() - started > time_budget:
            raise DfaExplosionError(time_budget, "seconds")
        subset = subsets[i]
        row = array("i", [0] * n_groups)
        for group in range(n_groups):
            # Plain NFA move — no initial-state re-seeding (unanchored
            # patterns self-loop via their ``.*`` prefix; anchored ones die).
            nxt: set[int] = set()
            for state in subset:
                nxt.update(moves[state][group])
            key = frozenset(nxt)
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
    rows: list[array] = []
    accepts: list[tuple[int, ...]] = []
    accepts_end: list[tuple[int, ...]] = []
    for subset, group_row in zip(subsets, group_rows):
        rows.append(array("i", [group_row[group_of_byte[byte]] for byte in range(256)]))
        acc: set[int] = set()
        acc_end: set[int] = set()
        for state in subset:
            acc.update(nfa.accepts[state])
            acc_end.update(nfa.accepts_end[state])
        accepts.append(tuple(sorted(acc)))
        accepts_end.append(tuple(sorted(acc_end)))

    return DFA(
        rows,
        0,
        accepts,
        accepts_end,
        group_of_byte=group_of_byte,
        n_groups=n_groups,
    )
