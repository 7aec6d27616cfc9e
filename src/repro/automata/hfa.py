"""History-based finite automaton — the HASIC/H-FA baseline (paper §II-A).

H-FA (Kumar et al.) and its ASIC-friendly refinement HASIC (Liu, Norige &
Kumar, ICNP 2013) avoid state explosion the same way match filtering does —
auxiliary history bits instead of product states — but attach the
conditions and actions to the *transitions*: taking a transition may
require a history condition to hold and may update the history.  The paper
identifies two consequences this reproduction models faithfully:

* **slower matching** — every input byte must locate the applicable entry
  among the (condition, action) alternatives of its (state, byte) cell,
  instead of a bare table lookup; and
* **larger images** — each transition cell stores a full
  condition/action/next record (32 bytes here) instead of a packed 4-byte
  next-state, which is why the paper measures HFA images ~30x larger than
  MFA's.

Construction reuses the regex splitter to find the history bits (HASIC's
own "critical NFA state" search is approximated by the same decomposition
points), so H-FA state counts track the component DFA's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from ..regex.ast import Pattern
from .dfa import DEFAULT_STATE_BUDGET, build_dfa
from .nfa import MatchEvent

if TYPE_CHECKING:
    from ..core.filters import FilterProgram

__all__ = ["HFA", "HfaEntry", "build_hfa"]


@dataclass(frozen=True, slots=True)
class HfaEntry:
    """One conditional transition record: the H-FA "rule".

    ``cond_mask``/``cond_value`` select the entry (history AND mask must
    equal value); ``set_mask``/``clear_mask`` update the history; ``reports``
    are match-ids emitted when the condition holds.
    """

    cond_mask: int
    cond_value: int
    next_state: int
    set_mask: int
    clear_mask: int
    reports: tuple[int, ...]


class HfaContext:
    """Per-flow H-FA state: automaton state plus the history word."""

    __slots__ = ("state", "history", "offset")

    def __init__(self, hfa: "HFA"):
        self.state = hfa.start
        self.history = 0
        self.offset = 0


class HFA:
    """Executable H-FA: per-(state, byte) lists of conditional entries."""

    def __init__(self, cells: list[list[tuple[HfaEntry, ...]]], start: int, width: int):
        self.cells = cells
        self.start = start
        self.width = width

    @property
    def n_states(self) -> int:
        return len(self.cells)

    # -- streaming (same trio as the MFA, for dispatch/replay drivers) ------

    def new_context(self) -> HfaContext:
        return HfaContext(self)

    def feed(self, context: HfaContext, data: bytes) -> Iterator[MatchEvent]:
        cells = self.cells
        state = context.state
        history = context.history
        base = context.offset
        for pos, byte in enumerate(data):
            for entry in cells[state][byte]:
                if history & entry.cond_mask == entry.cond_value:
                    state = entry.next_state
                    history = (history & ~entry.clear_mask) | entry.set_mask
                    for match_id in entry.reports:
                        yield MatchEvent(base + pos, match_id)
                    break
        context.state = state
        context.history = history
        context.offset = base + len(data)

    def finish(self, context: HfaContext) -> Iterator[MatchEvent]:
        return iter(())

    def memory_bytes(self) -> int:
        """Modelled image size: every (state, byte) cell stores its entry
        records inline at 32 bytes each (condition + action + next)."""
        n_entries = sum(len(cell) for row in self.cells for cell in row)
        return 32 * n_entries + 8 * self.n_states

    def run(self, data: bytes) -> list[MatchEvent]:
        """Collect matches; per byte the engine scans the cell's entries for
        the one whose history condition holds — the H-FA cost model."""
        out: list[MatchEvent] = []
        cells = self.cells
        state = self.start
        history = 0
        for pos, byte in enumerate(data):
            for entry in cells[state][byte]:
                if history & entry.cond_mask == entry.cond_value:
                    state = entry.next_state
                    history = (history & ~entry.clear_mask) | entry.set_mask
                    for match_id in entry.reports:
                        out.append(MatchEvent(pos, match_id))
                    break
        return out

    def scan(self, data: bytes) -> int:
        """Benchmark loop: advance without collecting matches."""
        cells = self.cells
        state = self.start
        history = 0
        for byte in data:
            for entry in cells[state][byte]:
                if history & entry.cond_mask == entry.cond_value:
                    state = entry.next_state
                    history = (history & ~entry.clear_mask) | entry.set_mask
                    break
        return state


def build_hfa(
    patterns: Sequence[Pattern],
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> HFA:
    """Build an H-FA via the decomposition points the splitter finds.

    The component DFA provides the state space; the filter program's
    actions are folded onto the transitions *entering* each deciding state,
    conditioned and split into per-history-value entries exactly as H-FA
    rules are.
    """
    # Local import: core depends on automata, so this edge must be lazy.
    from ..core.splitter import SplitterOptions, split_patterns

    # Offset registers are beyond the pure-bit history model, so counted
    # gaps are compiled intact (correct, at some state cost) rather than
    # silently mis-filtered.
    split = split_patterns(patterns, SplitterOptions(enable_counted_gaps=False))
    dfa = build_dfa(split.components, state_budget=state_budget)
    program = split.program

    # Pre-compute, per DFA state, the entry list template for transitions
    # entering it: conditions/updates derived from its decision set.
    order = {
        match_id: program.action_priority(match_id)
        for acc in dfa.accepts
        for match_id in acc
    }
    per_state: list[tuple[HfaEntry, ...]] = []
    for target in range(dfa.n_states):
        decisions = sorted(dfa.accepts[target], key=lambda i: (order[i], i))
        per_state.append(_entries_for(decisions, target, program))

    cells: list[list[tuple[HfaEntry, ...]]] = []
    for state in range(dfa.n_states):
        row = dfa.rows[state]
        cells.append([per_state[row[byte]] for byte in range(256)])
    return HFA(cells, dfa.start, program.width)


def _entries_for(
    decisions: list[int], target: int, program: "FilterProgram"
) -> tuple[HfaEntry, ...]:
    """Compile a decision set into H-FA entry alternatives.

    With no decisions the cell is a single unconditional entry.  With
    decisions, one entry per relevant combination of tested bits: H-FA must
    enumerate the condition alternatives because the transition taken (and
    its updates/reports) depend on the history value.
    """
    from ..core.filters import NONE

    if not decisions:
        return (HfaEntry(0, 0, target, 0, 0, ()),)

    tested_bits: list[int] = []
    for match_id in decisions:
        action = program.actions.get(match_id)
        if action is not None and action.test != NONE and action.test not in tested_bits:
            tested_bits.append(action.test)

    entries: list[HfaEntry] = []
    for combo in range(1 << len(tested_bits)):
        cond_mask = 0
        cond_value = 0
        for i, bit in enumerate(tested_bits):
            cond_mask |= 1 << bit
            if combo >> i & 1:
                cond_value |= 1 << bit
        set_mask = 0
        clear_mask = 0
        reports: list[int] = []
        for match_id in decisions:
            action = program.actions.get(match_id)
            if action is None:
                if match_id in program.final_ids:
                    reports.append(match_id)
                continue
            if action.test != NONE and not cond_value >> action.test & 1:
                continue
            if action.distance is not None:
                # H-FA history is pure bits; offset registers are beyond its
                # model, so distance-guarded ids are never reported by HFA.
                continue
            if action.set != NONE:
                set_mask |= 1 << action.set
            if action.clear != NONE:
                clear_mask |= 1 << action.clear
            if action.report != NONE:
                reports.append(action.report)
        entries.append(
            HfaEntry(cond_mask, cond_value, target, set_mask, clear_mask, tuple(reports))
        )
    return tuple(entries)
