"""The stateful match-filter engine (paper §III-A, §IV-C).

Each match-id arriving from the DFA triggers one *action*.  The paper
encodes actions as a 4-integer bytecode: ``(test, set, clear, report)`` —
the memory bit that must be set for the action to take effect, the bit to
set, the bit to clear, and the match-id to report (each ``-1`` for "none").
Set and clear are mutually exclusive in generated programs, and merged
actions like "Test bit 1 to set bit 2" arise naturally from chained
dot-star decompositions.

Beyond the paper's evaluated construction, this module implements the
*offset-tracking* extension sketched in its future-work section (counting
constraints like ``.*A.{n,m}B``): a small set of window registers remembers
at which recent offsets a sub-pattern ended, as a shifted bitmask, and a
distance test checks whether any remembered offset lands in ``[lo, hi]``.

The engine is deliberately tiny: per event it does a handful of integer
operations, mirroring the "few CPU instructions" implementation the paper
argues for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "NONE",
    "FilterAction",
    "FilterProgram",
    "FilterState",
    "FilterEngine",
]

NONE = -1

# Window registers remember sub-pattern end offsets this many bytes back.
# 256 bits is one cache line of state per register and covers every counted
# gap the splitter will decompose.
WINDOW_BITS = 256
_WINDOW_MASK = (1 << WINDOW_BITS) - 1


@dataclass(frozen=True, slots=True)
class FilterAction:
    """One bytecode action, triggered by a single match-id.

    Bit plane (the paper's evaluated construction):

    * ``test`` — memory bit that must be 1 for the action to take effect
    * ``set`` / ``clear`` — memory bit to flip when the action takes effect
    * ``report`` — match-id to confirm when the action takes effect

    Offset plane (future-work extension):

    * ``record`` — window register in which to record "ended here"
    * ``distance`` — ``(register, lo, hi)``: take effect only when the
      register remembers an end at distance d with ``lo <= d <= hi``;
      ``hi=None`` means unbounded (records older than the window saturate
      into a per-register sticky bit, so nothing is forgotten)
    """

    test: int = NONE
    set: int = NONE
    clear: int = NONE
    report: int = NONE
    record: int = NONE
    distance: Optional[tuple[int, int, Optional[int]]] = None

    def __post_init__(self) -> None:
        if self.set != NONE and self.set == self.clear:
            raise ValueError("an action cannot set and clear the same bit")
        if self.distance is not None:
            reg, lo, hi = self.distance
            if hi is None:
                if not 0 <= lo < WINDOW_BITS:
                    raise ValueError(f"open distance window [{lo},) out of range")
            elif not (0 <= lo <= hi < WINDOW_BITS):
                raise ValueError(f"distance window [{lo},{hi}] out of range")

    def describe(self) -> str:
        """Human-readable form matching the paper's prose (e.g. Table III)."""
        conditions = []
        if self.test != NONE:
            conditions.append(f"Test {self.test}")
        if self.distance is not None:
            reg, lo, hi = self.distance
            if hi is None:
                span = f"{lo}+"
            elif lo == hi:
                span = str(lo)
            else:
                span = f"{lo}..{hi}"
            conditions.append(f"Dist r{reg} in {span}")
        effects = []
        if self.set != NONE:
            effects.append(f"Set {self.set}")
        if self.clear != NONE:
            effects.append(f"Clear {self.clear}")
        if self.record != NONE:
            effects.append(f"Record r{self.record}")
        if self.report != NONE:
            effects.append("Match")
        effect = ", ".join(effects) if effects else "Nop"
        if conditions:
            return f"{' and '.join(conditions)} to {effect}"
        return effect


@dataclass(frozen=True)
class FilterProgram:
    """A complete filter: one action per filtered match-id.

    ``actions`` maps match-id -> action.  ``width`` is w, the number of
    memory bits; ``n_registers`` the number of offset windows.  ``final_ids``
    is D, the set of original pattern ids that may ever be confirmed —
    everything else is always dropped (paper's D_i \\ D).
    """

    actions: dict[int, FilterAction]
    width: int
    n_registers: int = 0
    final_ids: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        for match_id, action in self.actions.items():
            for bit in (action.test, action.set, action.clear):
                if bit != NONE and not 0 <= bit < self.width:
                    raise ValueError(f"action for id {match_id} uses bit {bit} >= width")
            if action.record != NONE and action.record >= self.n_registers:
                raise ValueError(f"action for id {match_id} uses register {action.record}")
            if action.distance is not None and action.distance[0] >= self.n_registers:
                raise ValueError(f"action for id {match_id} tests register {action.distance[0]}")
            if action.report != NONE and action.report not in self.final_ids:
                raise ValueError(
                    f"action for id {match_id} reports {action.report}, not in final set"
                )

    @classmethod
    def empty(cls) -> "FilterProgram":
        return cls(actions={}, width=0, n_registers=0, final_ids=frozenset())

    @classmethod
    def passthrough(cls, final_ids: Iterable[int]) -> "FilterProgram":
        """A program that confirms the given ids unconditionally."""
        ids = frozenset(final_ids)
        return cls(
            actions={i: FilterAction(report=i) for i in ids},
            width=0,
            n_registers=0,
            final_ids=ids,
        )

    def merged_with(self, other: "FilterProgram") -> "FilterProgram":
        """Combine two programs (paper §III-C: concatenate action tables,
        shifting the second program's memory so bit uses don't overlap)."""
        overlap = set(self.actions) & set(other.actions)
        if overlap:
            raise ValueError(f"programs share match-ids: {sorted(overlap)}")
        shifted = {
            match_id: _shift_action(action, self.width, self.n_registers)
            for match_id, action in other.actions.items()
        }
        return FilterProgram(
            actions={**self.actions, **shifted},
            width=self.width + other.width,
            n_registers=self.n_registers + other.n_registers,
            final_ids=self.final_ids | other.final_ids,
        )

    def memory_bytes(self) -> int:
        """Modelled image size: 4 ints of 4 bytes per action plus the
        extension fields when used, and a small id->action index."""
        size = 0
        for action in self.actions.values():
            size += 16
            if action.record != NONE or action.distance is not None:
                size += 16
        return size + 8 * len(self.actions)

    def describe(self) -> list[str]:
        """The program as paper-style lines, sorted by match-id."""
        return [
            f"{match_id}: {action.describe()}"
            for match_id, action in sorted(self.actions.items())
        ]

    def action_priority(self, match_id: int) -> int:
        """Deterministic same-position ordering (clears < sets < tests).

        The paper notes that multi-match positions make action order
        observable and that its construction must avoid ambiguity.  Our
        construction guarantees set-vs-test collisions cannot happen (the
        strengthened overlap test) and resolves clear-vs-set collisions —
        possible with the coalesced clear mitigation — in favour of the
        set, by running clears first.
        """
        action = self.actions.get(match_id)
        if action is None:
            return 2
        if action.report != NONE:
            return 2
        if action.clear != NONE and action.set == NONE and action.record == NONE:
            return 0
        return 1


def _shift_action(action: FilterAction, bit_offset: int, reg_offset: int) -> FilterAction:
    def bump(bit: int) -> int:
        return bit + bit_offset if bit != NONE else NONE

    distance = action.distance
    if distance is not None:
        distance = (distance[0] + reg_offset, distance[1], distance[2])
    record = action.record + reg_offset if action.record != NONE else NONE
    return FilterAction(
        test=bump(action.test),
        set=bump(action.set),
        clear=bump(action.clear),
        report=action.report,
        record=record,
        distance=distance,
    )


class FilterState:
    """Per-flow filter memory: w bits plus the offset registers.

    The paper keeps a ``(q, m)`` pair per flow; this is the ``m`` half.
    Registers store ``(mask, last_pos)`` where bit i of ``mask`` means "a
    recorded end happened i bytes before ``last_pos``".  ``sticky`` has bit
    r set once register r has had a record age past the window — "there was
    an end at least WINDOW_BITS bytes ago" — which is what open-ended
    distance tests saturate into.
    """

    __slots__ = ("bits", "registers", "sticky")

    def __init__(self, n_registers: int = 0):
        self.bits = 0
        self.sticky = 0
        self.registers: list[tuple[int, int]] = [(0, -1)] * n_registers

    def clone(self) -> "FilterState":
        copy = FilterState.__new__(FilterState)
        copy.bits = self.bits
        copy.sticky = self.sticky
        copy.registers = list(self.registers)
        return copy

    def __repr__(self) -> str:
        return (
            f"FilterState(bits={self.bits:#x}, registers={self.registers!r}, "
            f"sticky={self.sticky:#x})"
        )


class FilterEngine:
    """Executes a :class:`FilterProgram` over a stream of match events."""

    def __init__(self, program: FilterProgram):
        self.program = program
        self._actions = program.actions

    def new_state(self) -> FilterState:
        return FilterState(self.program.n_registers)

    def process(self, state: FilterState, pos: int, match_id: int) -> int:
        """Run the action for one event; returns the confirmed id or NONE."""
        action = self._actions.get(match_id)
        if action is None:
            # Ids with no action pass through when final, drop otherwise.
            if match_id in self.program.final_ids:
                return match_id
            return NONE
        # Condition plane.
        if action.test != NONE and not state.bits >> action.test & 1:
            return NONE
        if action.distance is not None:
            reg, lo, hi = action.distance
            mask = self._aged_mask(state, reg, pos)
            if hi is None:
                # Open window: any record at distance >= lo, or one that
                # already saturated out of the window.
                if not (mask >> lo) and not (state.sticky >> reg & 1):
                    return NONE
            else:
                window = ((1 << (hi - lo + 1)) - 1) << lo
                if not mask & window:
                    return NONE
        # Effect plane.
        if action.set != NONE:
            state.bits |= 1 << action.set
        if action.clear != NONE:
            state.bits &= ~(1 << action.clear)
        if action.record != NONE:
            reg = action.record
            mask = self._aged_mask(state, reg, pos)
            state.registers[reg] = (mask | 1, pos)
        return action.report

    def _aged_mask(self, state: FilterState, reg: int, pos: int) -> int:
        """Shift a register's mask forward to the current position.

        Records shifted beyond the window saturate into the register's
        sticky bit (they are "at least WINDOW_BITS old" from then on).
        """
        mask, last_pos = state.registers[reg]
        if last_pos < 0 or not mask:
            return 0
        delta = pos - last_pos
        if delta >= WINDOW_BITS:
            state.sticky |= 1 << reg
            state.registers[reg] = (0, pos)
            return 0
        aged = mask << delta
        if aged > _WINDOW_MASK:
            state.sticky |= 1 << reg
            aged &= _WINDOW_MASK
        state.registers[reg] = (aged, pos)
        return aged
