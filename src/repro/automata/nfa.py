"""Nondeterministic finite automata over byte payloads.

Two layers live here:

* a Thompson construction from :mod:`repro.regex.ast` trees, producing an
  ε-NFA fragment per pattern that a union step combines into one machine,
  followed by ε-elimination into the compact form every other automaton in
  this package is built from;
* an active-set simulation engine — the paper's NFA baseline, whose cost
  per byte grows with the number of simultaneously active states.

Matching semantics are the paper's: a pattern reports its match-id at every
payload position where some substring ending there matches.  Unanchored
patterns get a ``.*`` prefix at construction, so the machine itself never
needs restart logic.  End-anchored (``$``) patterns report only at the final
payload byte; their ids are kept in a separate decision set.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..regex import ast
from ..regex.ast import ClassNode, Alt, Concat, Empty, Node, Pattern, Repeat
from ..regex.charclass import CharClass

__all__ = ["NFA", "NfaContext", "build_nfa", "MatchEvent"]


@dataclass(frozen=True, slots=True, order=True)
class MatchEvent:
    """A reported match: ``pos`` is the index of the *last* matched byte."""

    pos: int
    match_id: int


class _Builder:
    """Mutable ε-NFA under construction (Thompson style)."""

    def __init__(self) -> None:
        self.transitions: list[list[tuple[CharClass, int]]] = []
        self.epsilons: list[list[int]] = []
        self.accepts: list[set[int]] = []
        self.accepts_end: list[set[int]] = []

    def new_state(self) -> int:
        self.transitions.append([])
        self.epsilons.append([])
        self.accepts.append(set())
        self.accepts_end.append(set())
        return len(self.transitions) - 1

    def add_edge(self, src: int, klass: CharClass, dst: int) -> None:
        self.transitions[src].append((klass, dst))

    def add_eps(self, src: int, dst: int) -> None:
        self.epsilons[src].append(dst)

    # -- Thompson fragments --------------------------------------------------

    def fragment(self, node: Node) -> tuple[int, int]:
        """Compile ``node`` to a fragment, returning (entry, exit) states."""
        if isinstance(node, Empty):
            q = self.new_state()
            return q, q
        if isinstance(node, ClassNode):
            a, b = self.new_state(), self.new_state()
            self.add_edge(a, node.cls, b)
            return a, b
        if isinstance(node, Concat):
            entry, out = self.fragment(node.parts[0])
            for part in node.parts[1:]:
                nxt_in, nxt_out = self.fragment(part)
                self.add_eps(out, nxt_in)
                out = nxt_out
            return entry, out
        if isinstance(node, Alt):
            entry, out = self.new_state(), self.new_state()
            for option in node.options:
                o_in, o_out = self.fragment(option)
                self.add_eps(entry, o_in)
                self.add_eps(o_out, out)
            return entry, out
        if isinstance(node, Repeat):
            return self._repeat_fragment(node)
        raise TypeError(f"unknown node type: {type(node).__name__}")

    def _repeat_fragment(self, node: Repeat) -> tuple[int, int]:
        lo, hi = node.min, node.max
        if hi is None:
            # child{lo,} == child^lo followed by child*
            entry = out = self.new_state()
            for _ in range(lo):
                c_in, c_out = self.fragment(node.child)
                self.add_eps(out, c_in)
                out = c_out
            star_in, star_out = self.fragment(node.child)
            hub = self.new_state()
            self.add_eps(out, hub)
            self.add_eps(hub, star_in)
            self.add_eps(star_out, hub)
            # The exit must be inert (no outgoing edges): enclosing
            # fragments ε-jump straight to it, and via the hub they could
            # otherwise sneak back into the loop — (aa+)? would accept "a".
            exit_ = self.new_state()
            self.add_eps(hub, exit_)
            return entry, exit_
        # child{lo,hi}: lo mandatory copies then (hi-lo) optional ones.
        entry = out = self.new_state()
        for _ in range(lo):
            c_in, c_out = self.fragment(node.child)
            self.add_eps(out, c_in)
            out = c_out
        skips: list[int] = []
        for _ in range(hi - lo):
            c_in, c_out = self.fragment(node.child)
            self.add_eps(out, c_in)
            skips.append(out)
            out = c_out
        for state in skips:
            self.add_eps(state, out)
        return entry, out


class NfaContext:
    """Per-flow NFA state (the active set) for the streaming interface."""

    __slots__ = ("active", "offset")

    def __init__(self, nfa: "NFA"):
        self.active = nfa.initial
        self.offset = 0


class NFA:
    """ε-free NFA with per-state decision sets.

    ``transitions[q]`` is a list of ``(bitmap, target)`` pairs where
    ``bitmap`` is the 256-bit integer of the edge's character class —
    membership tests in the hot loop are a shift-and-mask.  ``initial`` is
    the ε-closure of the start state.
    """

    def __init__(
        self,
        transitions: list[list[tuple[int, int]]],
        initial: tuple[int, ...],
        accepts: list[tuple[int, ...]],
        accepts_end: list[tuple[int, ...]],
    ):
        self.transitions = transitions
        self.initial = initial
        self.accepts = accepts
        self.accepts_end = accepts_end
        # Lazily-built run tables (alphabet-compressed moves); see _prepare.
        self._alpha_map: list[int] | None = None
        self._moves: list[list[tuple[int, ...]]] | None = None
        self._alpha_groups: tuple[array, list[int]] | None = None

    def alphabet_groups(self) -> tuple[array, list[int]]:
        """Partition the 256 byte values into edge-equivalence groups.

        Two bytes share a group when every edge class contains both or
        neither.  The per-byte signature is built as an integer bitmask over
        the distinct-class list (one bit per class the byte belongs to)
        rather than a 256-tuple of bools, so computing the partition costs
        one pass over the class memberships instead of 256 tuple
        allocations.  The result is cached on the NFA — subset construction,
        the simulation tables and the hybrid/bit-parallel builders all want
        the same partition.

        Returns ``(group_of_byte, representatives)``; callers must treat
        both as read-only (they are shared with every other caller).
        """
        if self._alpha_groups is not None:
            return self._alpha_groups
        classes = sorted(self.distinct_classes())
        signature = [0] * 256
        for index, bits in enumerate(classes):
            marker = 1 << index
            while bits:
                low = bits & -bits
                signature[low.bit_length() - 1] |= marker
                bits ^= low
        group_of: dict[int, int] = {}
        group_of_byte = array("i", [0] * 256)
        representatives: list[int] = []
        for byte in range(256):
            group = group_of.get(signature[byte])
            if group is None:
                group = len(representatives)
                group_of[signature[byte]] = group
                representatives.append(byte)
            group_of_byte[byte] = group
        self._alpha_groups = (group_of_byte, representatives)
        return self._alpha_groups

    def _prepare(self) -> tuple[list[int], list[list[tuple[int, ...]]]]:
        """Build per-state move tables indexed by alphabet group.

        Bytes that no edge class distinguishes share a group, so the
        simulation does one list-index per active state per byte instead of
        testing every edge bitmap — the same alphabet compression the DFA
        construction uses, reused for honest-but-not-naive NFA simulation.
        """
        if self._moves is not None:
            return self._alpha_map, self._moves  # type: ignore[return-value]
        group_of_byte, representatives = self.alphabet_groups()
        alpha_map = list(group_of_byte)
        moves: list[list[tuple[int, ...]]] = []
        for edges in self.transitions:
            per_group: list[tuple[int, ...]] = []
            for rep in representatives:
                bit = 1 << rep
                per_group.append(tuple(t for bits, t in edges if bits & bit))
            moves.append(per_group)
        self._alpha_map = alpha_map
        self._moves = moves
        return alpha_map, moves

    # -- introspection -------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    @property
    def n_transitions(self) -> int:
        return sum(len(t) for t in self.transitions)

    def distinct_classes(self) -> set[int]:
        """Unique character-class bitmaps appearing on edges."""
        return {bits for edges in self.transitions for bits, _ in edges}

    def memory_bytes(self) -> int:
        """Modelled memory image size of a sparse NFA encoding.

        Per state: an 8-byte header (edge-list offset + decision index).
        Per edge: 8 bytes (class-table index + target).  Each distinct
        character class is stored once as a 32-byte bitmap.  Decision lists
        cost 4 bytes per entry.  This mirrors the compact NFA encodings the
        paper's NFA sizes (0.1–0.5 MB for hundreds of states) imply.
        """
        decisions = sum(len(a) for a in self.accepts) + sum(len(a) for a in self.accepts_end)
        return (
            8 * self.n_states
            + 8 * self.n_transitions
            + 32 * len(self.distinct_classes())
            + 4 * decisions
        )

    # -- simulation ----------------------------------------------------------

    def run(self, data: bytes) -> list[MatchEvent]:
        """Collect every match event over ``data``."""
        return list(self.iter_matches(data))

    def iter_matches(self, data: bytes) -> Iterator[MatchEvent]:
        alpha_map, moves = self._prepare()
        accepts = self.accepts
        active: tuple[int, ...] = self.initial
        last = len(data) - 1
        for pos, byte in enumerate(data):
            group = alpha_map[byte]
            nxt: set[int] = set()
            for state in active:
                nxt.update(moves[state][group])
            # No re-seeding: unanchored patterns carry their own ``.*``
            # self-loop, and anchored patterns must be allowed to die.
            active = tuple(nxt)
            ids: set[int] = set()
            for state in active:
                if accepts[state]:
                    ids.update(accepts[state])
                if pos == last:
                    ids.update(self.accepts_end[state])
            if ids:
                for match_id in sorted(ids):
                    yield MatchEvent(pos, match_id)

    # -- streaming (same trio as the MFA, for dispatch/replay drivers) ------

    def new_context(self) -> "NfaContext":
        return NfaContext(self)

    def feed(self, context: "NfaContext", data: bytes) -> Iterator[MatchEvent]:
        alpha_map, moves = self._prepare()
        accepts = self.accepts
        active = context.active
        base = context.offset
        for pos, byte in enumerate(data):
            group = alpha_map[byte]
            nxt: set[int] = set()
            for state in active:
                nxt.update(moves[state][group])
            active = tuple(nxt)
            ids: set[int] = set()
            for state in active:
                if accepts[state]:
                    ids.update(accepts[state])
            if ids:
                absolute = base + pos
                for match_id in sorted(ids):
                    yield MatchEvent(absolute, match_id)
        context.active = active
        context.offset = base + len(data)

    def finish(self, context: "NfaContext") -> Iterator[MatchEvent]:
        if context.offset:
            ids: set[int] = set()
            for state in context.active:
                ids.update(self.accepts_end[state])
            for match_id in sorted(ids):
                yield MatchEvent(context.offset - 1, match_id)

    def count_active(self, data: bytes) -> float:
        """Mean active-set size over ``data`` — explains NFA slowness."""
        alpha_map, moves = self._prepare()
        active: tuple[int, ...] = self.initial
        total = 0
        for byte in data:
            group = alpha_map[byte]
            nxt: set[int] = set()
            for state in active:
                nxt.update(moves[state][group])
            active = tuple(nxt)
            total += len(active)
        return total / len(data) if data else float(len(self.initial))


def build_nfa(patterns: Sequence[Pattern]) -> NFA:
    """Compile a rule set into one compact ε-free NFA.

    Unanchored patterns receive an implicit ``.*`` prefix.  The union is a
    fresh start state with ε-edges to every pattern fragment.
    """
    builder = _Builder()
    start = builder.new_state()
    for pattern in patterns:
        root = pattern.root
        if not pattern.anchored:
            root = ast.concat([ast.dot_star(), root])
        entry, out = builder.fragment(root)
        builder.add_eps(start, entry)
        if pattern.end_anchored:
            builder.accepts_end[out].add(pattern.match_id)
        else:
            builder.accepts[out].add(pattern.match_id)
    return _eliminate_epsilons(builder, start)


def _eps_closures(builder: _Builder) -> list[tuple[int, ...]]:
    """ε-closure of each state, computed iteratively (graphs can be deep)."""
    n = len(builder.epsilons)
    closures: list[tuple[int, ...]] = [()] * n
    for root in range(n):
        seen = {root}
        stack = [root]
        while stack:
            state = stack.pop()
            for nxt in builder.epsilons[state]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closures[root] = tuple(sorted(seen))
    return closures


def _eliminate_epsilons(builder: _Builder, start: int) -> NFA:
    """Convert the ε-NFA to the compact ε-free form.

    Keeps only states with incoming character edges (plus the start
    closure), so the result is near-Glushkov in size: one state per
    character position, the count Table V reports as "NFA Qs".
    """
    closures = _eps_closures(builder)

    # Effective decisions of a state = union over its closure.
    def closure_accepts(state: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        acc: set[int] = set()
        acc_end: set[int] = set()
        for member in closures[state]:
            acc |= builder.accepts[member]
            acc_end |= builder.accepts_end[member]
        return tuple(sorted(acc)), tuple(sorted(acc_end))

    # Effective outgoing character edges of a state = edges of its closure.
    def closure_edges(state: int) -> list[tuple[CharClass, int]]:
        edges: list[tuple[CharClass, int]] = []
        for member in closures[state]:
            edges.extend(builder.transitions[member])
        return edges

    # Reachable "kept" states: targets of character edges, discovered from
    # the start closure.
    kept: dict[int, int] = {start: 0}
    order: list[int] = [start]
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for _klass, target in closure_edges(state):
            if target not in kept:
                kept[target] = len(kept)
                order.append(target)
                frontier.append(target)

    transitions: list[list[tuple[int, int]]] = []
    accepts: list[tuple[int, ...]] = []
    accepts_end: list[tuple[int, ...]] = []
    for state in order:
        merged: dict[int, int] = {}
        for klass, target in closure_edges(state):
            idx = kept[target]
            merged[idx] = merged.get(idx, 0) | klass.bits
        transitions.append([(bits, idx) for idx, bits in merged.items()])
        acc, acc_end = closure_accepts(state)
        accepts.append(acc)
        accepts_end.append(acc_end)

    # The start state stands for its whole closure; seed the active set with
    # just it (its edges/decisions already include the closure's).
    return NFA(transitions, (0,), accepts, accepts_end)
