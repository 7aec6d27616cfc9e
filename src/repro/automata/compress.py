"""Default-transition DFA compression (a D2FA/CompactDFA-style engine).

The paper's introduction frames the whole design space as "a fundamental
tradeoff between the complexity of each transition and the total memory
size needed to store the transition function".  This module implements the
classic point on that curve the related work (CompactDFA [12], D2FA) sits
at, so the benchmarks can show it next to MFA: each state carries a
*default pointer* to a similar state and stores only the bytes on which
their rows differ; lookups walk the default chain until a stored entry (or
a dense root row) answers.  Memory drops by an order of magnitude; every
byte now costs a chain walk — exactly the trade the paper argues match
filtering avoids.

Building the exact minimum-weight default forest (the D2FA space-reduction
graph) is quadratic in states; this implementation uses the standard
locality trick instead: states are sorted by a row signature so that
similar rows become neighbours, and each state picks its best default among
a window of predecessors, subject to a chain-depth bound.  Matching
behaviour is identical to the source DFA (property-tested).

Beyond the in-memory engine, the forest is a first-class *artifact tier*:
:func:`repro.core.mfa.build_mfa` attaches it at compile time
(``compress=``), the bundle format serialises it
(:func:`repro.automata.serialize.dumps_cdfa`), and loaders decode it back
by :meth:`CompressedDFA.flatten` (dense again, so every engine scans it
at full speed).
"""

from __future__ import annotations

from array import array
from typing import cast

from .dfa import DFA
from .nfa import MatchEvent

__all__ = [
    "CompressedDFA",
    "compress_dfa",
    "DEFAULT_CHAIN_DEPTH",
    "ARTIFACT_WINDOW",
]

# Bytes sampled for the similarity signature: spread over the alphabet with
# a bias toward printable values, where IDS rows differ most.
_SIGNATURE_BYTES = (0, 10, 13, 32, 47, 61, 65, 90, 97, 101, 110, 115, 122, 128, 192, 255)

# The compile-time defaults of the compressed artifact tier.  Depth 4 keeps
# worst-case lookups at five probes (four hops + the root row) — the bound
# the acceptance benchmarks gate on; window 32 is where the locality search
# stops buying much ratio for its quadratic-ish cost.
DEFAULT_CHAIN_DEPTH = 4
ARTIFACT_WINDOW = 32


class CompressedDFA:
    """A DFA stored as a default-pointer forest with sparse overlays.

    ``parent[q]`` is the default state (-1 for roots); roots keep their
    dense row in ``root_rows`` (indexed by ``root_index[q]``); every other
    state stores the differing bytes in ``overlays[q]``.  ``group_of_byte``
    carries the source DFA's alphabet-compression provenance so a
    flattened copy round-trips byte-identically through
    :mod:`repro.automata.serialize`.
    """

    def __init__(
        self,
        parent: array,
        root_index: array,
        root_rows: list[array],
        overlays: list[dict[int, int]],
        start: int,
        accepts: list[tuple[int, ...]],
        accepts_end: list[tuple[int, ...]],
        group_of_byte: array | None = None,
        n_groups: int | None = None,
    ):
        self.parent = parent
        self.root_index = root_index
        self.root_rows = root_rows
        self.overlays = overlays
        self.start = start
        self.accepts = accepts
        self.accepts_end = accepts_end
        self.group_of_byte = group_of_byte
        self.n_groups = n_groups if n_groups is not None else (
            len(set(group_of_byte)) if group_of_byte is not None else None
        )

    @property
    def n_states(self) -> int:
        return len(self.overlays)

    @property
    def n_roots(self) -> int:
        return len(self.root_rows)

    @property
    def overlay_entries(self) -> int:
        return sum(len(o) for o in self.overlays)

    def chain_depth(self) -> int:
        """The longest default chain any lookup can walk (0 = all roots)."""
        parent = self.parent
        depth = [0] * self.n_states
        deepest = 0
        for q in range(self.n_states):
            hops = 0
            current = q
            while parent[current] >= 0:
                if depth[current]:
                    hops += depth[current]
                    break
                current = parent[current]
                hops += 1
            depth[q] = hops
            if hops > deepest:
                deepest = hops
        return deepest

    def memory_bytes(self) -> int:
        """The transition structures counted exactly as serialised.

        Mirrors the binary sections of
        :func:`repro.automata.serialize.dumps_cdfa` entry for entry:
        ``parent`` and ``root_index`` at 4 B/state, dense root rows at
        256 x 4 B, overlay offsets at 4 B/state (+1 sentinel), overlay
        bytes at 1 B and overlay targets at 4 B per entry — plus the usual
        4 B per decision-list id every engine's accounting includes.
        """
        n = self.n_states
        dense = self.n_roots * 256 * 4
        entries = self.overlay_entries
        decisions = sum(len(a) for a in self.accepts) + sum(
            len(a) for a in self.accepts_end
        )
        return 4 * n + 4 * n + dense + 4 * (n + 1) + 5 * entries + 4 * decisions

    def next_state(self, state: int, byte: int) -> int:
        overlays = self.overlays
        parent = self.parent
        current = state
        while True:
            target = overlays[current].get(byte)
            if target is not None:
                return target
            up = parent[current]
            if up < 0:
                return self.root_rows[self.root_index[current]][byte]
            current = up

    def run(self, data: bytes) -> list[MatchEvent]:
        out: list[MatchEvent] = []
        overlays = self.overlays
        parent = self.parent
        root_rows = self.root_rows
        root_index = self.root_index
        accepts = self.accepts
        state = self.start
        for pos, byte in enumerate(data):
            current = state
            while True:
                target = overlays[current].get(byte)
                if target is not None:
                    break
                up = parent[current]
                if up < 0:
                    target = root_rows[root_index[current]][byte]
                    break
                current = up
            state = target
            acc = accepts[state]
            if acc:
                for match_id in acc:
                    out.append(MatchEvent(pos, match_id))
        if data:
            for match_id in self.accepts_end[state]:
                out.append(MatchEvent(len(data) - 1, match_id))
        return out

    def scan(self, data: bytes) -> int:
        overlays = self.overlays
        parent = self.parent
        root_rows = self.root_rows
        root_index = self.root_index
        state = self.start
        for byte in data:
            current = state
            while True:
                target = overlays[current].get(byte)
                if target is not None:
                    break
                up = parent[current]
                if up < 0:
                    target = root_rows[root_index[current]][byte]
                    break
                current = up
            state = target
        return state

    # -- decode --------------------------------------------------------------

    def flatten(self) -> DFA:
        """Reconstruct the dense source DFA, byte-identically.

        State numbering, decision lists and the alphabet-compression map
        are all preserved, so ``dumps_dfa(cdfa.flatten())`` reproduces the
        bytes of the DFA the forest was built from (tested).  Rows are
        materialised parents-before-children, so each one is a single copy
        plus its overlay patch.
        """
        n = self.n_states
        parent = self.parent
        rows: list[array | None] = [None] * n
        for q in range(n):
            if rows[q] is not None:
                continue
            # Walk up to the nearest materialised ancestor (or a root),
            # then patch back down.
            chain = [q]
            current = q
            while parent[current] >= 0 and rows[parent[current]] is None:
                current = parent[current]
                chain.append(current)
            top = chain[-1]
            if parent[top] < 0:
                base = array("i", self.root_rows[self.root_index[top]])
                rows[top] = base
                chain.pop()
            else:
                base = rows[parent[top]]  # type: ignore[assignment]
            for state in reversed(chain):
                patched = array("i", cast(array, rows[parent[state]]))
                for byte, target in self.overlays[state].items():
                    patched[byte] = target
                rows[state] = patched
        group = array("i", self.group_of_byte) if self.group_of_byte is not None else None
        return DFA(
            cast("list[array]", rows),
            self.start,
            self.accepts,
            self.accepts_end,
            group_of_byte=group,
            n_groups=self.n_groups,
        )


def compress_dfa(
    dfa: DFA,
    window: int = 12,
    max_depth: int = 8,
    min_savings: int = 64,
) -> CompressedDFA:
    """Compress ``dfa`` into a default-pointer forest.

    ``window`` is how many signature-order neighbours each state considers
    as its default; ``max_depth`` bounds default chains (the lookup cost);
    a state becomes a dense root unless a neighbour saves at least
    ``min_savings`` of its 256 entries.
    """
    if window < 1:
        raise ValueError("window must be positive")
    if max_depth < 1:
        raise ValueError("max_depth must be positive")
    n = dfa.n_states
    rows = dfa.rows

    order = sorted(
        range(n), key=lambda q: tuple(rows[q][b] for b in _SIGNATURE_BYTES)
    )

    parent = array("i", [-1] * n)
    depth = array("i", [0] * n)
    overlays: list[dict[int, int]] = [dict() for _ in range(n)]
    roots: list[int] = []

    for position, q in enumerate(order):
        row = rows[q]
        best_parent = -1
        best_diff = 256 - min_savings + 1
        lo = max(0, position - window)
        for other_position in range(lo, position):
            candidate = order[other_position]
            if depth[candidate] + 1 > max_depth:
                continue
            candidate_row = rows[candidate]
            diff = 0
            limit = best_diff
            for byte in range(256):
                if row[byte] != candidate_row[byte]:
                    diff += 1
                    if diff >= limit:
                        break
            if diff < best_diff:
                best_diff = diff
                best_parent = candidate
        if best_parent < 0:
            roots.append(q)
        else:
            parent[q] = best_parent
            depth[q] = depth[best_parent] + 1
            candidate_row = rows[best_parent]
            overlays[q] = {
                byte: row[byte]
                for byte in range(256)
                if row[byte] != candidate_row[byte]
            }

    root_index = array("i", [-1] * n)
    root_rows: list[array] = []
    for q in roots:
        root_index[q] = len(root_rows)
        root_rows.append(array("i", rows[q]))

    group = array("i", dfa.group_of_byte) if dfa.group_of_byte is not None else None
    return CompressedDFA(
        parent,
        root_index,
        root_rows,
        overlays,
        dfa.start,
        dfa.accepts,
        dfa.accepts_end,
        group_of_byte=group,
        n_groups=dfa.n_groups,
    )
