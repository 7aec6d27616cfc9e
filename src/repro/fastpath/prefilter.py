"""Required-literal prefilter: skim clean traffic, confirm suspicious windows.

The splitter's components are ideal prefilter anchors (ROADMAP item 1, and
the Hyperflex/approximate-NFA shape from PAPERS.md): almost every component
contains a *required* run of positional byte classes — a literal, a
case-insensitive literal, a class-wrapped literal — and a component match
ending at byte ``p`` implies that run occurred at a bounded distance before
``p``.  So instead of walking every byte through the MFA, the engine can

1. *scan* the raw bytes for chain-anchor candidates with a handful of
   whole-buffer table lookups (one 2-byte-gram membership test plus a few
   sparse per-position class gathers),
2. turn each verified chain occurrence into a *record interval* of byte
   positions where component accepts may fire, and
3. run the full automaton only over those intervals (plus a small warm-up
   prefix per interval), replaying filter ops exactly.

The stage is strictly an overapproximation: a rule set where any component
has no extractable required chain compiles to *no plan at all* (``None``),
which the engine treats as "every byte is suspicious" — the classic
lockstep path.  False positives cost only wasted confirm work; false
negatives are impossible by construction (property-tested, and gated by the
equivalence prover's replay surface).

Exactness of the windowed walk rests on three facts, all checked at plan
build time:

* every non-pure-clear component is *bounded* (longest word ``<= w``), so a
  DFA walk started ``w`` bytes before a record interval reaches the exact
  subset-construction state by the time recording starts — unanchored
  partial matches are suffix-determined within ``w`` bytes, and any false
  anchored partial introduced by the mid-payload restart has died;
* pure-clear components (``.*[X]`` and the coalesced ``.*[X]+[^X]``) fire
  from the last one or two bytes only; in the gaps between record intervals
  their effect is a commutative, idempotent *clear summary* — "did any
  position in the gap fire this spec" — applied between window replays;
* every chunk records its first byte (exact entering-state walk), its last
  byte (exact final DFA state, which is what ``finish()`` and the next
  chunk need), and a small *horizon* prefix that covers accepts predicted
  by chain occurrences straddling the previous chunk boundary.

The plan itself is a plain JSON-able dict: built once at compile time
(pure Python, no numpy), serialized into the MFA bundle, and compiled into
numpy lookup tables by :class:`PrefilterRuntime` at engine construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as _np

from ..core.filters import NONE, FilterAction
from ..regex.analysis import max_length, min_length, required_chains
from ..regex.ast import ClassNode, Concat, Node, Repeat
from ..regex.charclass import CharClass

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime cycle
    from ..core.mfa import MFA

__all__ = ["build_prefilter", "PrefilterRuntime", "plan_summary"]

PLAN_VERSION = 1

# A component longer than this would force absurd warm-ups; give up and use
# the classic full-scan path instead.
_MAX_WARMUP = 4096
# Anchor-quality caps: a 2-byte-gram anchor may match at most this many of
# the 65536 grams, a single-byte anchor at most this many of the 256 bytes.
# Weaker anchors would flag so much clean traffic that prefiltering loses.
_MAX_PAIR_PRODUCT = 4096
_MAX_SINGLE_CLASS = 16

# Rough per-byte commonness in benign network payloads (text-heavy
# protocol mix).  Anchor pairs are ranked by how often they would fire on
# clean traffic, not just by class size: for a pure literal chain every
# pair has class product 1, but "nt" fires orders of magnitude more often
# than "-T".  Scale is arbitrary — only relative order matters; 1 is the
# floor so no byte ever scores zero.
_BYTE_WEIGHT = [1] * 256
for _b in range(0x30, 0x3A):  # digits
    _BYTE_WEIGHT[_b] = 15
for _b, _w in ((0x20, 180), (0x0D, 25), (0x0A, 25), (0x09, 8), (0x00, 12)):
    _BYTE_WEIGHT[_b] = _w
for _ch, _w in (
    ("e", 127), ("t", 91), ("a", 82), ("o", 75), ("i", 70), ("n", 67),
    ("s", 63), ("h", 61), ("r", 60), ("d", 43), ("l", 40), ("c", 28),
    ("u", 28), ("m", 24), ("w", 24), ("f", 22), ("g", 20), ("y", 20),
    ("p", 19), ("b", 15), ("v", 10), ("k", 8), ("j", 2), ("x", 2),
    ("q", 1), ("z", 1),
):
    _BYTE_WEIGHT[ord(_ch)] = _w
    _BYTE_WEIGHT[ord(_ch.upper())] = max(1, _w // 4)
for _ch in ".,:;-/?=&%+_\"'<>()[]":
    _BYTE_WEIGHT[ord(_ch)] = 6


def _class_weight(bits: int) -> int:
    """Summed byte commonness of a class given as a 256-bit bitmap."""
    total = 0
    while bits:
        lsb = bits & -bits
        total += _BYTE_WEIGHT[lsb.bit_length() - 1]
        bits ^= lsb
    return total


def _pure_clear_spec(root: Node, action: FilterAction) -> Optional[dict]:
    """Clear-summary spec for a pure-clear component, or ``None``.

    Matches exactly the two shapes the splitter emits for almost-dot-star
    clear components: ``[X]`` (fires when the current byte is in X) and the
    coalesced ``[X]+[^X]`` (fires when the previous byte is in X and the
    current is not).
    """
    if (
        action.clear == NONE
        or action.test != NONE
        or action.set != NONE
        or action.report != NONE
        or action.record != NONE
        or action.distance is not None
    ):
        return None
    if isinstance(root, ClassNode):
        return {
            "bit": action.clear,
            "last": format(root.cls.bits, "064x"),
            "first": None,
        }
    if (
        isinstance(root, Concat)
        and len(root.parts) == 2
        and isinstance(root.parts[0], Repeat)
        and root.parts[0].min == 1
        and root.parts[0].max is None
        and isinstance(root.parts[0].child, ClassNode)
        and isinstance(root.parts[1], ClassNode)
    ):
        return {
            "bit": action.clear,
            "last": format(root.parts[1].cls.bits, "064x"),
            "first": format(root.parts[0].child.cls.bits, "064x"),
        }
    return None


def _chain_anchor(classes: tuple[CharClass, ...]) -> Optional[int]:
    """Offset of the best usable anchor in the chain, or ``None``.

    For chains of two or more classes the anchor is an adjacent pair
    (scanned as a 2-byte gram), chosen as the pair least likely to fire
    on clean traffic (byte-commonness score) among pairs narrow enough to
    stay selective; single-class chains anchor on the byte itself and
    must be narrow enough to stay selective.
    """
    if len(classes) == 1:
        return 0 if 0 < len(classes[0]) <= _MAX_SINGLE_CLASS else None
    best: Optional[int] = None
    best_score = None
    for k in range(len(classes) - 1):
        product = len(classes[k]) * len(classes[k + 1])
        if not 0 < product <= _MAX_PAIR_PRODUCT:
            continue
        score = _class_weight(classes[k].bits) * _class_weight(
            classes[k + 1].bits
        )
        if best_score is None or score < best_score:
            best = k
            best_score = score
    return best


def build_prefilter(
    mfa: "MFA", min_literal: int = 1, audit: bool = False
) -> Optional[dict]:
    """Compile a prefilter plan from an MFA's split provenance.

    Returns ``None`` whenever the plan cannot be *sound and useful*: no
    split provenance (deserialized bundles carry the plan instead), a
    component with no extractable required chain, an unbounded component,
    or an anchor too weak to be selective.  ``None`` means the engine falls
    back to scanning every byte — never an unsound plan.

    ``audit=True`` is the introspection hook for the adversarial audit
    (:mod:`repro.analyze.adversary`): instead of abandoning the plan at
    the first uncoverable component, it *skips* that component and
    records ``(match_id, reason)`` under ``stats["uncoverable"]``, and
    the plan carries ``"audit": True``.  An audit plan is **unsound for
    production matching** — skipped components would be missed — and the
    engine never builds one on its own; it exists so the worst-case cost
    of the prefilter stage can be analyzed and replayed even on rule
    sets one pathological component keeps from shipping a plan.
    """
    components = mfa.split.components
    if not components:
        return None
    program = mfa.program

    warmup = 2  # pure-clear subset state depends on the last <= 2 bytes
    a_max = 0
    horizon = 1  # always record byte 0: entering-state exactness
    chains: list[dict] = []
    clears: list[dict] = []
    n_anchored = 0
    n_end_anchored = 0

    uncoverable: list[dict] = []

    for component in components:
        action = program.actions.get(component.match_id)
        if action is not None:
            spec = _pure_clear_spec(component.root, action)
            if spec is not None:
                clears.append(spec)
                continue
            if action.clear != NONE and action.set == NONE and action.report == NONE:
                # A clear-only action whose shape we cannot summarize: its
                # accepts could fire in gaps unsummarized, so no plan.
                if audit:
                    uncoverable.append(
                        {"match_id": component.match_id, "reason": "clear-shape"}
                    )
                    continue
                return None
        longest = max_length(component.root)
        if longest is None or longest == 0 or longest > _MAX_WARMUP:
            if audit:
                uncoverable.append(
                    {"match_id": component.match_id, "reason": "unbounded"}
                )
                continue
            return None
        warmup = max(warmup, longest)
        if component.anchored:
            # Anchored accepts all land in the first ``a_max`` bytes of the
            # flow, which the head interval records; no chain needed.
            a_max = max(a_max, longest)
            n_anchored += 1
            continue
        if component.end_anchored:
            # End-anchored ids only ever enter ``accepts_end``; the exact
            # final DFA state (last byte is always recorded) covers them.
            n_end_anchored += 1
            continue
        if min_length(component.root) == 0:
            if audit:
                uncoverable.append(
                    {"match_id": component.match_id, "reason": "nullable"}
                )
                continue
            return None
        cover = required_chains(component.root)
        if cover is None:
            if audit:
                uncoverable.append(
                    {"match_id": component.match_id, "reason": "no-chain"}
                )
                continue
            return None
        specs: list[dict] = []
        bad = None
        for chain in cover:
            if len(chain.classes) < min_literal:
                bad = "short-chain"
                break
            anchor = _chain_anchor(chain.classes)
            if anchor is None:
                bad = "weak-anchor"
                break
            specs.append(
                {
                    "classes": [format(c.bits, "064x") for c in chain.classes],
                    "tail_min": chain.tail_min,
                    "tail_max": chain.tail_max,
                    "anchor": anchor,
                }
            )
        if bad is not None:
            if audit:
                uncoverable.append({"match_id": component.match_id, "reason": bad})
                continue
            return None
        for spec in specs:
            horizon = max(
                horizon, len(spec["classes"]) - 1 + int(spec["tail_max"])
            )
        chains.extend(specs)

    stats = {
        "n_components": len(components),
        "n_chains": len(chains),
        "n_clears": len(clears),
        "n_anchored": n_anchored,
        "n_end_anchored": n_end_anchored,
    }
    plan: dict = {
        "version": PLAN_VERSION,
        "w": warmup,
        "a_max": a_max,
        "horizon": horizon,
        "chains": chains,
        "clears": clears,
        "stats": stats,
    }
    if audit:
        stats["uncoverable"] = uncoverable
        plan["audit"] = True
    return plan


def plan_summary(plan: Optional[dict]) -> str:
    """One-line human description (used by reports and benchmarks)."""
    if plan is None:
        return "no plan (classic full scan)"
    stats = plan.get("stats", {})
    return (
        f"{stats.get('n_chains', 0)} chains, {stats.get('n_clears', 0)} clear "
        f"specs over {stats.get('n_components', 0)} components "
        f"(warmup {plan.get('w', 0)}, horizon {plan.get('horizon', 0)})"
    )


def _class_row(bits_hex: str):
    """256-entry bool membership row from a hex bitmap."""
    bits = int(bits_hex, 16)
    row = _np.zeros(256, dtype=bool)
    for byte in range(256):
        if bits >> byte & 1:
            row[byte] = True
    return row


def _gram_value(first, second):
    """Native-order uint16 gram values for byte pairs (first, second).

    A contiguous payload viewed as ``uint16`` yields, at gram index ``g``,
    the value of bytes ``(2g, 2g+1)`` in machine byte order; all gram
    tables are indexed the same way so candidate grams can be read
    straight out of the view with no shift/or passes over the buffer.
    """
    if _np.little_endian:
        return (first[:, None] | (second[None, :] << 8)).ravel()
    return ((first[:, None] << 8) | second[None, :]).ravel()


def _gram_bytes():
    """(b0, b1) byte planes of every gram value in native order."""
    idx = _np.arange(65536)
    lo = idx & 0xFF
    hi = idx >> 8
    return (lo, hi) if _np.little_endian else (hi, lo)


def _nonzero_u8(arr):
    """``flatnonzero`` for a uint8 array without the astype(bool) copy.

    ``view(bool)`` reinterprets the same bytes; numpy's nonzero scan on a
    bool array tests byte != 0, so arbitrary nonzero values are found
    exactly like 1s (measured ~20% faster than astype + flatnonzero, and
    7x faster than flatnonzero on the raw uint8).
    """
    return _np.flatnonzero(arr.view(bool))


class _Chain:
    __slots__ = (
        "tables", "steps", "length", "anchor", "banchor",
        "tail_min", "tail_max", "pair_ok", "pair_b_ok",
    )

    def __init__(self, spec: dict):
        rows = [_class_row(h) for h in spec["classes"]]
        self.tables = _np.stack(rows)
        self.length = len(rows)
        self.steps = _np.arange(self.length, dtype=_np.int64)[:, None]
        self.anchor = int(spec["anchor"])
        self.tail_min = int(spec["tail_min"])
        self.tail_max = int(spec["tail_max"])
        # Anchor-pair membership over all 65536 native-order grams, plus —
        # for chains of three or more classes — a second pair at an
        # odd offset from the anchor.  Two pairs whose offsets differ by
        # an odd amount have opposite parities inside any occurrence, so
        # whichever one lands on an even buffer position shows up in the
        # even-gram stream: scanning both pair sets over even grams alone
        # catches every occurrence with no odd-position machinery at all.
        # Any odd offset difference works, so B is the rarest-scoring
        # pair of the opposite parity (same byte-commonness ranking as
        # the anchor itself); a chain with no selective-enough B pair
        # keeps the odd-position machinery instead.
        self.pair_ok = None
        self.pair_b_ok = None
        self.banchor = None
        if self.length >= 2:
            self.pair_ok = self._pair_table(self.anchor)
        if self.length >= 3:
            weights = _np.asarray(_BYTE_WEIGHT, dtype=_np.int64)
            best = best_score = None
            for k in range(self.length - 1):
                if not (k - self.anchor) & 1:
                    continue
                product = int(self.tables[k].sum()) * int(
                    self.tables[k + 1].sum()
                )
                if not 0 < product <= _MAX_PAIR_PRODUCT:
                    continue
                score = int(weights[self.tables[k]].sum()) * int(
                    weights[self.tables[k + 1]].sum()
                )
                if best_score is None or score < best_score:
                    best = k
                    best_score = score
            if best is not None:
                self.banchor = best
                self.pair_b_ok = self._pair_table(best)

    def _pair_table(self, offset: int):
        first = _np.flatnonzero(self.tables[offset])
        second = _np.flatnonzero(self.tables[offset + 1])
        table = _np.zeros(65536, dtype=bool)
        table[_gram_value(first, second)] = True
        return table


# Bit assignments in the 65536-entry gram-bits table.  One ``take`` per
# 2-byte gram answers every whole-buffer question the scan needs.
_G_PAIR_A = 1  # gram is an anchor pair starting at its even position
_G_PAIR_B = 2  # gram is an adjacent-to-anchor pair at its even position
_G_ODD_HEAD = 4  # 2-class chains only: second byte can start the pair (odd)
_G_ODD_TAIL = 8  # 2-class chains only: first byte can end the pair (odd)
_G_SINGLE_B0 = 16  # gram's first byte is a single-byte-chain anchor
_G_SINGLE_B1 = 32  # gram's second byte is a single-byte-chain anchor
_G_CLEAR_BITS = (64, 128)  # gram contains a byte of clear group 0 / 1
_G_CAND_MASK = (
    _G_PAIR_A | _G_PAIR_B | _G_ODD_HEAD | _G_SINGLE_B0 | _G_SINGLE_B1
)


class _ScanResult:
    """One batch scan: verified chain occurrences plus the gram-bit row.

    ``ends``/``tail_min``/``tail_max`` are parallel int64 arrays of
    verified chain end positions (in no particular order — the engine
    sorts per flow anyway) with their per-occurrence tail bounds: an
    accept predicted by the occurrence at ``e`` lies in
    ``[e + tail_min, e + tail_max]``.  The gram-bit row ``tu`` is kept so
    gap clear queries can be answered lazily — only batches that carry a
    live bit plane across a gap ever pay for them.
    """

    __slots__ = ("runtime", "buf", "tu", "ends", "tail_min", "tail_max")

    def __init__(self, runtime: "PrefilterRuntime", buf):
        self.runtime = runtime
        self.buf = buf
        self.tu = None
        empty = _np.empty(0, dtype=_np.int64)
        self.ends = empty
        self.tail_min = empty
        self.tail_max = empty

    def gap_fired_groups(self, gap_lo, gap_hi) -> list[tuple[object, int]]:
        """Per-clear-group gap fires: ``[(fired bool array, AND-mask)]``.

        ``gap_lo``/``gap_hi`` are parallel int64 arrays of inclusive,
        non-empty gap bounds (absolute buffer positions).  Gaps never
        contain a flow's byte 0 or the buffer's last byte (every flow
        records its first and last byte), so boundary reads stay in range.

        A fast clear group fires in a gap iff some gap byte is in its
        class: at gram granularity, iff some even gram *fully inside* the
        gap has the group's bit set, or a half-covered boundary byte (odd
        ``lo``, even ``hi``) is in the class.  Fully-inside grams are
        answered with one ``maximum.reduceat`` over interleaved per-gap
        gram bounds — a single pass that skips every byte outside the
        gaps.  ``reduceat`` needs two care points: a bound may equal the
        array length only because of the one-slot zero pad, and an empty
        range (``g_lo >= g_hi1``) returns ``x[g_lo]`` rather than 0, so
        empty interiors are masked off explicitly.
        """
        runtime = self.runtime
        buf = self.buf
        n_gaps = len(gap_lo)
        lo_half = (gap_lo & 1) == 1  # gap starts mid-gram: check byte lo
        hi_half = (gap_hi & 1) == 0  # gap ends mid-gram: check byte hi
        lo_bytes = buf.take(gap_lo)
        hi_bytes = buf.take(gap_hi)
        fired_groups: list[tuple[object, int]] = []
        tu = self.tu
        if runtime.fast_clear_groups and tu is not None:
            g_lo = (gap_lo + 1) >> 1
            g_hi1 = ((gap_hi - 1) >> 1) + 1
            nonempty = g_lo < g_hi1
            bounds = _np.empty(2 * n_gaps, dtype=_np.int64)
            bounds[0::2] = g_lo
            bounds[1::2] = g_hi1
            x8 = _np.empty(tu.size + 1, dtype=_np.uint8)
            x8[-1] = 0
            for bit, row, and_mask in runtime.fast_clear_groups:
                _np.bitwise_and(tu, bit, out=x8[:-1])
                fired = _np.maximum.reduceat(x8, bounds)[0::2] != 0
                fired &= nonempty
                fired |= row.take(lo_bytes) & lo_half
                fired |= row.take(hi_bytes) & hi_half
                fired_groups.append((fired, and_mask))
        elif runtime.fast_clear_groups:
            for bit, row, and_mask in runtime.fast_clear_groups:
                fired = row.take(lo_bytes) & lo_half
                fired |= row.take(hi_bytes) & hi_half
                fired_groups.append((fired, and_mask))
        if runtime.lazy_clear_groups:
            # Byte-level bounds: gaps never touch position 0 or the last
            # byte, so gap_hi + 1 is always a legal reduceat index.
            bbounds = _np.empty(2 * n_gaps, dtype=_np.int64)
            bbounds[0::2] = gap_lo
            bbounds[1::2] = gap_hi + 1
            for last_row, first_row, and_mask in runtime.lazy_clear_groups:
                fires = last_row.take(buf)
                if first_row is not None:
                    fires[1:] &= first_row.take(buf[:-1])
                    fires[0] = False
                fired = _np.maximum.reduceat(fires, bbounds)[0::2]
                fired_groups.append((fired, and_mask))
        return fired_groups

    def gap_masks(self, gap_lo, gap_hi) -> list[int]:
        """Per-gap combined AND-masks (convenience over the group fires)."""
        fired_groups = self.gap_fired_groups(gap_lo, gap_hi)
        if self.runtime.masks_fit_i64:
            out = _np.full(len(gap_lo), -1, dtype=_np.int64)
            for fired, and_mask in fired_groups:
                out[fired] &= and_mask
            return out.tolist()
        masks = [-1] * len(gap_lo)
        for fired, and_mask in fired_groups:
            for k in _np.flatnonzero(fired).tolist():
                masks[k] &= and_mask
        return masks


class PrefilterRuntime:
    """Numpy lookup tables compiled from a prefilter plan.

    ``scan`` runs over the whole concatenated batch buffer.  The buffer is
    viewed as half-length native-endian ``uint16`` grams and gathered once
    through a 65536-entry *gram-bits* table whose bits answer every
    whole-buffer question at once: even-position anchor (A) and
    adjacent-to-anchor (B) pairs, the odd-position head/tail halves that
    only 2-class chains still need, single-byte-chain anchors at either
    parity, and clear-group membership.  Chains of three or more classes
    carry two pairs at consecutive offsets — opposite parities inside any
    occurrence — so scanning even grams for A and B catches every such
    occurrence with no odd-position pass at all.  One ``flatnonzero``
    over the combined candidate byte then yields every position worth
    looking at; all remaining work (sparse odd-gram resolution, chain-id
    gathers, stacked window verification) happens on those sparse
    candidates.  Cross-flow grams can produce spurious candidates; the
    engine clips every interval to its flow, so spurious candidates only
    cost work, never correctness.
    """

    def __init__(self, plan: dict):
        if plan.get("version") != PLAN_VERSION:
            raise ValueError(f"unsupported prefilter plan version: {plan.get('version')}")
        self.plan = plan
        self.warmup = int(plan["w"])
        self.a_max = int(plan["a_max"])
        self.horizon = int(plan["horizon"])
        self.chains = [_Chain(spec) for spec in plan["chains"]]
        self.pair_chains = [c for c in self.chains if c.length >= 2]
        self.single_chains = [c for c in self.chains if c.length == 1]
        # Chains without a usable B pair (2-class chains, and longer ones
        # whose opposite-parity pairs are all too wide) still need the
        # odd-position machinery; their pair union resolves the sparse
        # odd-gram candidates.
        self.odd_chains = [c for c in self.pair_chains if c.pair_b_ok is None]
        self.odd_union = None
        for chain in self.odd_chains:
            if self.odd_union is None:
                self.odd_union = _np.zeros(65536, dtype=bool)
            self.odd_union |= chain.pair_ok
        self.single_union = None
        for chain in self.single_chains:
            if self.single_union is None:
                self.single_union = _np.zeros(256, dtype=bool)
            self.single_union |= chain.tables[0]
        # Clear specs with identical class rows fire in exactly the same
        # gaps; dedupe them into groups with a combined AND-mask.  The
        # first two current-byte-only groups ride the gram-bits table
        # (answered from the scan's one big gather); rarer shapes keep an
        # exact lazy whole-buffer path.
        grouped: dict[tuple[str, Optional[str]], int] = {}
        for spec in plan["clears"]:
            key = (spec["last"], spec["first"])
            grouped[key] = grouped.get(key, -1) & ~(1 << int(spec["bit"]))
        self.fast_clear_groups: list[tuple[int, object, int]] = []
        self.lazy_clear_groups: list[tuple[object, object, int]] = []
        for (last_hex, first_hex), and_mask in grouped.items():
            last_row = _class_row(last_hex)
            if first_hex is None and len(self.fast_clear_groups) < len(_G_CLEAR_BITS):
                bit = _G_CLEAR_BITS[len(self.fast_clear_groups)]
                self.fast_clear_groups.append((bit, last_row, and_mask))
            else:
                first_row = _class_row(first_hex) if first_hex is not None else None
                self.lazy_clear_groups.append((last_row, first_row, and_mask))
        self.has_clears = bool(self.fast_clear_groups or self.lazy_clear_groups)
        # Gap masks accumulate in an int64 vector when every clear bit fits
        # (bit <= 62 keeps ~(1 << bit) representable); a program with more
        # filter bits falls back to arbitrary-precision python ints.
        self.masks_fit_i64 = all(
            int(spec["bit"]) <= 62 for spec in plan["clears"]
        )
        self.gram_bits = None
        if self.pair_chains or self.single_chains or self.fast_clear_groups:
            bits = _np.zeros(65536, dtype=_np.uint8)
            b0, b1 = _gram_bytes()
            for chain in self.pair_chains:
                bits[chain.pair_ok] |= _G_PAIR_A
                if chain.pair_b_ok is not None:
                    bits[chain.pair_b_ok] |= _G_PAIR_B
            if self.odd_chains:
                head = _np.zeros(256, dtype=bool)
                tail = _np.zeros(256, dtype=bool)
                for chain in self.odd_chains:
                    head |= chain.tables[chain.anchor]
                    tail |= chain.tables[chain.anchor + 1]
                bits[head[b1]] |= _G_ODD_HEAD
                bits[tail[b0]] |= _G_ODD_TAIL
            if self.single_union is not None:
                bits[self.single_union[b0]] |= _G_SINGLE_B0
                bits[self.single_union[b1]] |= _G_SINGLE_B1
            for bit, row, _mask in self.fast_clear_groups:
                bits[row[b0]] |= bit
                bits[row[b1]] |= bit
            self.gram_bits = bits
        # Unified pair-chain verification: gram -> chain-id tables let one
        # stacked gather verify every candidate at once instead of one pass
        # per chain.  Separate tables for the A (anchor) and B (adjacent)
        # pair alphabets; grams claimed by two chains in the same alphabet
        # (rare) are marked ambiguous and re-verified per chain.
        self.chain_id_a = None
        self.chain_id_b = None
        self.ambig_a = None
        self.ambig_b = None
        if self.pair_chains:
            n_chains = len(self.pair_chains)
            longest = max(c.length for c in self.pair_chains)
            cid_a = _np.full(65536, -1, dtype=_np.int16)
            cid_b = _np.full(65536, -1, dtype=_np.int16)
            ambig_a = _np.zeros(65536, dtype=bool)
            ambig_b = _np.zeros(65536, dtype=bool)
            tables3 = _np.ones((n_chains, longest, 256), dtype=bool)
            self.vanchor = _np.empty(n_chains, dtype=_np.int64)
            self.vbanchor = _np.zeros(n_chains, dtype=_np.int64)
            self.vlen = _np.empty(n_chains, dtype=_np.int64)
            self.vtmin = _np.empty(n_chains, dtype=_np.int64)
            self.vtmax = _np.empty(n_chains, dtype=_np.int64)
            for k, chain in enumerate(self.pair_chains):
                ambig_a |= chain.pair_ok & (cid_a >= 0)
                cid_a[chain.pair_ok] = k
                if chain.pair_b_ok is not None:
                    ambig_b |= chain.pair_b_ok & (cid_b >= 0)
                    cid_b[chain.pair_b_ok] = k
                    self.vbanchor[k] = chain.banchor
                # Steps past a chain's length stay all-True: padding rows
                # accept every byte, so one (longest, m) gather fits all.
                tables3[k, : chain.length] = chain.tables
                self.vanchor[k] = chain.anchor
                self.vlen[k] = chain.length
                self.vtmin[k] = chain.tail_min
                self.vtmax[k] = chain.tail_max
            self.chain_id_a = cid_a
            self.chain_id_b = cid_b
            self.vtflat = tables3.reshape(-1)
            self.vlong = longest
            if bool(ambig_a.any()):
                self.ambig_a = ambig_a
            if bool(ambig_b.any()):
                self.ambig_b = ambig_b

    def _verify_per_chain(
        self, buf, n, acand, agrams, use_b, ends_parts, tmin_parts, tmax_parts
    ) -> None:
        """Exact per-chain verify for ambiguous-gram candidates.

        ``acand``/``agrams`` are candidate anchor positions and their gram
        values for grams claimed by more than one chain in the A (or, with
        ``use_b``, the B) pair alphabet; every claiming chain gets a full
        window check and contributes its own occurrences.
        """
        for chain in self.pair_chains:
            table = chain.pair_b_ok if use_b else chain.pair_ok
            if table is None:
                continue
            offset = chain.banchor if use_b else chain.anchor
            start = acand[table.take(agrams)] - offset
            if start.size == 0:
                continue
            good = (start >= 0) & (start <= n - chain.length)
            if not good.all():
                start = start[good]
                if start.size == 0:
                    continue
            window = buf[start[None, :] + chain.steps]
            alive = chain.tables[chain.steps, window].all(axis=0)
            ends = start[alive] + (chain.length - 1)
            if ends.size:
                ends_parts.append(ends)
                tmin_parts.append(
                    _np.full(ends.size, chain.tail_min, dtype=_np.int64)
                )
                tmax_parts.append(
                    _np.full(ends.size, chain.tail_max, dtype=_np.int64)
                )

    def scan(self, buf) -> _ScanResult:
        """Verified chain occurrences over a batch buffer."""
        n = buf.size
        res = _ScanResult(self, buf)
        ends_parts = []
        tmin_parts = []
        tmax_parts = []
        ge = tu = att = atv = None
        if n >= 2 and self.gram_bits is not None:
            ge = buf[: 2 * (n // 2)].view(_np.uint16)
            res.tu = tu = self.gram_bits.take(ge)
        if tu is not None and (self.pair_chains or self.single_chains):
            cand8 = tu & _G_CAND_MASK
            att = _nonzero_u8(cand8)
            if att.size:
                atv = cand8.take(att)
        if self.pair_chains and atv is not None:
            starts_parts: list = []
            cids_parts: list = []

            def _collect(cand, cgrams, cid_table, ambig_table, use_b):
                cid = cid_table.take(cgrams)
                if ambig_table is not None and cand.size:
                    # Grams claimed by two chains: per-chain fallback,
                    # then drop them from the unified pass.
                    amb = ambig_table.take(cgrams)
                    if amb.any():
                        self._verify_per_chain(
                            buf, n, cand[amb], cgrams[amb], use_b,
                            ends_parts, tmin_parts, tmax_parts,
                        )
                        keep = ~amb
                        cand = cand[keep]
                        cid = cid[keep]
                if cand.size:
                    anchors = self.vbanchor if use_b else self.vanchor
                    starts_parts.append(cand - anchors.take(cid))
                    cids_parts.append(cid)

            # Source A: anchor pairs landing on even positions.
            e_a = att.take(_nonzero_u8(atv & _G_PAIR_A))
            cand_a = e_a * 2
            grams_a = ge.take(e_a)
            # Source odd (2-class chains only): head half in gram g, tail
            # half in gram g+1; resolved sparsely on the head candidates.
            g_o = att.take(_nonzero_u8(atv & _G_ODD_HEAD))
            if g_o.size and self.odd_union is not None:
                ok = g_o + 1 < tu.size
                if not ok.all():
                    # A pair ending at an odd buffer's last byte has no
                    # tail gram and is skipped here: sound, because the
                    # tail span always records the flow's last byte and
                    # the next chunk's horizon prefix covers accepts
                    # predicted past this chunk's end.
                    g_o = g_o[ok]
                if g_o.size:
                    t_ok = tu.take(g_o + 1) & _G_ODD_TAIL
                    g_o = g_o.take(_nonzero_u8(t_ok))
                if g_o.size:
                    # Reconstruct the odd gram's value from the two even
                    # grams it straddles.  (An unaligned uint16 view of
                    # buf[1:] would read it in one take, but numpy's
                    # unaligned gather is ~7x slower than these aligned
                    # element ops.)
                    gv = ge.take(g_o)
                    nxt = buf.take(g_o * 2 + 2).astype(_np.uint16)
                    if _np.little_endian:
                        v_odd = (gv >> 8) | (nxt << 8)
                    else:
                        v_odd = ((gv & 0xFF) << 8) | nxt
                    osel = self.odd_union.take(v_odd)
                    cand_a = _np.concatenate((cand_a, g_o[osel] * 2 + 1))
                    grams_a = _np.concatenate((grams_a, v_odd[osel]))
            _collect(cand_a, grams_a, self.chain_id_a, self.ambig_a, False)
            # Source B: adjacent-to-anchor pairs on even positions (chains
            # of 3+ classes).  Exactly one of A/B is even-aligned in any
            # occurrence, so A and B never double-report one occurrence.
            e_b = att.take(_nonzero_u8(atv & _G_PAIR_B))
            if e_b.size:
                _collect(
                    e_b * 2, ge.take(e_b), self.chain_id_b, self.ambig_b, True
                )
            start = cid = None
            if starts_parts:
                start = (
                    starts_parts[0]
                    if len(starts_parts) == 1
                    else _np.concatenate(starts_parts)
                )
                cid = (
                    cids_parts[0]
                    if len(cids_parts) == 1
                    else _np.concatenate(cids_parts)
                )
            if start is not None and start.size:
                lens = self.vlen.take(cid)
                good = (start >= 0) & (start + lens <= n)
                if not good.all():
                    start = start[good]
                    cid = cid[good]
                    lens = lens[good]
                if start.size:
                    # Step-at-a-time flat-table verify: each step is one
                    # clipped buffer gather plus one table take over the
                    # surviving candidates.  Most candidates die within a
                    # step or two of the anchor, so the set is compacted
                    # every time survival halves — the loop's tail runs on
                    # a shrinking remnant instead of the full front.  The
                    # check itself stops once the remnant is small enough
                    # that full-width steps are already near-free.
                    # Padding steps past a chain's length accept any byte,
                    # and clip mode keeps their clamped reads in range.
                    tflat = self.vtflat
                    cbase = cid.astype(_np.int64) * (self.vlong << 8)
                    alive = None
                    for t in range(self.vlong):
                        idx = cbase + (t << 8)
                        idx += buf.take(start + t, mode="clip")
                        ok = tflat.take(idx)
                        if alive is None:
                            alive = ok
                        else:
                            alive &= ok
                        if alive.size > 1024:
                            live = _np.flatnonzero(alive)
                            if live.size * 2 < alive.size:
                                start = start.take(live)
                                cid = cid.take(live)
                                lens = lens.take(live)
                                cbase = cbase.take(live)
                                alive = None
                                if start.size == 0:
                                    break
                    if alive is not None:
                        live = _np.flatnonzero(alive)
                        start = start.take(live)
                        cid = cid.take(live)
                        lens = lens.take(live)
                    if start.size:
                        ends = start + lens - 1
                        ends_parts.append(ends)
                        tmin_parts.append(self.vtmin.take(cid))
                        tmax_parts.append(self.vtmax.take(cid))
        if self.single_chains and n:
            spos_parts = []
            if atv is not None:
                s0 = att.take(_nonzero_u8(atv & _G_SINGLE_B0))
                if s0.size:
                    spos_parts.append(s0 * 2)
                s1 = att.take(_nonzero_u8(atv & _G_SINGLE_B1))
                if s1.size:
                    spos_parts.append(s1 * 2 + 1)
            # An odd-length buffer's last byte is in no even gram.
            if n & 1 and bool(self.single_union[buf[n - 1]]):
                spos_parts.append(_np.array([n - 1], dtype=_np.int64))
            if spos_parts:
                spos = (
                    spos_parts[0]
                    if len(spos_parts) == 1
                    else _np.concatenate(spos_parts)
                )
                sbytes = buf.take(spos)
                for chain in self.single_chains:
                    ends = spos[chain.tables[0].take(sbytes)]
                    if ends.size:
                        ends_parts.append(ends)
                        tmin_parts.append(
                            _np.full(ends.size, chain.tail_min, dtype=_np.int64)
                        )
                        tmax_parts.append(
                            _np.full(ends.size, chain.tail_max, dtype=_np.int64)
                        )

        if ends_parts:
            res.ends = _np.concatenate(ends_parts)
            res.tail_min = _np.concatenate(tmin_parts)
            res.tail_max = _np.concatenate(tmax_parts)
        return res
