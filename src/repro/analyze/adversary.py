"""Worst-case cost analyzer: static adversarial audit with witness traces.

Network security middleboxes face an attacker who *chooses* the traffic,
so the number that matters is not mean throughput but the worst case an
adversary can force.  Two engine stages have data-dependent costs:

* the required-literal prefilter skims 2-byte grams and walks only
  verified candidate windows, so gram-collision streams that flood
  candidates without matching push the engine over the density-fallback
  threshold into scan-plus-full-walk — strictly *slower* than never
  having filtered;
* filter programs differ widely in bits flipped per visited state, so
  traces parked on high-churn states maximize per-byte filter work.

This module computes a static cost bound for each channel **and
synthesizes a concrete witness trace achieving it**: a finite-horizon
value iteration over the transition table with a per-(state, byte) cost
model, followed by a greedy policy walk from the start state (the walk
enters a max-cost cycle, i.e. a repeatable adversarial flood).  Every
predicted figure is computed from the *witness itself* under the same
model, so prediction and trace never disagree by construction.

Witnesses are replay-confirmed through the real engines
(:func:`replay_witness`): measured slowdown vs a deterministic clean
trace drawn from the prefilter's byte-commonness prior, with a zero
match-stream diff required against the scalar reference.

Cost-model units are *probe-equivalents per byte*.  ``_MODEL_OVERHEAD``
is the fixed per-byte work every engine pays regardless of the table
walk (loop, accepts check, op dispatch); the prefilter model uses
``_SCAN_COST`` for the gram skim and ``_CLEAN_WALK_FLOOR`` as the
minimum walked fraction clean traffic is ever modelled at (warmup
windows, clear-summary replay and segment stitching keep it above
zero in practice).  The constants are deliberately conservative: the CI
gate requires measured slowdown >= 0.5x predicted, so the model must
never promise more than the engines deliver.

Finding codes (``AV`` = adversary; registry in docs/static-analysis.md):

* ``AV100`` error — the adversary audit itself crashed (escort wrapper);
* ``AV102`` — prefilter-evasion witness: gram-collision stream driving
  candidate-window density over the fallback threshold without matching;
* ``AV104`` — filter bit-churn witness: trace maximizing bits flipped
  per input byte, plus the per-state churn ranking;
* ``AV105`` warning — a replayed witness under-delivered (< 0.5x its
  predicted ratio): the static cost model has drifted from the engines;
* ``AV106`` error — match-stream diff during witness replay (an engine
  disagreed with the scalar reference on adversarial input);
* ``AV120`` info — engine family out of scope (NFA/HybridFA fallbacks);
* ``AV130`` info — audit census: which witness classes were emitted.

``AV101``, ``AV103`` and ``AV110`` are retired and not reused.

Witness severities: ``warning`` when the predicted slowdown ratio
reaches ``_WARN_RATIO``, else ``info`` — a wasteful-but-correct artifact
is never an ``error`` (errors mean the artifact is *wrong*, and here
only a replay divergence is).
"""

from __future__ import annotations

import hashlib
import time
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as _np

from .report import ERROR, INFO, WARNING, AnalysisReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.mfa import MFA

__all__ = [
    "REQUIRED_WITNESS_KINDS",
    "AdversaryResult",
    "ReplayOutcome",
    "WitnessTrace",
    "analyze_adversary",
    "analyze_engine_adversary",
    "clean_payload",
    "replay_witness",
]

COMPONENT = "adversary"

#: Witness classes the B217p acceptance gate requires (bench_adversarial).
REQUIRED_WITNESS_KINDS: tuple[str, ...] = ("prefilter-evasion",)

# -- cost-model constants (probe-equivalents per byte) ------------------------

#: Fixed per-byte engine work independent of the table walk.
_MODEL_OVERHEAD = 1.0
#: Per-byte cost of the prefilter gram skim relative to one table walk:
#: a fixed gram-table lookup plus per-chain candidate-verify work (large
#: audit-mode plans are scan-dominated, which caps how much an evasion
#: stream can add — the model must reflect that or overpredict wildly).
_SCAN_BASE = 0.12
_SCAN_PER_CHAIN = 0.04
#: Clean traffic is never modelled below this walked fraction.
_CLEAN_WALK_FLOOR = 0.15
#: Weight of one flipped filter bit relative to one table probe.
_CHURN_WEIGHT = 0.05
#: Predicted slowdown at or above this ratio promotes the finding to warning.
_WARN_RATIO = 2.0
#: Replayed slowdown below this fraction of the prediction flags model drift
#: (the same factor bench_adversarial.py gates on).
_UNDERDELIVER_FACTOR = 0.5
#: Value-iteration sweeps before extracting the greedy policy.
_VI_SWEEPS = 48
#: Density-fallback threshold mirrored from the fastpath engine (3/8).
_DENSITY_NUM, _DENSITY_DEN = 3, 8

DEFAULT_TRACE_BYTES = 2048
DEFAULT_REPLAY_BYTES = 1 << 15
_CLEAN_SEED = 0


# -- data model ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class WitnessTrace:
    """One synthesized adversarial trace plus its static cost prediction.

    ``predicted_cost`` and ``baseline_cost`` are model costs per byte
    (probe-equivalents) of the witness and of the deterministic clean
    trace; their ratio is the statically predicted slowdown bound the
    replay is asked to confirm.  ``to_dict`` is replay-free and fully
    deterministic — the witness-determinism suite asserts byte-identical
    JSON across ``PYTHONHASHSEED`` runs.
    """

    kind: str
    code: str
    payload: bytes
    predicted_cost: float
    baseline_cost: float
    detail: str
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def predicted_ratio(self) -> float:
        return self.predicted_cost / max(self.baseline_cost, 1e-9)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.payload).hexdigest()[:12]

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "code": self.code,
            "length": len(self.payload),
            "digest": self.digest,
            "payload_hex": self.payload.hex(),
            "predicted_cost": round(self.predicted_cost, 4),
            "baseline_cost": round(self.baseline_cost, 4),
            "predicted_ratio": round(self.predicted_ratio, 4),
            "params": {k: self.params[k] for k in sorted(self.params)},
            "detail": self.detail,
        }


@dataclass(frozen=True, slots=True)
class ReplayOutcome:
    """One witness replayed through one real engine."""

    kind: str
    code: str
    engine: str
    witness_ns_per_byte: float
    clean_ns_per_byte: float
    measured_slowdown: float
    predicted_ratio: float
    match_events: int
    stream_diffs: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "code": self.code,
            "engine": self.engine,
            "witness_ns_per_byte": round(self.witness_ns_per_byte, 2),
            "clean_ns_per_byte": round(self.clean_ns_per_byte, 2),
            "measured_slowdown": round(self.measured_slowdown, 4),
            "predicted_ratio": round(self.predicted_ratio, 4),
            "match_events": self.match_events,
            "stream_diffs": self.stream_diffs,
        }


class AdversaryResult:
    """Findings + witness corpus (+ replay outcomes when requested)."""

    def __init__(
        self,
        report: AnalysisReport,
        witnesses: Sequence[WitnessTrace] = (),
        replays: Sequence[ReplayOutcome] = (),
    ):
        self.report = report
        self.witnesses = list(witnesses)
        self.replays = list(replays)

    def witness(self, kind: str) -> "WitnessTrace | None":
        for w in self.witnesses:
            if w.kind == kind:
                return w
        return None

    def slowdown(self, kind: str) -> float:
        """Best measured slowdown for a witness kind (0.0 if not replayed)."""
        return max(
            (r.measured_slowdown for r in self.replays if r.kind == kind),
            default=0.0,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "findings": self.report.to_dict(),
            "witnesses": [w.to_dict() for w in self.witnesses],
            "replays": [r.to_dict() for r in self.replays],
        }

    def describe(self) -> str:
        lines = list(self.report.describe())
        for w in self.witnesses:
            lines.append(
                f"witness {w.kind}: {len(w.payload)} B, predicted "
                f"{w.predicted_ratio:.2f}x ({w.detail})"
            )
        for r in self.replays:
            lines.append(
                f"replay {r.kind} [{r.engine}]: measured "
                f"{r.measured_slowdown:.2f}x of predicted "
                f"{r.predicted_ratio:.2f}x, {r.stream_diffs} stream diffs"
            )
        return "\n".join(lines)


# -- clean-traffic model ------------------------------------------------------


def clean_payload(length: int, seed: int = _CLEAN_SEED) -> bytes:
    """Deterministic clean traffic drawn from the byte-commonness prior.

    The same 256-entry prior the prefilter uses to rank anchor grams
    (:data:`repro.fastpath.prefilter._BYTE_WEIGHT`), sampled through
    :func:`repro.utils.rng.make_rng` — reproducible run-to-run and
    decorrelated from every other synthetic artefact.
    """
    from ..fastpath.prefilter import _BYTE_WEIGHT
    from ..utils.rng import make_rng

    rng = make_rng(seed, "adversary-clean")
    return bytes(rng.choices(range(256), weights=_BYTE_WEIGHT, k=length))


# -- table plumbing -----------------------------------------------------------


def _plan_of(mfa: "MFA") -> "dict[str, Any] | None":
    """The prefilter plan to audit: carried, buildable, or audit-mode.

    When the artifact has no sound plan (one pathological component is
    enough to keep ``build_prefilter`` from shipping one), the audit
    falls back to the introspection hook ``build_prefilter(audit=True)``
    — the plan covering every coverable component, marked ``audit`` and
    never used for production matching — so the worst-case cost of the
    prefilter stage is still analyzed and replayed.
    """
    plan = mfa.prefilter
    if plan is not None:
        return plan
    if getattr(mfa, "split", None) is None:
        return None
    from ..fastpath.prefilter import build_prefilter

    try:
        plan = build_prefilter(mfa)
        if plan is None:
            plan = build_prefilter(mfa, audit=True)
    except Exception:
        return None
    if plan is not None and not plan.get("chains"):
        return None
    return plan


# -- witness synthesis --------------------------------------------------------


def _synthesize(
    rows: list[array],
    cost: Callable[[int, int], float],
    cost_matrix: Any,
    start: int,
    length: int,
) -> tuple[bytes, float]:
    """Max-cost trace of ``length`` bytes from ``start``.

    Finite-horizon value iteration over the full table, then a
    stationary greedy policy walk (ties break to the lowest byte, so the
    trace is independent of hash seeds and numpy versions).  The
    returned cost is summed along the *actual* trace, so the prediction
    matches the witness by construction.
    """
    n = len(rows)
    nxt = _np.frombuffer(
        b"".join(row.tobytes() for row in rows), dtype=_np.int32
    ).reshape(n, 256).astype(_np.int64)
    cm = _np.asarray(cost_matrix, dtype=_np.float64)
    value = _np.zeros(n, dtype=_np.float64)
    for _ in range(_VI_SWEEPS):
        value = (cm + value[nxt]).max(axis=1)
        value -= value.min()  # keep magnitudes bounded; argmax unchanged
    choice = (cm + value[nxt]).argmax(axis=1).tolist()
    payload = bytearray()
    total = 0.0
    q = start
    for _ in range(length):
        b = choice[q]
        payload.append(b)
        total += cost(q, b)
        q = rows[q][b]
    return bytes(payload), total / max(1, length)


def _trace_cost(
    rows: list[array], cost: Callable[[int, int], float], start: int, payload: bytes
) -> float:
    total = 0.0
    q = start
    for b in payload:
        total += cost(q, b)
        q = rows[q][b]
    return total / max(1, len(payload))


def _prefilter_witness(
    mfa: "MFA",
    plan: dict[str, Any],
    trace_bytes: int,
) -> "WitnessTrace | None":
    """AV102: gram-collision stream flooding candidate windows sub-match.

    Per chain, the minimal satisfying byte string (lowest byte of each
    class bitmap) followed by one separator byte outside every class:
    each repetition is a *verified* prefilter occurrence, so its record
    window covers the whole unit and the engine's density fallback
    (> 3/8 covered) degrades to scan-plus-full-walk.  Among the chains,
    prefer one whose flood confirms zero matches; the scalar engine
    decides, so "below the match threshold" is exact, not modelled.
    """
    from ..fastpath.prefilter import _BYTE_WEIGHT

    chains = plan.get("chains") or []
    if not chains:
        return None
    warmup = int(plan.get("w", 0))
    all_bits = 0
    decoded: list[list[int]] = []
    for spec in chains:
        bits_list = [int(h, 16) for h in spec["classes"]]
        decoded.append(bits_list)
        for bits in bits_list:
            all_bits |= bits
    separator = 0
    for b in range(256):
        if not (all_bits >> b) & 1:
            separator = b
            break
    total_weight = float(sum(_BYTE_WEIGHT))
    best: "tuple[int, int, bytes] | None" = None  # (events, index, unit)
    for index, (spec, bits_list) in enumerate(zip(chains, decoded)):
        unit = bytes(
            (bits & -bits).bit_length() - 1 for bits in bits_list if bits
        ) + bytes([separator])
        if len(unit) < 2:
            continue
        events = len(mfa.run(unit * 4))
        if best is None or (events, index) < (best[0], best[1]):
            best = (events, index, unit)
        if events == 0:
            break
    if best is None:
        return None
    events, index, unit = best
    spec = chains[index]
    reps = max(1, trace_bytes // len(unit))
    payload = (unit * reps)[:trace_bytes]
    # Witness coverage: each verified occurrence records a window spanning
    # the warmup plus the chain plus the tail slack — at least the unit.
    span = warmup + (len(unit) - 1) + int(spec["tail_max"]) + 1
    witness_coverage = min(1.0, span / len(unit))
    witness_walked = (
        1.0
        if witness_coverage * _DENSITY_DEN > _DENSITY_NUM
        else witness_coverage
    )
    # Clean coverage: probability a position starts a fully verified chain
    # under the byte-commonness prior, times the span each occurrence records.
    p_occ = 0.0
    for bits_list in decoded:
        p = 1.0
        for bits in bits_list:
            weight = 0
            rest = bits
            while rest:
                low = rest & -rest
                weight += _BYTE_WEIGHT[low.bit_length() - 1]
                rest ^= low
            p *= weight / total_weight
        p_occ += p
    clean_coverage = min(1.0, p_occ * span)
    clean_walked = max(_CLEAN_WALK_FLOOR, clean_coverage)
    if clean_walked * _DENSITY_DEN > _DENSITY_NUM:
        clean_walked = 1.0  # clean traffic already trips the fallback
    scan_cost = _SCAN_BASE + _SCAN_PER_CHAIN * len(chains)
    return WitnessTrace(
        kind="prefilter-evasion",
        code="AV102",
        payload=payload,
        predicted_cost=scan_cost + witness_walked,
        baseline_cost=scan_cost + clean_walked,
        detail=(
            f"chain {index} flood ({events} confirmed matches/unit x4), "
            f"window coverage {witness_coverage:.2f} "
            f"vs clean floor {clean_walked:.2f}"
        ),
        params={
            "chain": index,
            "unit_len": len(unit),
            "unit_matches": events,
            "separator": separator,
            "witness_coverage": round(witness_coverage, 4),
            "clean_coverage": round(clean_coverage, 6),
            "audit_plan": bool(plan.get("audit")),
            "uncoverable": len(plan.get("stats", {}).get("uncoverable", [])),
        },
    )


def _state_churn(mfa: "MFA") -> list[int]:
    """Filter bits flipped (upper bound) on entering each DFA state."""
    from ..core.filters import NONE

    churn: list[int] = []
    for ops in mfa._ops:
        if ops is None:
            churn.append(0)
        elif isinstance(ops, list):
            or_mask, and_mask = ops
            churn.append(int(or_mask).bit_count() + int(~and_mask).bit_count())
        else:
            bits = 0
            for op in ops:
                bits += int(op[2]).bit_count() + int(op[3]).bit_count()
                if op[4] != NONE:
                    bits += 1
                if op[5]:
                    bits += 2
            churn.append(bits)
    return churn


def _churn_witness(
    mfa: "MFA",
    rows: list[array],
    start: int,
    trace_bytes: int,
    clean: bytes,
) -> "WitnessTrace | None":
    """AV104: trace maximizing filter-bit churn per input byte."""
    churn = _state_churn(mfa)
    peak = max(churn, default=0)
    if peak == 0:
        return None

    def cost(q: int, b: int) -> float:
        return float(churn[rows[q][b]])

    nxt = _np.frombuffer(
        b"".join(row.tobytes() for row in rows), dtype=_np.int32
    ).reshape(len(rows), 256).astype(_np.int64)
    matrix = _np.asarray(churn, dtype=_np.float64)[nxt]
    payload, witness_churn = _synthesize(rows, cost, matrix, start, trace_bytes)
    clean_churn = _trace_cost(rows, cost, start, clean)
    ranked = sorted(range(len(churn)), key=lambda q: (-churn[q], q))[:3]
    return WitnessTrace(
        kind="filter-churn",
        code="AV104",
        payload=payload,
        predicted_cost=_MODEL_OVERHEAD + _CHURN_WEIGHT * witness_churn,
        baseline_cost=_MODEL_OVERHEAD + _CHURN_WEIGHT * clean_churn,
        detail=(
            f"mean {witness_churn:.2f} bits/byte vs {clean_churn:.2f} clean; "
            f"peak state churn {peak} (states {ranked})"
        ),
        params={
            "witness_bits_per_byte": round(witness_churn, 4),
            "clean_bits_per_byte": round(clean_churn, 4),
            "peak_churn": peak,
            "top_states": ranked,
        },
    )


# -- replay confirmation ------------------------------------------------------


def _tile(payload: bytes, length: int) -> bytes:
    if not payload:
        return payload
    reps = -(-length // len(payload))
    return (payload * reps)[:length]


def _time_ns_per_byte(run: Callable[[bytes], Any], payload: bytes, best_of: int) -> float:
    run(payload)  # warm caches / scratch buffers
    best = None
    for _ in range(max(1, best_of)):
        tick = time.perf_counter()
        run(payload)
        elapsed = time.perf_counter() - tick
        best = elapsed if best is None else min(best, elapsed)
    return (best or 0.0) / max(1, len(payload)) * 1e9


def replay_witness(
    mfa: "MFA",
    witness: WitnessTrace,
    replay_bytes: int = DEFAULT_REPLAY_BYTES,
    best_of: int = 3,
    clean: "bytes | None" = None,
) -> list[ReplayOutcome]:
    """Replay one witness through the real scalar and fastpath engines.

    The witness and a clean trace are tiled to ``replay_bytes`` and timed
    through every engine the witness targets; each outcome also diffs the
    engine's confirmed-match stream on the witness against the dense
    scalar reference (which must agree — the engines are proven
    equivalent, and an adversarial divergence is an ``AV106`` error).
    """
    from ..fastpath import build_fastpath

    w_payload = _tile(witness.payload, replay_bytes)
    c_payload = clean if clean is not None else clean_payload(replay_bytes)
    if len(c_payload) != len(w_payload):
        c_payload = _tile(c_payload, len(w_payload))
    reference = mfa.run(w_payload)
    events = len(reference)

    runners: list[tuple[str, Callable[[bytes], list[Any]]]] = [("scalar", mfa.run)]
    if witness.kind == "prefilter-evasion":
        # Replay against the same plan the analysis audited — injecting
        # the audit-mode plan when the artifact ships without one (the
        # witness's zero-diff check below still holds the engine to the
        # scalar reference stream on the adversarial bytes).
        plan = _plan_of(mfa)
        saved_plan = mfa.prefilter
        mfa.prefilter = plan
        try:
            engine = build_fastpath(mfa, prefilter="auto")
        finally:
            mfa.prefilter = saved_plan
        if engine.prefilter_active:
            runners.append(
                ("fastpath-prefilter", lambda data, e=engine: e.run_batch([data])[0])
            )
    else:
        engine = build_fastpath(mfa, prefilter="off")
        runners.append(("fastpath", lambda data, e=engine: e.run_batch([data])[0]))

    outcomes = []
    for name, run in runners:
        diffs = 0 if run(w_payload) == reference else 1
        w_ns = _time_ns_per_byte(run, w_payload, best_of)
        c_ns = _time_ns_per_byte(run, c_payload, best_of)
        outcomes.append(
            ReplayOutcome(
                kind=witness.kind,
                code=witness.code,
                engine=name,
                witness_ns_per_byte=w_ns,
                clean_ns_per_byte=c_ns,
                measured_slowdown=w_ns / c_ns if c_ns else 0.0,
                predicted_ratio=witness.predicted_ratio,
                match_events=events,
                stream_diffs=diffs,
            )
        )
    return outcomes


# -- entry points -------------------------------------------------------------


def _witness_finding(report: AnalysisReport, w: WitnessTrace) -> None:
    severity = WARNING if w.predicted_ratio >= _WARN_RATIO else INFO
    report.add(
        w.code,
        severity,
        COMPONENT,
        f"{w.kind} witness ({len(w.payload)} B, sha256 {w.digest}) predicts "
        f"{w.predicted_ratio:.2f}x worst/clean cost: {w.detail}",
        location=w.kind,
    )


def analyze_adversary(
    mfa: "MFA",
    report: "AnalysisReport | None" = None,
    trace_bytes: int = DEFAULT_TRACE_BYTES,
    replay: bool = False,
    replay_bytes: int = DEFAULT_REPLAY_BYTES,
    best_of: int = 3,
) -> AdversaryResult:
    """Static adversarial audit of one compiled MFA (all artifact tiers).

    Synthesizes worst-case witness traces for every slow-path channel the
    artifact actually carries — prefilter evasion when a plan is compiled,
    filter bit-churn always — and emits ``AV1xx`` findings with
    the statically predicted worst/clean cost ratios.  ``replay=True``
    additionally replay-confirms each witness through the real engines
    (:func:`replay_witness`), flagging model drift (``AV105``) and any
    match-stream divergence (``AV106``).
    """
    out = report if report is not None else AnalysisReport()
    witnesses: list[WitnessTrace] = []
    if mfa.dfa.n_states == 0:
        out.add("AV130", INFO, COMPONENT, "empty automaton: nothing to audit")
        return AdversaryResult(out, witnesses)
    rows = list(mfa.dfa.rows)
    start = mfa.dfa.start
    clean = clean_payload(trace_bytes)

    plan = _plan_of(mfa)
    if plan is not None:
        evasion = _prefilter_witness(mfa, plan, trace_bytes)
        if evasion is not None:
            witnesses.append(evasion)
    churn = _churn_witness(mfa, rows, start, trace_bytes, clean)
    if churn is not None:
        witnesses.append(churn)

    for w in witnesses:
        _witness_finding(out, w)
    kinds = ", ".join(w.kind for w in witnesses) or "none"
    out.add(
        "AV130",
        INFO,
        COMPONENT,
        f"audited {mfa.dfa.n_states} states: witness classes [{kinds}]",
    )

    replays: list[ReplayOutcome] = []
    if replay:
        for w in witnesses:
            outcomes = replay_witness(
                mfa, w, replay_bytes=replay_bytes, best_of=best_of, clean=None
            )
            replays.extend(outcomes)
            measured = max((o.measured_slowdown for o in outcomes), default=0.0)
            if outcomes and measured < _UNDERDELIVER_FACTOR * w.predicted_ratio:
                out.add(
                    "AV105",
                    WARNING,
                    COMPONENT,
                    f"{w.kind} witness under-delivered: measured "
                    f"{measured:.2f}x < {_UNDERDELIVER_FACTOR:.1f} x predicted "
                    f"{w.predicted_ratio:.2f}x (cost model drift)",
                    location=w.kind,
                )
            for o in outcomes:
                if o.stream_diffs:
                    out.add(
                        "AV106",
                        ERROR,
                        COMPONENT,
                        f"{w.kind} witness diverged on engine {o.engine}: "
                        "adversarial input broke scalar/fastpath agreement",
                        location=w.kind,
                    )
    return AdversaryResult(out, witnesses, replays)


def analyze_engine_adversary(
    engine: Any,
    report: "AnalysisReport | None" = None,
    **kwargs: Any,
) -> AdversaryResult:
    """Adversarial audit of any compile result (MFA / ShardedMFA / fallbacks).

    Sharded engines audit each shard independently with findings
    relocated ``shard i``; non-MFA fallback engines (NFA, HybridFA) are
    out of scope and say so (``AV120``) rather than staying silent.
    """
    from ..core.mfa import MFA

    out = report if report is not None else AnalysisReport()
    if isinstance(engine, MFA):
        return analyze_adversary(engine, out, **kwargs)
    shards = getattr(engine, "shards", None)
    if shards is not None:
        witnesses: list[WitnessTrace] = []
        replays: list[ReplayOutcome] = []
        for index, shard in enumerate(shards):
            sub = analyze_engine_adversary(shard, **kwargs)
            out.extend(sub.report.relocated(f"shard {index}"))
            for w in sub.witnesses:
                witnesses.append(
                    WitnessTrace(
                        kind=w.kind,
                        code=w.code,
                        payload=w.payload,
                        predicted_cost=w.predicted_cost,
                        baseline_cost=w.baseline_cost,
                        detail=w.detail,
                        params={**w.params, "shard": index},
                    )
                )
            replays.extend(sub.replays)
        return AdversaryResult(out, witnesses, replays)
    out.add(
        "AV120",
        INFO,
        COMPONENT,
        f"engine family {type(engine).__name__} is out of scope for the "
        "adversarial audit (no compiled cost model)",
    )
    return AdversaryResult(out)
