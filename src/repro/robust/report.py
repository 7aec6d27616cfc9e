"""Structured outcome reports for the resilient pipeline.

The paper reports feasibility as a binary per (set, engine) cell —
"B217p could not be constructed".  An operator needs the full story per
*rule*: which rules were quarantined and why, which engines were tried
with which budgets, what finally shipped, and what the scan dropped.
:class:`CompileReport` and :class:`ScanReport` are those stories, in a
form ``bench.harness`` tables and the CLI can render (``describe()``)
and tests can assert on (``to_dict()``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from ..traffic.flows import AssemblerStats, DispatchStats
from ..traffic.pcap import PcapStats

if TYPE_CHECKING:
    from ..analyze.explosion import TriageResult
    from ..analyze.report import AnalysisReport

__all__ = ["RuleOutcome", "EngineAttempt", "CompileReport", "ScanReport"]

QUARANTINED = "quarantined"
COMPILED = "compiled"


@dataclass(frozen=True, slots=True)
class RuleOutcome:
    """What happened to one input rule (1-based ``match_id`` = position)."""

    match_id: int
    source: str
    status: str  # COMPILED | QUARANTINED
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == COMPILED


@dataclass(frozen=True, slots=True)
class EngineAttempt:
    """One engine construction attempt and its budget/outcome.

    ``shard`` is the 0-based shard index when the compiler ran in sharded
    mode (``ResilientCompiler(shards=...)``); ``None`` for whole-set
    attempts.  ``skipped`` marks a budget the chain never actually tried
    because the pre-compile triage predicted it could not fit — recorded
    so the trail stays complete, but excluded from ``budgets_consumed``.
    """

    engine: str
    state_budget: int | None
    seconds: float
    ok: bool
    error: str | None = None
    shard: int | None = None
    skipped: bool = False


@dataclass(slots=True)
class CompileReport:
    """Per-rule outcomes plus the engine attempt trail of one compile."""

    rules: list[RuleOutcome] = field(default_factory=list)
    attempts: list[EngineAttempt] = field(default_factory=list)
    engine_name: str | None = None
    # Wall time per compile phase (parse/split/determinize/minimize/
    # filter-gen), accumulated across shards and worker processes.
    phases: dict[str, float] = field(default_factory=dict)
    n_shards: int = 1
    # Pre-compile explosion triage (runs with the audit escort).
    triage: "TriageResult | None" = None
    # Escort name -> its findings, in run order (CompileLimits.escorts;
    # the table is repro.analyze.escorts.ESCORTS).
    findings: "dict[str, AnalysisReport]" = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.engine_name is not None

    @property
    def n_compiled(self) -> int:
        return sum(1 for rule in self.rules if rule.ok)

    @property
    def quarantined(self) -> list[RuleOutcome]:
        return [rule for rule in self.rules if not rule.ok]

    @property
    def total_seconds(self) -> float:
        return sum(attempt.seconds for attempt in self.attempts)

    @property
    def budgets_consumed(self) -> list[int]:
        """State budgets burned on failed attempts before the winner."""
        return [
            attempt.state_budget
            for attempt in self.attempts
            if not attempt.ok and not attempt.skipped and attempt.state_budget is not None
        ]

    def to_dict(self) -> dict:
        # Phases are sorted (insertion order varies with the attempt
        # trail) so CI logs diff cleanly run against run.
        return {
            "engine": self.engine_name,
            "rules": [asdict(rule) for rule in self.rules],
            "attempts": [asdict(attempt) for attempt in self.attempts],
            "phases": {name: self.phases[name] for name in sorted(self.phases)},
            "n_shards": self.n_shards,
            "triage": self.triage.to_dict() if self.triage is not None else None,
            "findings": {name: found.to_dict() for name, found in self.findings.items()},
        }

    def describe(self) -> list[str]:
        """Human-readable rendering for the CLI and harness tables."""
        lines = [
            f"rules: {len(self.rules)} in, {self.n_compiled} compiled, "
            f"{len(self.quarantined)} quarantined"
        ]
        for rule in self.quarantined:
            source = rule.source if len(rule.source) <= 40 else rule.source[:37] + "..."
            lines.append(f"  quarantined {{{{{rule.match_id}}}}} {source!r}: {rule.error}")
        if self.triage is not None:
            lines.extend(self.triage.describe())
        for attempt in self.attempts:
            budget = f" budget={attempt.state_budget}" if attempt.state_budget else ""
            shard = f" shard {attempt.shard}" if attempt.shard is not None else ""
            if attempt.skipped:
                lines.append(f"  {attempt.engine}{shard}{budget}: {attempt.error}")
                continue
            if attempt.ok:
                # `error` doubles as a note on successful attempts (e.g.
                # "loaded from artifact cache").
                outcome = "ok" if attempt.error is None else f"ok ({attempt.error})"
            else:
                outcome = f"failed ({attempt.error})"
            lines.append(
                f"  {attempt.engine}{shard}{budget}: {outcome} in {attempt.seconds:.2f}s"
            )
        if self.phases:
            breakdown = ", ".join(
                f"{name} {self.phases[name]:.2f}s" for name in sorted(self.phases)
            )
            lines.append(f"phases: {breakdown}")
        for name, found in self.findings.items():
            counts = found.counts()
            lines.append(
                f"{name}: {counts['error']} error(s), {counts['warning']} "
                f"warning(s), {counts['info']} info"
            )
            lines.extend(f"  {f.describe()}" for f in found)
        if self.engine_name is None:
            lines.append("no engine constructed")
        else:
            lines.append(
                f"engine: {self.engine_name} after {len(self.attempts)} attempt(s), "
                f"{self.total_seconds:.2f}s total"
            )
        return lines


@dataclass(slots=True)
class ScanReport:
    """Counters of one tolerant scan: what was read, dropped, isolated."""

    pcap: PcapStats = field(default_factory=PcapStats)
    assembler: AssemblerStats = field(default_factory=AssemblerStats)
    dispatch: DispatchStats = field(default_factory=DispatchStats)
    n_packets: int = 0
    n_flows: int = 0
    n_alerts: int = 0
    # Prefilter disposition of the scan engine: the requested mode
    # ("on"/"off"/"auto", None when the engine has no prefilter concept)
    # and whether a compiled plan was actually active at scan time.
    prefilter_mode: str | None = None
    prefilter_active: bool = False

    @property
    def degraded(self) -> bool:
        """True when anything at all was skipped, dropped or poisoned."""
        return bool(
            self.pcap.corrupt_records
            or self.pcap.undecodable_frames
            or self.pcap.truncated_tail
            or self.assembler.any_dropped()
            or self.dispatch.flows_poisoned
        )

    @property
    def flows_evicted(self) -> int:
        """Flows the assembler pushed out under memory pressure, top-level.

        An eviction is the scan-side load-shedding event — the flow was
        scanned on the way out, not lost, but its reassembly was cut
        short — so operators watch this counter the way the daemon
        watches its shed counter, without digging into assembler stats.
        """
        return self.assembler.flows_evicted

    def to_dict(self) -> dict:
        return {
            "pcap": asdict(self.pcap),
            "assembler": asdict(self.assembler),
            "dispatch": {
                "flows_poisoned": self.dispatch.flows_poisoned,
                "packets_skipped": self.dispatch.packets_skipped,
            },
            "n_packets": self.n_packets,
            "n_flows": self.n_flows,
            "n_alerts": self.n_alerts,
            "flows_evicted": self.flows_evicted,
            "prefilter": {
                "mode": self.prefilter_mode,
                "active": self.prefilter_active,
            },
        }

    def describe(self) -> list[str]:
        lines = [
            f"packets: {self.n_packets}, flows: {self.n_flows}, alerts: {self.n_alerts}",
            f"pcap: {self.pcap.describe()}",
        ]
        if self.prefilter_mode is not None:
            state = "active" if self.prefilter_active else "inactive"
            lines.append(f"prefilter: {self.prefilter_mode} ({state})")
        if self.assembler.any_dropped():
            lines.append(
                f"assembler: {self.assembler.flows_evicted} flows evicted "
                f"({self.assembler.bytes_evicted} B), "
                f"{self.assembler.segments_dropped} segments dropped "
                f"({self.assembler.bytes_dropped} B)"
            )
        if self.dispatch.flows_poisoned:
            lines.append(
                f"dispatch: {self.dispatch.flows_poisoned} flows poisoned, "
                f"{self.dispatch.packets_skipped} packets skipped"
            )
        if not self.degraded:
            lines.append("clean scan: nothing dropped")
        return lines
