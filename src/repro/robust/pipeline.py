"""The resilient compile-and-scan pipeline.

The paper's operational claim is graceful behaviour at the edge of
feasibility — "B217p could not be constructed" as a DFA, yet the MFA
ships.  This module extends that posture across the whole pipeline:

* :class:`ResilientCompiler` never lets one bad rule or one explosive
  engine abort a deployment.  Rules that fail to parse or split are
  quarantined individually; on :class:`DfaExplosionError` the compiler
  retries with an escalating state-budget schedule and then walks the
  engine fallback chain (MFA → Hybrid-FA → NFA by default).  The whole
  trail — per-rule outcome, every attempt, budgets consumed, wall time —
  lands in a :class:`~repro.robust.report.CompileReport`.
* :func:`resilient_scan` reads a capture tolerantly (resynchronizing
  past corrupt records), reassembles under :class:`ScanLimits`, and
  isolates per-flow engine failures, so one poisoned flow costs one
  flow, not the trace.

Match-ids are stable under quarantine: rule *i* (1-based) always reports
as match-id *i*, whether or not earlier rules were quarantined, so alerts
map back to the operator's rule list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from io import BytesIO
from os import PathLike
from typing import BinaryIO, Iterable, Sequence

from ..automata.dfa import DfaExplosionError, build_dfa
from ..automata.hybridfa import build_hybrid_fa
from ..automata.nfa import build_nfa
from ..core.sharded import ShardedMFA
from ..core.splitter import SplitterOptions, split_patterns
from ..fastcompile.shards import ShardBuild, compile_shards, partition_patterns
from ..regex.ast import Pattern
from ..regex.parser import ParserOptions, parse
from ..traffic.flows import Flow, FlowAssembler, FlowLimits, FlowMatch, Packet
from ..traffic.pcap import read_pcap
from .limits import CompileLimits
from .report import COMPILED, QUARANTINED, CompileReport, EngineAttempt, RuleOutcome, ScanReport

__all__ = ["CompileResult", "ResilientCompiler", "compile_resilient", "resilient_scan"]


@dataclass(slots=True)
class CompileResult:
    """A shipped engine plus the full story of how it was built."""

    engine: object | None
    engine_name: str | None
    report: CompileReport
    patterns: list[Pattern] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.engine is not None


def _trail_entry(
    engine_name: str, budget: int | None, shard: int | None, build: ShardBuild
) -> EngineAttempt:
    """The attempt-trail entry of one build: shipped (noting a cache
    load), over its budget, or failed."""
    error = build.error
    if error is None:
        note = "loaded from artifact cache" if build.cached else None
    elif isinstance(error, DfaExplosionError):
        note = f"exceeded {error.budget} {error.reason}"
    else:
        note = f"{type(error).__name__}: {error}"
    return EngineAttempt(engine_name, budget, build.seconds, build.ok, note, shard)


class ResilientCompiler:
    """Compile a rule set with per-rule quarantine and engine fallback.

    Unlike :func:`repro.core.compile_mfa` — which propagates the first
    parse error or :class:`DfaExplosionError` to the caller — this
    compiler always produces *something*: the surviving rules compiled
    into the strongest engine the budgets allow, plus a
    :class:`CompileReport` accounting for everything that degraded.

    The escorts ``limits.escorts`` selects run after the build and file
    their findings on ``CompileReport.findings``; they never turn a
    shippable engine into a failure.  Callers that want fail-closed
    semantics check ``has_errors`` there, or use
    ``compile_mfa(lint=True)`` / ``compile_mfa(prove=True)``.
    """

    def __init__(
        self,
        limits: CompileLimits | None = None,
        splitter_options: SplitterOptions | None = None,
        parser_options: ParserOptions | None = None,
        cache=None,
        shards: int = 1,
        jobs: int = 1,
        compress: int = 0,
    ) -> None:
        self.limits = limits or CompileLimits()
        self.splitter_options = splitter_options
        self.parser_options = parser_options
        # Default-transition compression of MFA artifacts (a chain-depth
        # bound; 0 = dense).  Applies to MFA builds only — the fallback
        # engines have no compressed tier.
        self.compress = compress
        # Optional repro.fastpath.ArtifactCache: every MFA attempt builds
        # through compile_shards, which consults it first and stores fresh
        # builds for the next run.  In sharded mode each shard is keyed
        # separately, so one-rule edits rebuild one shard.
        self.cache = cache
        # shards > 1 partitions the surviving rules into contiguous chunks
        # compiled across `jobs` worker processes.  Degradation is then
        # per-shard: a shard that explodes walks the fallback chain alone
        # while the others stay MFAs, and the combined engine is a
        # repro.core.sharded.ShardedMFA over the per-shard winners.
        self.shards = max(1, shards)
        self.jobs = max(1, jobs)

    # -- rule isolation ------------------------------------------------------

    def _prepare_rules(
        self, rules: Sequence[str | Pattern], report: CompileReport
    ) -> list[Pattern]:
        """Parse and split-validate each rule individually.

        A rule that fails either step is quarantined with its error; the
        survivors keep their positional match-ids.
        """
        patterns: list[Pattern] = []
        for index, rule in enumerate(rules):
            match_id = index + 1
            source = rule.source or f"<pattern {match_id}>" if isinstance(rule, Pattern) else rule
            try:
                if isinstance(rule, Pattern):
                    pattern = rule if rule.match_id == match_id else rule.with_id(match_id)
                else:
                    pattern = parse(rule, match_id=match_id, options=self.parser_options)
                # Validate the split in isolation so a pathological rule
                # surfaces here, attributed, instead of failing the whole
                # set inside the combined build.
                split_patterns([pattern], self.splitter_options)
            except Exception as exc:  # noqa: BLE001 - quarantine, don't die
                report.rules.append(
                    RuleOutcome(match_id, source, QUARANTINED, f"{type(exc).__name__}: {exc}")
                )
                continue
            report.rules.append(RuleOutcome(match_id, source, COMPILED))
            patterns.append(pattern)
        return patterns

    # -- engine fallback -----------------------------------------------------

    def _compile_mfas(
        self,
        shard_patterns: Sequence[Sequence[Pattern]],
        budget: int,
        report: CompileReport,
        jobs: int = 1,
    ) -> list[ShardBuild]:
        """MFA builds of pattern groups at one budget, through the cache."""
        return compile_shards(
            shard_patterns,
            self.splitter_options,
            self.parser_options,
            state_budget=budget,
            time_budget=self.limits.time_budget,
            jobs=jobs,
            cache=self.cache,
            phases=report.phases,
            compress=self.compress,
        )

    def _attempt(self, engine_name: str, patterns: list[Pattern], budget: int) -> ShardBuild:
        """One fallback-engine build; MFAs go through :meth:`_compile_mfas`."""
        time_budget = self.limits.time_budget
        tick = time.perf_counter()
        try:
            if engine_name == "dfa":
                engine: object = build_dfa(patterns, state_budget=budget, time_budget=time_budget)
            elif engine_name == "hybridfa":
                engine = build_hybrid_fa(patterns, state_budget=budget, time_budget=time_budget)
            else:
                engine = build_nfa(patterns)
        except Exception as exc:  # noqa: BLE001 - fall through the chain
            return ShardBuild(None, exc, False, time.perf_counter() - tick)
        return ShardBuild(engine, None, False, time.perf_counter() - tick)

    def _compile_chain(
        self,
        patterns: list[Pattern],
        report: CompileReport,
        shard: int | None = None,
        mfa_budget_start: int = 0,
        skip_mfa: bool = False,
    ) -> tuple[object | None, str | None]:
        """Walk the fallback chain for one pattern list (a shard, or all).

        ``mfa_budget_start``/``skip_mfa`` let the sharded path resume the
        chain after a parallel first-budget MFA pass already failed (the
        failed attempt is recorded by the caller, so the chain must not
        repeat it).
        """
        for engine_name in self.limits.fallback_chain:
            # The NFA takes no budget and never explodes; DFA-backed
            # engines walk the escalation schedule on explosion.
            budgets: Sequence[int | None]
            budgets = [None] if engine_name == "nfa" else self.limits.budget_schedule
            if engine_name == "mfa":
                if skip_mfa:
                    continue
                budgets = budgets[mfa_budget_start:]
            for position, budget in enumerate(budgets):
                predicted = self._triage_prediction(report, engine_name)
                if (
                    budget is not None
                    and predicted is not None
                    and predicted > budget
                    and position < len(budgets) - 1
                ):
                    # The triage says this budget cannot fit; the next
                    # scheduled budget might.  The last budget is always
                    # tried for real — the prediction is a heuristic, the
                    # subset construction is the ground truth.
                    report.attempts.append(
                        EngineAttempt(
                            engine_name,
                            budget,
                            0.0,
                            False,
                            f"skipped: triage predicts ~{predicted} states",
                            shard,
                            skipped=True,
                        )
                    )
                    continue
                if engine_name == "mfa":
                    (build,) = self._compile_mfas([patterns], budget or 0, report)
                else:
                    build = self._attempt(engine_name, patterns, budget or 0)
                report.attempts.append(_trail_entry(engine_name, budget, shard, build))
                if build.ok:
                    return build.engine, engine_name
                if not isinstance(build.error, DfaExplosionError):
                    break  # not a budget problem: next engine
        return None, None

    @staticmethod
    def _triage_prediction(report: CompileReport, engine_name: str) -> int | None:
        """The triage's state prediction for one engine family, if any.

        Only the engines whose state count the triage actually models are
        skippable: the MFA against the post-decomposition prediction, the
        plain DFA against the undecomposed one.  Hybrid-FA bounds its head
        differently and the NFA takes no budget, so neither is skipped.
        """
        if report.triage is None:
            return None
        if engine_name == "mfa":
            return report.triage.predicted_mfa_states
        if engine_name == "dfa":
            return report.triage.predicted_dfa_states
        return None

    def _compile_sharded(
        self, patterns: list[Pattern], report: CompileReport
    ) -> tuple[object | None, str | None]:
        """Per-shard compile with per-shard degradation.

        A parallel first pass builds every shard as an MFA at the first
        scheduled budget (``jobs`` worker processes, per-shard artifact
        cache).  Shards that explode there re-enter the ordinary fallback
        chain *individually* — escalating budgets, then weaker engines —
        so one pathological shard degrades alone while the rest stay
        MFAs.  The winners recombine into a
        :class:`repro.core.sharded.ShardedMFA`.
        """
        shard_patterns = partition_patterns(patterns, self.shards)
        report.n_shards = len(shard_patterns)
        first_budget = self.limits.budget_schedule[0]
        builds = None
        if "mfa" in self.limits.fallback_chain:
            builds = self._compile_mfas(shard_patterns, first_budget, report, jobs=self.jobs)
        engines: list[object] = []
        names: list[str] = []
        for index, shard in enumerate(shard_patterns):
            if builds is None:
                engine, name = self._compile_chain(shard, report, shard=index)
            else:
                build = builds[index]
                report.attempts.append(_trail_entry("mfa", first_budget, index, build))
                engine, name = build.engine, "mfa"
                if not build.ok:
                    engine, name = self._compile_chain(
                        shard,
                        report,
                        shard=index,
                        mfa_budget_start=1,
                        skip_mfa=not isinstance(build.error, DfaExplosionError),
                    )
            if engine is not None:
                engines.append(engine)
                names.append(name)
        if not engines:
            return None, None
        # Hybrid-FA/NFA shards run in-process (those engines are not
        # serializable), so a degraded shard costs its build time in the
        # parent — the resilience trade the chain already makes.
        unique_names = list(dict.fromkeys(names))
        if len(engines) == 1:
            return engines[0], unique_names[0]
        return ShardedMFA(engines), f"sharded({','.join(unique_names)})"

    def compile(self, rules: Sequence[str | Pattern]) -> CompileResult:
        report = CompileReport()
        tick = time.perf_counter()
        patterns = self._prepare_rules(rules, report)
        report.phases["parse"] = time.perf_counter() - tick
        if not patterns:
            # Nothing survived quarantine: an empty NFA is still a valid
            # (never-matching) engine, so scans keep running.
            engine = build_nfa([])
            report.attempts.append(EngineAttempt("nfa", None, 0.0, True))
            report.engine_name = "nfa"
            return CompileResult(engine, "nfa", report, [])

        escorts = self.limits.escorts
        if "audit" in escorts:
            self._pretriage(patterns, report)
        if self.shards > 1 and len(patterns) > 1:
            engine, engine_name = self._compile_sharded(patterns, report)
        else:
            engine, engine_name = self._compile_chain(patterns, report)
        report.engine_name = engine_name
        from ..analyze.escorts import ESCORTS, run_escort

        for name in ESCORTS:
            # The ruleset escort reads only the patterns; the others audit
            # the shipped engine.
            if name not in escorts or (engine is None and name != "ruleset"):
                continue
            tick = time.perf_counter()
            report.findings[name] = run_escort(name, engine, patterns, self.splitter_options)
            report.phases[name] = time.perf_counter() - tick
        return CompileResult(engine, engine_name, report, patterns)

    def _pretriage(self, patterns: list[Pattern], report: CompileReport) -> None:
        """Predict explosion risk before burning any subset construction."""
        from ..analyze.explosion import triage_patterns

        tick = time.perf_counter()
        try:
            report.triage = triage_patterns(
                patterns,
                state_budget=self.limits.budget_schedule[-1],
                splitter_options=self.splitter_options,
            )
        except Exception:  # noqa: BLE001 - advisory analysis never kills a compile
            report.triage = None
        report.phases["triage"] = time.perf_counter() - tick


def compile_resilient(
    rules: Sequence[str | Pattern],
    limits: CompileLimits | None = None,
    splitter_options: SplitterOptions | None = None,
    parser_options: ParserOptions | None = None,
    shards: int = 1,
    jobs: int = 1,
) -> CompileResult:
    """One-call convenience over :class:`ResilientCompiler`."""
    compiler = ResilientCompiler(
        limits, splitter_options, parser_options, shards=shards, jobs=jobs
    )
    return compiler.compile(rules)


# -- scan side ----------------------------------------------------------------


def resilient_scan(
    engine,
    capture: BinaryIO | bytes | str | PathLike | Iterable[Packet],
    limits: FlowLimits | None = None,
    batch_size: int | None = None,
) -> tuple[list[FlowMatch], ScanReport]:
    """Scan a capture end-to-end in degradation-tolerant mode.

    ``capture`` may be a pcap byte string, an open binary stream, a path,
    or an iterable of already-decoded :class:`Packet` objects.  The pcap
    layer skips corrupt records (counting them), the assembler enforces
    ``limits`` (evicted flows are scanned at eviction time, not lost),
    and every flow is matched in isolation — an engine failure poisons
    that flow only.  Returns the confirmed matches plus a
    :class:`ScanReport` of everything that degraded.

    ``batch_size`` groups reassembled flows into lockstep batches when
    the engine exposes ``run_batch`` (the fastpath engine).  Batches run
    over fresh per-flow contexts, so a failing batch is simply retried
    flow by flow through the scalar path — isolation semantics and the
    per-flow match streams are unchanged.
    """
    report = ScanReport()
    mode = getattr(engine, "prefilter_mode", None)
    if isinstance(mode, str):
        report.prefilter_mode = mode
        report.prefilter_active = bool(getattr(engine, "prefilter_active", False))
    alerts: list[FlowMatch] = []
    batching = bool(batch_size and batch_size > 1 and hasattr(engine, "run_batch"))
    pending: list[Flow] = []

    def scan_one(flow: Flow) -> None:
        report.n_flows += 1
        try:
            events = engine.run(flow.payload)
        except Exception as exc:  # noqa: BLE001 - per-flow isolation
            report.dispatch.flows_poisoned += 1
            report.dispatch.errors.append((flow.key, f"engine error: {exc}"))
            return
        alerts.extend(FlowMatch(flow.key, event) for event in events)

    def flush() -> None:
        batch = pending[:]
        pending.clear()
        if not batch:
            return
        try:
            batch_events = engine.run_batch([flow.payload for flow in batch])
        except Exception:  # noqa: BLE001 - retry each flow in isolation
            for flow in batch:
                scan_one(flow)
            return
        report.n_flows += len(batch)
        for flow, events in zip(batch, batch_events):
            alerts.extend(FlowMatch(flow.key, event) for event in events)

    def scan_flow(flow: Flow) -> None:
        if not flow.payload:
            return
        if not batching:
            scan_one(flow)
            return
        pending.append(flow)
        if len(pending) >= batch_size:
            flush()

    if isinstance(capture, (str, PathLike)):
        with open(capture, "rb") as stream:
            return resilient_scan(engine, stream, limits, batch_size=batch_size)
    if isinstance(capture, bytes):
        capture = BytesIO(capture)
    if hasattr(capture, "read"):
        packets = read_pcap(capture, errors="skip", stats=report.pcap)
    else:
        packets = iter(capture)

    assembler = FlowAssembler(limits=limits, on_evict=scan_flow)
    for packet in packets:
        report.n_packets += 1
        assembler.add(packet)
    report.assembler = assembler.stats
    for flow in assembler.flows():
        scan_flow(flow)
    flush()
    report.n_alerts = len(alerts)
    return alerts, report
