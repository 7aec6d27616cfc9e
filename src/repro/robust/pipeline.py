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
from ..core.splitter import SplitterOptions, split_patterns
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
        compress: "bool | int | None" = None,
    ) -> None:
        self.limits = limits or CompileLimits()
        self.splitter_options = splitter_options
        self.parser_options = parser_options
        # Default-transition compression of MFA artifacts (a resolved
        # chain-depth bound; 0 = dense).  Applies to MFA builds only — the
        # fallback engines have no compressed tier.
        from ..automata.compress import resolve_compress_option

        self.compress = resolve_compress_option(compress)
        # Optional repro.fastpath.ArtifactCache: MFA attempts consult it
        # before building and store fresh builds for the next run.  In
        # sharded mode each shard is keyed separately, so one-rule edits
        # rebuild one shard.
        self.cache = cache
        # shards > 1 partitions the surviving rules into contiguous chunks
        # compiled across `jobs` worker processes.  Degradation is then
        # per-shard: a shard that explodes walks the fallback chain alone
        # while the others stay MFAs, and the combined engine is a
        # repro.fastcompile.ShardedMFA over the per-shard winners.
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

    def _attempt(
        self,
        engine_name: str,
        patterns: list[Pattern],
        budget: int,
        phases: dict[str, float] | None = None,
    ):
        time_budget = self.limits.time_budget
        if engine_name == "mfa":
            from ..core.mfa import build_mfa

            return build_mfa(
                patterns,
                self.splitter_options,
                state_budget=budget,
                time_budget=time_budget,
                phases=phases,
                compress=self.compress,
            )
        if engine_name == "dfa":
            return build_dfa(patterns, state_budget=budget, time_budget=time_budget)
        if engine_name == "hybridfa":
            return build_hybrid_fa(patterns, state_budget=budget, time_budget=time_budget)
        if engine_name == "nfa":
            return build_nfa(patterns)
        raise ValueError(f"unknown engine {engine_name!r}")

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
                start = time.perf_counter()
                cache_key = None
                if engine_name == "mfa" and self.cache is not None:
                    from ..fastpath.cache import cache_key as make_key

                    cache_key = make_key(
                        patterns,
                        splitter_options=self.splitter_options,
                        parser_options=self.parser_options,
                        state_budget=budget or 0,
                        compress=self.compress,
                    )
                    cached = self.cache.load(cache_key)
                    if cached is not None:
                        report.attempts.append(
                            EngineAttempt(
                                engine_name,
                                budget,
                                time.perf_counter() - start,
                                True,
                                "loaded from artifact cache",
                                shard,
                            )
                        )
                        return cached, engine_name
                try:
                    engine = self._attempt(
                        engine_name, patterns, budget or 0, phases=report.phases
                    )
                except DfaExplosionError as exc:
                    report.attempts.append(
                        EngineAttempt(
                            engine_name,
                            budget,
                            time.perf_counter() - start,
                            False,
                            f"exceeded {exc.budget} {exc.reason}",
                            shard,
                        )
                    )
                    continue  # escalate the budget
                except Exception as exc:  # noqa: BLE001 - fall through the chain
                    report.attempts.append(
                        EngineAttempt(
                            engine_name,
                            budget,
                            time.perf_counter() - start,
                            False,
                            f"{type(exc).__name__}: {exc}",
                            shard,
                        )
                    )
                    break  # not a budget problem: next engine
                report.attempts.append(
                    EngineAttempt(
                        engine_name, budget, time.perf_counter() - start, True, None, shard
                    )
                )
                if cache_key is not None:
                    self.cache.store(cache_key, engine)
                return engine, engine_name
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
        :class:`repro.fastcompile.ShardedMFA`.
        """
        from ..fastcompile.shards import ShardedMFA, compile_shards, partition_patterns

        shard_patterns = partition_patterns(patterns, self.shards)
        report.n_shards = len(shard_patterns)
        first_budget = self.limits.budget_schedule[0] if self.limits.budget_schedule else 0
        mfa_first = "mfa" in self.limits.fallback_chain and bool(
            self.limits.budget_schedule
        )
        builds = None
        if mfa_first:
            builds = compile_shards(
                shard_patterns,
                self.splitter_options,
                self.parser_options,
                state_budget=first_budget,
                time_budget=self.limits.time_budget,
                jobs=self.jobs,
                cache=self.cache,
                phases=report.phases,
                compress=self.compress,
            )
        engines: list[object] = []
        names: list[str] = []
        for index, shard in enumerate(shard_patterns):
            if builds is not None:
                build = builds[index]
                if build.ok:
                    report.attempts.append(
                        EngineAttempt(
                            "mfa",
                            first_budget,
                            build.seconds,
                            True,
                            "loaded from artifact cache" if build.cached else None,
                            index,
                        )
                    )
                    engines.append(build.engine)
                    names.append("mfa")
                    continue
                exploded = isinstance(build.error, DfaExplosionError)
                error = build.error
                report.attempts.append(
                    EngineAttempt(
                        "mfa",
                        first_budget,
                        build.seconds,
                        False,
                        f"exceeded {error.budget} {error.reason}"
                        if exploded
                        else f"{type(error).__name__}: {error}",
                        index,
                    )
                )
                engine, name = self._compile_chain(
                    shard,
                    report,
                    shard=index,
                    mfa_budget_start=1,
                    skip_mfa=not exploded,
                )
            else:
                engine, name = self._compile_chain(shard, report, shard=index)
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
