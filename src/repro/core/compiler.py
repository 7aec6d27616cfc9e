"""Top-level compile pipeline: rule text in, engine out (paper Figure 1).

This is the public entry point a downstream IDS would use::

    from repro import compile_mfa
    mfa = compile_mfa([".*vi.*emacs", ".*bsd.*gnu"])
    for match in mfa.run(payload):
        ...

Every engine family of the evaluation is constructible through the same
interface so the benchmark harness can treat them uniformly.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from ..automata.dfa import DFA, DEFAULT_STATE_BUDGET, build_dfa
from ..automata.nfa import NFA, build_nfa
from ..fastcompile.shards import check_counts, compile_shards, partition_patterns
from ..regex.ast import Pattern
from ..regex.parser import ParserOptions, parse
from .mfa import MFA
from .sharded import ShardedMFA
from .splitter import SplitterOptions

if TYPE_CHECKING:
    from ..analyze.report import AnalysisReport

__all__ = [
    "compile_patterns",
    "compile_mfa",
    "compile_dfa",
    "compile_nfa",
    "LintError",
    "ProofError",
]

# How compile_mfa partitions a rule set across shards.
SHARD_PLANS = ("contiguous", "interaction")


class _EscortError(ValueError):
    """Error findings of a compile escort, carried on ``report``."""

    failure = "escort failed"

    def __init__(self, report: "AnalysisReport") -> None:
        self.report = report
        errors = report.errors
        summary = "; ".join(f.describe() for f in errors[:3])
        if len(errors) > 3:
            summary += f"; and {len(errors) - 3} more"
        super().__init__(f"{self.failure} with {len(errors)} error(s): {summary}")


class LintError(_EscortError):
    """Raised by ``compile_mfa(..., lint=True)`` on error-severity findings."""

    failure = "static analysis failed"


class ProofError(_EscortError):
    """Raised by ``compile_mfa(..., prove=True)`` when the equivalence
    prover refutes (or cannot establish) the artifact's correctness."""

    failure = "equivalence proof failed"


def compile_patterns(
    rules: Sequence[str | Pattern],
    parser_options: ParserOptions | None = None,
) -> list[Pattern]:
    """Parse rule text into patterns, mixing text and pre-built objects.

    A list of pre-built :class:`Pattern` objects passes through untouched,
    so explicit match-ids (e.g. Snort rule sids) are respected.  As soon
    as rule *text* appears anywhere in the list, every element is
    renumbered to its 1-based input position — text has no id of its own,
    and one consistent numbering beats a mix of positional and explicit
    ids that could silently collide.
    """
    if all(isinstance(rule, Pattern) for rule in rules):
        return list(rules)
    patterns: list[Pattern] = []
    for index, rule in enumerate(rules):
        match_id = index + 1
        if isinstance(rule, Pattern):
            patterns.append(rule if rule.match_id == match_id else rule.with_id(match_id))
        else:
            patterns.append(parse(rule, match_id=match_id, options=parser_options))
    return patterns


def compile_mfa(
    rules: Sequence[str | Pattern],
    splitter_options: SplitterOptions | None = None,
    parser_options: ParserOptions | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
    *,
    shards: int = 1,
    jobs: int = 1,
    time_budget: float | None = None,
    cache=None,
    phases: dict[str, float] | None = None,
    lint: bool = False,
    prove: bool = False,
    compress: int = 0,
    shard_plan: str = "contiguous",
) -> MFA:
    """Parse, split and compile a rule set into a match-filtering automaton.

    Every compile goes through :func:`repro.fastcompile.compile_shards`.
    ``shards``/``jobs`` partition the rule set into ``shards`` chunks
    compiled across ``jobs`` worker processes, and the result is a
    :class:`~repro.core.sharded.ShardedMFA` whose confirmed-match stream is
    the single-shot stream in canonical ``(pos, match_id)`` order; one
    shard (or fewer than two patterns) gives a plain :class:`MFA`.  The
    default ``shard_plan="contiguous"`` keeps the chunks contiguous, which
    makes the per-shard cache keys incremental-friendly;
    ``"interaction"`` uses the assignment from
    :func:`repro.analyze.ruleset.plan_shards`, which spreads rules with
    surviving separator factors across shards instead of letting
    co-authored explosive rules multiply one shard's state space.
    Match-ids are global under either plan, so the merged stream is
    identical.  A shard failure raises that shard's own exception; use
    :class:`repro.robust.ResilientCompiler` for per-shard degradation.
    A bad ``shards``, ``jobs`` or ``shard_plan`` raises ``ValueError``
    before anything parses.

    ``cache`` (a :class:`repro.fastpath.ArtifactCache`) keys each shard
    over its parsed patterns and the compile options, so a second compile
    loads instead of building (``cache.hits`` counts the loads) and a
    one-rule edit rebuilds one shard.  ``phases`` is an out-dict
    accumulating per-phase wall time (``parse``/``split``/``determinize``/
    ``filter-gen``/``prefilter``).

    ``lint=True`` runs the ``audit`` escort (the static verifier,
    :mod:`repro.analyze.escorts`) over the compiled engine and raises
    :class:`LintError` if any error-severity finding survives — the
    fail-closed mode for build pipelines that would rather not ship a
    questionable artifact.  An audit crash raises as an ``AU100`` finding.

    ``prove=True`` goes further: it runs the ``prove`` escort, the
    product-automaton equivalence prover, against a reference automaton
    built from the un-decomposed patterns and raises :class:`ProofError`
    on any error-severity ``EQ`` finding — a replay-confirmed divergence,
    an unprovable shard, or a prover crash (``EQ100``).  A
    budget-truncated proof surfaces as an ``EQ110`` warning on the
    report, which does not raise; gate on it explicitly if bounded
    proofs are unacceptable.

    The compiled artifact (and its serialized bundle) carries the
    required-literal prefilter plan whenever the rule set supports one;
    see :mod:`repro.fastpath.prefilter`.  Purely a scan-time accelerator —
    it never changes the match stream.

    ``compress`` (a chain-depth bound) attaches a default-transition
    forest so the artifact serialises in the compressed tier (see
    :func:`repro.core.mfa.build_mfa`); 0 keeps it dense.
    """
    check_counts(shards=shards, jobs=jobs)
    if shard_plan not in SHARD_PLANS:
        raise ValueError(f"unknown shard_plan {shard_plan!r}; known: {', '.join(SHARD_PLANS)}")
    tick = time.perf_counter()
    patterns = compile_patterns(rules, parser_options)
    if phases is not None:
        phases["parse"] = phases.get("parse", 0.0) + (time.perf_counter() - tick)
    if shards == 1 or len(patterns) < 2:
        groups = [patterns]
    elif shard_plan == "contiguous":
        groups = partition_patterns(patterns, shards)
    else:
        # Lazy import: the planner loads the whole analyzer package.
        from ..analyze.ruleset import plan_shards

        plan = plan_shards(patterns, shards, splitter_options=splitter_options)
        groups = [[patterns[i] for i in chunk] for chunk in plan.assignments]
    builds = compile_shards(
        groups,
        splitter_options,
        parser_options,
        state_budget,
        time_budget,
        jobs=jobs,
        cache=cache,
        phases=phases,
        compress=compress,
    )
    for build in builds:
        if build.error is not None:
            raise build.error
    engines = [build.engine for build in builds]
    engine = engines[0] if len(engines) == 1 else ShardedMFA(engines)
    if lint or prove:
        from ..analyze.escorts import run_escort

        for name, wanted, error in (("audit", lint, LintError), ("prove", prove, ProofError)):
            if wanted:
                report = run_escort(name, engine, patterns, splitter_options)
                if report.has_errors:
                    raise error(report)
    return engine  # type: ignore[return-value]


def compile_dfa(
    rules: Sequence[str | Pattern],
    parser_options: ParserOptions | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> DFA:
    """The paper's DFA baseline: no decomposition, full subset construction."""
    patterns = compile_patterns(rules, parser_options)
    return build_dfa(patterns, state_budget=state_budget)


def compile_nfa(
    rules: Sequence[str | Pattern],
    parser_options: ParserOptions | None = None,
) -> NFA:
    """The paper's NFA baseline: compact, slow, never explodes."""
    patterns = compile_patterns(rules, parser_options)
    return build_nfa(patterns)
