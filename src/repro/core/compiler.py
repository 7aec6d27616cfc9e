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

from typing import TYPE_CHECKING, Sequence

from ..automata.dfa import DFA, DEFAULT_STATE_BUDGET, build_dfa
from ..automata.nfa import NFA, build_nfa
from ..regex.ast import Pattern
from ..regex.parser import ParserOptions, parse
from .mfa import MFA, build_mfa
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

    ``shards``/``jobs`` route the build through the sharded parallel
    compiler (:mod:`repro.fastcompile`): the rule set is partitioned into
    ``shards`` contiguous chunks compiled across ``jobs`` worker
    processes, and the result is a :class:`~repro.fastcompile.ShardedMFA`
    whose confirmed-match stream is the single-shot stream in canonical
    ``(pos, match_id)`` order.  ``shard_plan="interaction"`` replaces the
    contiguous partition with the interaction-aware assignment from
    :func:`repro.analyze.ruleset.plan_shards`, which spreads rules with
    surviving separator factors across shards instead of letting
    co-authored explosive rules multiply one shard's state space;
    contiguous stays the default because its per-shard cache keys are
    incremental-friendly.  Match-ids are global under either plan, so the
    merged stream is identical.  ``cache`` (a
    :class:`repro.fastpath.ArtifactCache`) keys each shard separately so
    one-rule edits rebuild one shard.  ``phases`` is an out-dict
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
    if lint or prove:
        engine = compile_mfa(
            rules,
            splitter_options,
            parser_options,
            state_budget,
            shards=shards,
            jobs=jobs,
            time_budget=time_budget,
            cache=cache,
            phases=phases,
            compress=compress,
            shard_plan=shard_plan,
        )
        from ..analyze.escorts import run_escort

        patterns = compile_patterns(rules, parser_options)
        for name, wanted, error in (("audit", lint, LintError), ("prove", prove, ProofError)):
            if wanted:
                report = run_escort(name, engine, patterns, splitter_options)
                if report.has_errors:
                    raise error(report)
        return engine
    if shards > 1 or cache is not None:
        from ..fastcompile.shards import compile_mfa_sharded

        return compile_mfa_sharded(  # type: ignore[return-value]
            rules,
            splitter_options,
            parser_options,
            state_budget=state_budget,
            time_budget=time_budget,
            shards=shards,
            jobs=jobs,
            cache=cache,
            phases=phases,
            compress=compress,
            shard_plan=shard_plan,
        )
    import time as _time

    tick = _time.perf_counter()
    patterns = compile_patterns(rules, parser_options)
    if phases is not None:
        phases["parse"] = phases.get("parse", 0.0) + (_time.perf_counter() - tick)
    return build_mfa(
        patterns,
        splitter_options,
        state_budget=state_budget,
        time_budget=time_budget,
        phases=phases,
        compress=compress,
    )


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
