"""Compile escorts: analyzers that run beside a compile and never fail it.

An escort files findings about one compile without deciding whether its
engine ships.  :class:`~repro.robust.pipeline.ResilientCompiler` runs the
escorts ``CompileLimits.escorts`` selects and files each report on
``CompileReport.findings`` under the escort's name;
``compile_mfa(lint=True)`` and ``compile_mfa(prove=True)`` run ``audit``
and ``prove`` and raise on error findings.  :data:`ESCORTS` lists the
escorts in run order and is the only place that knows their names,
runners and crash codes.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .. import analyze
from ..core.splitter import SplitterOptions
from ..regex.ast import Pattern
from .report import ERROR, AnalysisReport

__all__ = ["ESCORTS", "run_escort"]

Runner = Callable[[object, Sequence[Pattern], SplitterOptions | None], AnalysisReport]

# Runners look their analyzer up on the package at call time, so an
# analyzer substituted there (a seeded crash or divergence) is the one
# that runs.
ESCORTS: dict[str, tuple[Runner, str]] = {
    "audit": (lambda engine, patterns, options: analyze.analyze_engine(engine), "AU100"),
    "prove": (
        lambda engine, patterns, options: analyze.analyze_engine_equivalence(engine, patterns),
        "EQ100",
    ),
    "adversary": (
        lambda engine, patterns, options: analyze.analyze_engine_adversary(engine).report,
        "AV100",
    ),
    "ruleset": (
        lambda engine, patterns, options: analyze.analyze_ruleset(
            patterns, splitter_options=options
        ).report,
        "RS100",
    ),
}


def run_escort(
    name: str,
    engine: object,
    patterns: Sequence[Pattern],
    splitter_options: SplitterOptions | None = None,
) -> AnalysisReport:
    """Run one escort; a crash becomes an ERROR finding, never an exception."""
    runner, crash_code = ESCORTS[name]
    try:
        return runner(engine, patterns, splitter_options)
    except Exception as exc:  # noqa: BLE001 - an escort crash IS a finding
        report = AnalysisReport()
        report.add(crash_code, ERROR, name, f"{name} crashed: {type(exc).__name__}: {exc}")
        return report
