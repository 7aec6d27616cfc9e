"""Resource-limit knobs for the resilient pipeline, with env spellings.

Everything the degradation story tunes lives here so operators have one
place to look: the compile side (:class:`CompileLimits` — state-budget
escalation schedule, wall-time budget, engine fallback chain, compile
escorts) and the scan side (:class:`~repro.traffic.flows.FlowLimits` —
flow-table and per-flow caps, re-exported here as :data:`ScanLimits`).

Every knob has an environment spelling (see :func:`compile_limits_from_env`
and :func:`scan_limits_from_env`), used by ``mfa-bench rcompile``/``rscan``
and the benchmark harness:

======================  =====================================================
 variable                meaning
======================  =====================================================
 REPRO_STATE_BUDGET      first DFA state budget of the escalation schedule
 REPRO_BUDGET_SCHEDULE   full comma-separated schedule (overrides the above)
 REPRO_DFA_TIME_BUDGET   per-attempt subset-construction wall-time budget (s)
 REPRO_FALLBACK_CHAIN    comma-separated engines, e.g. ``mfa,hybridfa,nfa``
 REPRO_COMPILE_ESCORTS   comma-separated escorts (empty: none), e.g. ``audit,prove``
 REPRO_MAX_FLOWS         concurrent-flow cap of the assembler / flow table
 REPRO_MAX_FLOW_BYTES    per-flow buffered-byte cap
 REPRO_MAX_FLOW_SEGS     per-flow buffered-segment cap
======================  =====================================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

from ..automata.dfa import DEFAULT_STATE_BUDGET
from ..traffic.flows import FlowLimits

__all__ = [
    "CompileLimits",
    "ScanLimits",
    "DEFAULT_FALLBACK_CHAIN",
    "compile_limits_from_env",
    "scan_limits_from_env",
]

# The order the paper's feasibility argument implies: the MFA is the
# contribution, Hybrid-FA is the lazy-tail fallback (slower on hostile
# traffic but buildable where more shapes explode), and the NFA is the
# never-explodes floor.
DEFAULT_FALLBACK_CHAIN: tuple[str, ...] = ("mfa", "hybridfa", "nfa")

KNOWN_ENGINES: tuple[str, ...] = ("mfa", "dfa", "hybridfa", "nfa")

# The artifact audit is cheap and also turns on the pre-compile triage;
# the other escorts cost more and run on request.
DEFAULT_ESCORTS: frozenset[str] = frozenset({"audit"})

# Re-export: the scan-side limit set is defined next to the assembler it
# bounds; the robust layer is its operator-facing home.
ScanLimits = FlowLimits


@dataclass(frozen=True, slots=True)
class CompileLimits:
    """Compile-side budgets and the engine fallback chain.

    ``budget_schedule`` is walked in order on :class:`DfaExplosionError`
    — each retry grants more subset-construction states before the
    compiler abandons the engine and falls through ``fallback_chain``.
    ``time_budget`` (seconds, per attempt) bounds pathological sets whose
    individual subsets are expensive; ``None`` disables the clock.

    ``escorts`` names the analyzers that run beside the compile (the
    table is :data:`repro.analyze.escorts.ESCORTS`): ``audit``,
    ``prove``, ``adversary`` and ``ruleset``.  Each files its findings on
    ``CompileReport.findings`` and never fails the compile.  ``audit``,
    the default, also runs a pre-compile explosion triage whose state
    predictions let the chain skip budgets the set cannot possibly fit
    (the last scheduled budget is always tried for real).
    """

    budget_schedule: tuple[int, ...] = (DEFAULT_STATE_BUDGET,)
    time_budget: float | None = None
    fallback_chain: tuple[str, ...] = DEFAULT_FALLBACK_CHAIN
    escorts: frozenset[str] = DEFAULT_ESCORTS

    def __post_init__(self) -> None:
        if not self.budget_schedule:
            raise ValueError("budget_schedule must contain at least one budget")
        if any(b <= 0 for b in self.budget_schedule):
            raise ValueError("state budgets must be positive")
        if list(self.budget_schedule) != sorted(self.budget_schedule):
            raise ValueError("budget_schedule must be non-decreasing")
        if not self.fallback_chain:
            raise ValueError("fallback_chain must name at least one engine")
        unknown = [e for e in self.fallback_chain if e not in KNOWN_ENGINES]
        if unknown:
            raise ValueError(f"unknown engines in fallback chain: {unknown}")
        from ..analyze.escorts import ESCORTS

        unknown = sorted(set(self.escorts) - ESCORTS.keys())
        if unknown:
            raise ValueError(f"unknown escorts {unknown}; known: {list(ESCORTS)}")

    @classmethod
    def escalating(
        cls,
        first_budget: int = DEFAULT_STATE_BUDGET,
        steps: int = 3,
        factor: int = 2,
        **kwargs,
    ) -> "CompileLimits":
        """A geometric escalation schedule starting at ``first_budget``."""
        schedule = tuple(first_budget * factor**i for i in range(max(1, steps)))
        return cls(budget_schedule=schedule, **kwargs)


def _env_int(environ: Mapping[str, str], name: str) -> int | None:
    raw = environ.get(name)
    return int(raw) if raw else None


def compile_limits_from_env(environ: Mapping[str, str] | None = None) -> CompileLimits:
    """Build :class:`CompileLimits` from ``REPRO_*`` environment knobs."""
    environ = os.environ if environ is None else environ
    raw_schedule = environ.get("REPRO_BUDGET_SCHEDULE")
    if raw_schedule:
        schedule = tuple(int(part) for part in raw_schedule.split(",") if part.strip())
    else:
        first = _env_int(environ, "REPRO_STATE_BUDGET") or DEFAULT_STATE_BUDGET
        schedule = (first, first * 2, first * 4)
    raw_time = environ.get("REPRO_DFA_TIME_BUDGET")
    time_budget = float(raw_time) if raw_time else None
    raw_chain = environ.get("REPRO_FALLBACK_CHAIN")
    chain = (
        tuple(part.strip() for part in raw_chain.split(",") if part.strip())
        if raw_chain
        else DEFAULT_FALLBACK_CHAIN
    )
    raw_escorts = environ.get("REPRO_COMPILE_ESCORTS")
    escorts = (
        frozenset(part.strip() for part in raw_escorts.split(",") if part.strip())
        if raw_escorts is not None
        else DEFAULT_ESCORTS
    )
    return CompileLimits(
        budget_schedule=schedule,
        time_budget=time_budget,
        fallback_chain=chain,
        escorts=escorts,
    )


def scan_limits_from_env(environ: Mapping[str, str] | None = None) -> FlowLimits:
    """Build :class:`ScanLimits` from ``REPRO_*`` environment knobs."""
    environ = os.environ if environ is None else environ
    return FlowLimits(
        max_flows=_env_int(environ, "REPRO_MAX_FLOWS"),
        max_flow_bytes=_env_int(environ, "REPRO_MAX_FLOW_BYTES"),
        max_flow_segments=_env_int(environ, "REPRO_MAX_FLOW_SEGS"),
    )
