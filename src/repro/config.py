"""The one configuration surface: every ``REPRO_*`` environment variable.

No other module reads a ``REPRO_*`` variable.  Each one has exactly one
parser and one default, in :data:`KNOBS`; the library layers take their
settings as explicit arguments, and the entry points (``mfa-bench``, the
benchmark harness) resolve them here.  An empty value means unset, except
for ``REPRO_COMPILE_ESCORTS``, where it means no escorts.  A malformed
value raises a :class:`ValueError` naming the variable, and ``mfa-bench``
calls :func:`check` before any command runs, so bad configuration fails
once, before anything compiles.

=======================  ====================  ==================================================
 variable                 default               meaning
=======================  ====================  ==================================================
 REPRO_STATE_BUDGET       150000                first DFA state budget; the schedule is (b, 2b, 4b)
 REPRO_BUDGET_SCHEDULE    (from the above)      full comma-separated schedule (overrides the above)
 REPRO_DFA_TIME_BUDGET    60                    per-attempt subset-construction wall clock (s)
 REPRO_FALLBACK_CHAIN     mfa,hybridfa,nfa      comma-separated engines
 REPRO_COMPILE_ESCORTS    audit                 comma-separated compile escorts (empty: none)
 REPRO_MAX_FLOWS          unbounded             concurrent-flow cap of the assembler
 REPRO_MAX_FLOW_BYTES     unbounded             per-flow buffered-byte cap
 REPRO_MAX_FLOW_SEGS      unbounded             per-flow buffered-segment cap
 REPRO_COMPILE_CACHE      1                     artifact cache on (``1``) or off (``0``)
 REPRO_CACHE_DIR          ~/.cache/repro-mfa    artifact cache directory (``XDG_CACHE_HOME`` honoured)
 REPRO_RESULTS_DIR        results               where benchmark tables and traces land
 REPRO_TRACE_SCALE        0.125                 multiplier on synthetic trace sizes
=======================  ====================  ==================================================
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Mapping

from .fastpath.cache import ArtifactCache
from .robust.limits import DEFAULT_ESCORTS, DEFAULT_FALLBACK_CHAIN, CompileLimits
from .traffic.flows import FlowLimits

__all__ = ["KNOBS", "knob", "check", "compile_limits", "scan_limits", "artifact_cache"]


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not value > 0:
        raise ValueError("must be positive")
    return value


def _names(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# The list knobs validate through CompileLimits, the one owner of their rules.
def _schedule(raw: str) -> tuple[int, ...]:
    return CompileLimits(budget_schedule=tuple(int(part) for part in _names(raw))).budget_schedule


def _chain(raw: str) -> tuple[str, ...]:
    return CompileLimits(fallback_chain=_names(raw)).fallback_chain


def _escorts(raw: str) -> frozenset[str]:
    return CompileLimits(escorts=frozenset(_names(raw))).escorts


def _switch(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError("must be 0 or 1")
    return raw == "1"


def _directory(raw: str) -> Path:
    path = Path(raw)
    # Nothing can be created below a nearest existing ancestor that is a file.
    existing = next(part for part in (path, *path.parents) if part.exists())
    if not existing.is_dir():
        raise ValueError(f"{existing} is not a directory")
    return path


KNOBS: dict[str, tuple[Callable[[str], object], object]] = {
    "REPRO_STATE_BUDGET": (_positive_int, 150_000),
    "REPRO_BUDGET_SCHEDULE": (_schedule, None),
    "REPRO_DFA_TIME_BUDGET": (_positive_float, 60.0),
    "REPRO_FALLBACK_CHAIN": (_chain, DEFAULT_FALLBACK_CHAIN),
    "REPRO_COMPILE_ESCORTS": (_escorts, DEFAULT_ESCORTS),
    "REPRO_MAX_FLOWS": (_positive_int, None),
    "REPRO_MAX_FLOW_BYTES": (_positive_int, None),
    "REPRO_MAX_FLOW_SEGS": (_positive_int, None),
    "REPRO_COMPILE_CACHE": (_switch, True),
    "REPRO_CACHE_DIR": (_directory, None),
    "REPRO_RESULTS_DIR": (_directory, Path("results")),
    "REPRO_TRACE_SCALE": (_positive_float, 0.125),
}

def knob(name: str, environ: Mapping[str, str] | None = None) -> Any:
    """The parsed value of one variable (its default when unset)."""
    parser, default = KNOBS[name]
    raw = (os.environ if environ is None else environ).get(name)
    # Empty means unset, except for the escorts, where it means none.
    if raw is None or (raw == "" and name != "REPRO_COMPILE_ESCORTS"):
        return default
    try:
        return parser(raw)
    except ValueError as exc:
        raise ValueError(f"{name}={raw!r}: {exc}") from None


def compile_limits(environ: Mapping[str, str] | None = None) -> CompileLimits:
    """The compile-side budgets, fallback chain and escorts."""
    first = knob("REPRO_STATE_BUDGET", environ)
    return CompileLimits(
        budget_schedule=knob("REPRO_BUDGET_SCHEDULE", environ) or (first, first * 2, first * 4),
        time_budget=knob("REPRO_DFA_TIME_BUDGET", environ),
        fallback_chain=knob("REPRO_FALLBACK_CHAIN", environ),
        escorts=knob("REPRO_COMPILE_ESCORTS", environ),
    )


def scan_limits(environ: Mapping[str, str] | None = None) -> FlowLimits:
    """The flow-table and per-flow caps of a scan."""
    return FlowLimits(
        max_flows=knob("REPRO_MAX_FLOWS", environ),
        max_flow_bytes=knob("REPRO_MAX_FLOW_BYTES", environ),
        max_flow_segments=knob("REPRO_MAX_FLOW_SEGS", environ),
    )


def artifact_cache(environ: Mapping[str, str] | None = None) -> ArtifactCache | None:
    """The on-disk artifact cache, or ``None`` when ``REPRO_COMPILE_CACHE=0``."""
    directory = knob("REPRO_CACHE_DIR", environ)
    return ArtifactCache(directory) if knob("REPRO_COMPILE_CACHE", environ) else None


def check(environ: Mapping[str, str] | None = None) -> None:
    """Parse every variable and build the limits; raise on the first bad one."""
    for name in KNOBS:
        knob(name, environ)
    compile_limits(environ)
    scan_limits(environ)
