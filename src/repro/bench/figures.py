"""Figure-shaped experiment outputs: Figures 3, 4 and 5.

Each collector returns the figure's data points; the ``*_rows`` helpers
format them as aligned text tables (the closest faithful rendering of the
paper's plots in a terminal) and compute the figure's headline aggregates
(mean CpB per engine, degradation slopes, the MFA-vs-XFA speedup).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from ..patterns import ruleset_names
from ..traffic import DIFFICULTIES, PROFILES
from .harness import (
    ENGINES,
    build_engine,
    measure_run_cpb,
    real_trace_flows,
    synthetic_payload,
)
from .plots import bar_chart, line_chart

__all__ = [
    "fig3_rows",
    "fig3_chart",
    "fig4_collect",
    "fig4_rows",
    "fig5_collect",
    "fig5_rows",
    "fig5_chart",
    "ThroughputPoint",
]


# -- Figure 3: construction times ---------------------------------------------


def fig3_rows() -> list[str]:
    """Construction seconds per (set, engine family), as the paper's bars.

    A failed build reads ``fail:<budget>@<N>s``: which DFA budget tripped
    (``states`` or ``seconds``) and after how long.
    """
    lines = [
        f"{'Pattern':7s} {'NFA':>8s} {'DFA':>16s} {'HFA':>9s} {'MFA':>9s}",
        "-" * 53,
    ]
    for name in ruleset_names():
        cells = []
        for engine_name in ("nfa", "dfa", "hfa", "mfa"):
            result = build_engine(name, engine_name)
            if result.ok:
                cells.append(f"{result.seconds:.2f}")
            else:
                cells.append(f"fail:{result.reason}@{result.seconds:.0f}s")
        lines.append(
            f"{name:7s} {cells[0]:>8s} {cells[1]:>16s} {cells[2]:>9s} {cells[3]:>9s}"
        )
    return lines


# -- Figure 4: real-life trace throughput --------------------------------------


@dataclass(frozen=True, slots=True)
class ThroughputPoint:
    """One (pattern set, trace, engine) measurement in cycles per byte."""

    set_name: str
    trace: str
    engine: str
    cpb: float | None  # None: engine could not be constructed


def fig4_collect(
    set_names: list[str] | None = None,
    engines: tuple[str, ...] = ENGINES,
) -> list[ThroughputPoint]:
    """Run every engine over every synthetic 'real-life' trace."""
    points: list[ThroughputPoint] = []
    for set_name in set_names or ruleset_names():
        for engine_name in engines:
            result = build_engine(set_name, engine_name)
            for profile in PROFILES:
                if not result.ok:
                    points.append(ThroughputPoint(set_name, profile.name, engine_name, None))
                    continue
                flows = real_trace_flows(set_name, profile.name)
                cpb = measure_run_cpb(result.engine, flows)
                points.append(ThroughputPoint(set_name, profile.name, engine_name, cpb))
    return points


def fig4_rows(points: list[ThroughputPoint]) -> list[str]:
    """Per-trace table plus the paper's headline aggregates."""
    traces = [p.name for p in PROFILES]
    lines = [
        f"{'Set':7s} {'Engine':6s} " + " ".join(f"{t:>8s}" for t in traces),
        "-" * (16 + 9 * len(traces)),
    ]
    by_key: dict[tuple[str, str], dict[str, float | None]] = {}
    for point in points:
        by_key.setdefault((point.set_name, point.engine), {})[point.trace] = point.cpb
    set_order = {n: i for i, n in enumerate(ruleset_names())}
    engine_order = {n: i for i, n in enumerate(ENGINES)}
    for (set_name, engine), cells in sorted(
        by_key.items(), key=lambda kv: (set_order[kv[0][0]], engine_order[kv[0][1]])
    ):
        row = " ".join(
            f"{cells.get(t):8.0f}" if cells.get(t) is not None else f"{'-':>8s}"
            for t in traces
        )
        lines.append(f"{set_name:7s} {engine:6s} {row}")

    lines.append("-" * (16 + 9 * len(traces)))
    for engine in ENGINES:
        values = [p.cpb for p in points if p.engine == engine and p.cpb is not None]
        if values:
            lines.append(f"mean {engine:4s}: {mean(values):8.0f} CpB over {len(values)} points")
    # The paper's headline: MFA vs XFA, excluding MFA's worst trace (C112).
    mfa = [p.cpb for p in points if p.engine == "mfa" and p.cpb is not None and p.trace != "C112"]
    xfa = [p.cpb for p in points if p.engine == "xfa" and p.cpb is not None and p.trace != "C112"]
    if mfa and xfa:
        speedup = (mean(xfa) - mean(mfa)) / mean(xfa) * 100
        lines.append(
            f"MFA vs XFA (excl. C112): {mean(mfa):.0f} vs {mean(xfa):.0f} CpB "
            f"-> {speedup:.0f}% faster (paper: 43%)"
        )
    return lines


# -- Figure 5: synthetic difficulty sweep ---------------------------------------


def fig5_collect(
    set_names: list[str] | None = None,
    engines: tuple[str, ...] = ENGINES,
) -> list[ThroughputPoint]:
    """Throughput at each Becchi difficulty, averaged over pattern sets."""
    points: list[ThroughputPoint] = []
    for set_name in set_names or ruleset_names():
        for p_match in DIFFICULTIES:
            payload = synthetic_payload(set_name, p_match)
            label = "rand" if p_match is None else f"{p_match:.2f}"
            for engine_name in engines:
                result = build_engine(set_name, engine_name)
                if not result.ok:
                    points.append(ThroughputPoint(set_name, label, engine_name, None))
                    continue
                cpb = measure_run_cpb(result.engine, (payload,))
                points.append(ThroughputPoint(set_name, label, engine_name, cpb))
    return points


def fig5_rows(points: list[ThroughputPoint]) -> list[str]:
    """Mean CpB per engine per difficulty — the paper's line plot."""
    labels = ["rand"] + [f"{d:.2f}" for d in DIFFICULTIES if d is not None]
    lines = [
        f"{'Engine':6s} " + " ".join(f"{label:>8s}" for label in labels),
        "-" * (8 + 9 * len(labels)),
    ]
    for engine in ENGINES:
        cells = []
        for label in labels:
            values = [
                p.cpb
                for p in points
                if p.engine == engine and p.trace == label and p.cpb is not None
            ]
            cells.append(f"{mean(values):8.0f}" if values else f"{'-':>8s}")
        lines.append(f"{engine:6s} " + " ".join(cells))
    # Degradation: CpB increase from easiest to hardest traffic.
    lines.append("-" * (8 + 9 * len(labels)))
    for engine in ENGINES:
        easy = [p.cpb for p in points if p.engine == engine and p.trace == "rand" and p.cpb]
        hard = [p.cpb for p in points if p.engine == engine and p.trace == "0.95" and p.cpb]
        if easy and hard:
            lines.append(
                f"{engine}: degradation rand -> 0.95 = {mean(hard) / mean(easy):.2f}x"
            )
    return lines


def fig3_chart() -> list[str]:
    """Construction times as the paper's log-scale bar groups."""
    series: dict[str, dict[str, float | None]] = {}
    for name in ruleset_names():
        group: dict[str, float | None] = {}
        for engine_name in ("nfa", "dfa", "hfa", "mfa"):
            result = build_engine(name, engine_name)
            group[engine_name] = result.seconds if result.ok else None
        series[name] = group
    return bar_chart(series, unit="s")


def fig5_chart(points: list[ThroughputPoint]) -> list[str]:
    """The difficulty sweep as the paper's line plot (mean CpB series)."""
    labels = ["rand"] + [f"{d:.2f}" for d in DIFFICULTIES if d is not None]
    series: dict[str, list[float | None]] = {}
    for engine in ENGINES:
        ys: list[float | None] = []
        for label in labels:
            values = [
                p.cpb
                for p in points
                if p.engine == engine and p.trace == label and p.cpb is not None
            ]
            ys.append(mean(values) if values else None)
        series[engine] = ys
    return line_chart(series, x_labels=labels, unit="CpB")
