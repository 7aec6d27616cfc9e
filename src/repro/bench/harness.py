"""Shared benchmark harness: cached engine builds, traces and measurements.

Every experiment file under ``benchmarks/`` goes through this module so
that each (pattern set, engine) pair is constructed exactly once per
session — DFA subset construction for the explosive sets is the dominant
cost and several figures need the same automata.  Construction wall time
is recorded at build, so the Fig. 3 table reports real measurements even
when another figure triggered the build.

Tunables (environment, parsed by :mod:`repro.config`):

* ``REPRO_TRACE_SCALE`` — multiplier on trace sizes (default 0.125; the
  paper's GB-scale corpora are scaled to what interpreted engines can
  chew, see DESIGN.md §5.2);
* ``REPRO_STATE_BUDGET`` — DFA subset-construction budget (default
  150,000 states; B217p is expected to exceed it, reproducing the paper's
  "could not be constructed");
* ``REPRO_DFA_TIME_BUDGET`` — wall clock of one DFA construction (60 s);
* ``REPRO_RESULTS_DIR`` — where tables and traces land (``results``).

MFA builds are always single-shot and never cached: construction wall
time feeds the Fig. 3 table, and a cache hit would report load time as
build time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Sequence

from .. import config
from ..automata import (
    DfaExplosionError,
    build_dfa,
    build_hfa,
    build_nfa,
    build_xfa,
)
from ..core import build_mfa
from ..patterns import ruleset, ruleset_names
from ..regex import parse_many
from ..regex.ast import Pattern
from ..traffic import PROFILES, FlowAssembler, build_corpus, generate_payload, read_pcap
from ..utils.timing import cycles_per_byte

__all__ = [
    "ENGINES",
    "BuildResult",
    "TRACE_SCALE",
    "STATE_BUDGET",
    "results_dir",
    "patterns_for",
    "build_engine",
    "build_resilient",
    "real_trace_flows",
    "synthetic_payload",
    "measure_run_cpb",
    "write_table",
]

ENGINES: tuple[str, ...] = ("nfa", "dfa", "hfa", "xfa", "mfa")

TRACE_SCALE = config.knob("REPRO_TRACE_SCALE")
STATE_BUDGET = config.knob("REPRO_STATE_BUDGET")
DFA_TIME_BUDGET = config.knob("REPRO_DFA_TIME_BUDGET")


@dataclass(frozen=True, slots=True)
class BuildResult:
    """A constructed engine (or its failure) plus measured build time."""

    set_name: str
    engine_name: str
    engine: object | None
    seconds: float
    error: str | None = None
    reason: str | None = None  # the DFA budget that tripped: "states" or "seconds"

    @property
    def ok(self) -> bool:
        return self.engine is not None


def results_dir() -> Path:
    """Where benchmark tables land (repo-level ``results/``)."""
    path = config.knob("REPRO_RESULTS_DIR")
    path.mkdir(parents=True, exist_ok=True)
    return path


@lru_cache(maxsize=None)
def patterns_for(set_name: str) -> tuple[Pattern, ...]:
    """Parsed patterns of a named rule set (cached)."""
    return tuple(parse_many(list(ruleset(set_name).rules)))


def _build_mfa(patterns: Sequence[Pattern]) -> object:
    return build_mfa(patterns, state_budget=STATE_BUDGET)


def _build_fastpath(patterns: Sequence[Pattern]) -> object:
    from ..fastpath import build_fastpath

    return build_fastpath(_build_mfa(patterns))


_BUILDERS: dict[str, Callable[[Sequence[Pattern]], object]] = {
    "nfa": build_nfa,
    "dfa": lambda patterns: build_dfa(
        patterns, state_budget=STATE_BUDGET, time_budget=DFA_TIME_BUDGET
    ),
    "hfa": lambda patterns: build_hfa(patterns, state_budget=STATE_BUDGET),
    "xfa": lambda patterns: build_xfa(patterns, state_budget=STATE_BUDGET),
    "mfa": _build_mfa,
    "fastpath": _build_fastpath,
}


@lru_cache(maxsize=None)
def build_engine(set_name: str, engine_name: str) -> BuildResult:
    """Build one engine for one rule set, recording wall time (cached)."""
    patterns = patterns_for(set_name)
    builder = _BUILDERS[engine_name]
    start = time.perf_counter()
    try:
        engine = builder(patterns)
    except DfaExplosionError as exc:
        return BuildResult(
            set_name,
            engine_name,
            None,
            time.perf_counter() - start,
            error=f"exceeded {exc.budget} {exc.reason}",
            reason=exc.reason,
        )
    return BuildResult(set_name, engine_name, engine, time.perf_counter() - start)


@lru_cache(maxsize=None)
def build_resilient(set_name: str):
    """Resiliently compile a rule set through the engine fallback chain.

    Uses the environment knobs (:func:`repro.config.compile_limits`:
    ``REPRO_STATE_BUDGET`` seeds the escalation schedule,
    ``REPRO_FALLBACK_CHAIN`` the chain); returns a
    :class:`repro.robust.pipeline.CompileResult` whose ``report`` the CLI
    renders.  Unlike :func:`build_engine` this never returns a failure —
    the chain bottoms out at the NFA.

    MFA attempts go through the on-disk artifact cache unless
    ``REPRO_COMPILE_CACHE=0`` — repeated ``rcompile``/``rscan`` runs of
    the same set load in milliseconds instead of re-running subset
    construction.
    """
    from ..robust.pipeline import ResilientCompiler

    compiler = ResilientCompiler(limits=config.compile_limits(), cache=config.artifact_cache())
    return compiler.compile(list(ruleset(set_name).rules))


# -- traces -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _corpus_paths(set_name: str) -> dict[str, Path]:
    """Synthesize (once) the Fig. 4 trace-substitute pcaps for a rule set.

    Attack content is seeded from the rule set under test, as in the real
    corpora where captured exploits match the contemporary rules.
    """
    directory = results_dir() / "traces" / set_name
    return build_corpus(
        directory,
        patterns_for(set_name),
        profiles=PROFILES,
        scale=TRACE_SCALE,
        seed=2016,
    )


@lru_cache(maxsize=None)
def real_trace_flows(set_name: str, trace_name: str) -> tuple[bytes, ...]:
    """Reassembled flow payloads of one synthetic 'real-life' trace."""
    path = _corpus_paths(set_name)[trace_name]
    with open(path, "rb") as stream:
        packets = list(read_pcap(stream))
    assembler = FlowAssembler()
    assembler.add_all(packets)
    return tuple(flow.payload for flow in assembler.flows() if flow.payload)


@lru_cache(maxsize=None)
def synthetic_payload(set_name: str, p_match: float | None, length: int | None = None) -> bytes:
    """A Becchi-generated payload for the Fig. 5 difficulty sweep."""
    if length is None:
        length = max(2000, int(64_000 * TRACE_SCALE))
    nfa_result = build_engine(set_name, "nfa")
    assert nfa_result.engine is not None  # NFA construction never fails
    return generate_payload(nfa_result.engine, length, p_match, seed=5)


# -- measurement ---------------------------------------------------------------


def measure_run_cpb(
    engine: object,
    payloads: Sequence[bytes],
    repeats: int = 1,
    best_of: int = 2,
) -> float:
    """Cycles-per-byte of full matching (``run``) over the given payloads.

    Matching includes match collection and (for MFA/HFA/XFA) filter/update
    execution — that overhead on match-heavy traffic is precisely what
    Figures 4 and 5 compare.  The measurement is the best of ``best_of``
    timed passes after a short warm-up, which suppresses scheduler and GC
    spikes that would otherwise land on single cells of the figure
    matrices.
    """
    total_bytes = sum(len(p) for p in payloads) * repeats
    if total_bytes == 0:
        return 0.0
    # Short warm-up so first-touch effects (cold tables, lazy NFA move
    # tables) don't land in the first difficulty of a sweep.
    engine.run(payloads[0][:2048])  # type: ignore[attr-defined]
    best = None
    for _ in range(max(1, best_of)):
        start = time.perf_counter_ns()
        for _ in range(repeats):
            for payload in payloads:
                engine.run(payload)  # type: ignore[attr-defined]
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return cycles_per_byte(best, total_bytes)


def write_table(name: str, lines: Sequence[str]) -> Path:
    """Persist a printed table under results/ and echo it to stdout."""
    path = results_dir() / name
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    print(f"\n=== {name} ===")
    print(text)
    return path


def all_set_names() -> list[str]:
    """The paper's seven sets plus the tracked synthetic fixtures.

    ``R32`` is the redundant-family fixture for the cross-rule analyzer
    (duplicates, subsumption, an explosive contiguous tail) — included
    here so the default ``lint``/``rules``/``audit``/``prove`` sweeps
    exercise RS findings without a separate invocation.  Figure
    reproductions keep using :func:`ruleset_names` (paper sets only).
    """
    return ruleset_names() + ["R32"]
