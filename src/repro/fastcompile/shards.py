"""Sharded parallel MFA compilation with per-shard incremental caching.

Rule-shard compiles are embarrassingly parallel: the MFA splitter treats
every pattern independently (its components and filter bits never interact
with another pattern's), so a rule set partitioned into shards compiles
into per-shard MFAs whose *union* of confirmed matches is exactly the
single-shot engine's stream.  That is the same multiplexing argument the
:class:`repro.automata.mdfa.MDFA` baseline makes for group DFAs — here
applied at the compile pipeline level, where it buys three things:

* **less work** — subset construction is superlinear in the number of
  interacting dot-star rules, so k shards cost less than one combined
  build even on a single core;
* **parallelism** — shards compile in a ``ProcessPoolExecutor``
  (``jobs=``), each worker round-tripping its artifact through the
  versioned :mod:`repro.core.serialize` bundle format;
* **incrementality** — each shard is keyed separately in the
  :class:`repro.fastpath.ArtifactCache`, so editing one rule re-builds
  only the shard containing it.

:func:`compile_shards` is the one MFA build path: :func:`repro.core.compile_mfa`
(plain, cached or sharded), the resilient compiler's MFA attempts and the
scan daemon all build through it, and it is the only code that keys,
loads and stores the artifact cache.  The recombination layer,
:class:`~repro.core.sharded.ShardedMFA`, lives on the scan side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..automata.dfa import DEFAULT_STATE_BUDGET
from ..core.mfa import build_mfa
from ..core.splitter import SplitterOptions
from ..regex.ast import Pattern
from ..regex.parser import ParserOptions

__all__ = ["ShardBuild", "partition_patterns", "compile_shards"]


@dataclass(frozen=True, slots=True)
class ShardBuild:
    """Outcome of one shard compile: the engine or the error, plus whether
    it came from the artifact cache and how long the build itself took.

    :func:`compile_shards` only builds MFAs; the resilient compiler
    records its fallback-engine builds in the same shape."""

    engine: object | None
    error: Exception | None
    cached: bool
    seconds: float

    @property
    def ok(self) -> bool:
        return self.engine is not None


def partition_patterns(
    patterns: Sequence[Pattern], shards: int
) -> list[list[Pattern]]:
    """Split ``patterns`` into at most ``shards`` contiguous, non-empty chunks.

    Contiguity is what makes the per-shard cache keys incremental-friendly:
    editing rule *i* changes the content (and therefore the key) of exactly
    one chunk, so a re-compile misses only that shard.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    n = len(patterns)
    if n == 0:
        return []
    shards = min(shards, n)
    base, extra = divmod(n, shards)
    out: list[list[Pattern]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(list(patterns[start : start + size]))
        start += size
    return out


def _compile_shard_worker(
    payload: tuple,
) -> tuple[bool, object, dict[str, float], float]:
    """Pool worker: compile one shard, return its serialized bundle.

    Runs in a separate process, so the result crosses back as the
    versioned bundle bytes of :func:`repro.core.serialize.dumps_mfa`
    rather than a pickled object graph.  Failures come back as a tagged
    ``(False, (type_name, message, reason), phases, seconds)`` tuple —
    exceptions with non-trivial constructors (e.g. ``DfaExplosionError``)
    do not round-trip reliably through pickle.
    """
    from ..core.serialize import dumps_mfa

    patterns, splitter_options, state_budget, time_budget, compress = payload
    phases: dict[str, float] = {}
    tick = time.perf_counter()
    try:
        mfa = build_mfa(
            patterns,
            splitter_options,
            state_budget=state_budget,
            time_budget=time_budget,
            phases=phases,
            compress=compress,
        )
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        elapsed = time.perf_counter() - tick
        info = (type(exc).__name__, str(exc), getattr(exc, "reason", None))
        return False, info, phases, elapsed
    return True, dumps_mfa(mfa), phases, time.perf_counter() - tick


def compile_shards(
    shard_patterns: Sequence[Sequence[Pattern]],
    splitter_options: SplitterOptions | None = None,
    parser_options: ParserOptions | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
    time_budget: float | None = None,
    jobs: int = 1,
    cache=None,
    phases: dict[str, float] | None = None,
    compress: int = 0,
) -> list[ShardBuild]:
    """Compile each shard to an MFA, in parallel when ``jobs > 1``.

    Returns one :class:`ShardBuild` per shard: the compiled :class:`MFA`,
    or the exception that shard raised (so callers — the resilient
    compiler — can degrade a single shard without losing the others).
    With a ``cache`` (:class:`repro.fastpath.ArtifactCache`), each shard
    is looked up and stored under its own key over its parsed patterns
    and every compile option, which is what makes one-rule edits rebuild
    one shard; ``cache.hits`` counts the shards that were loaded.
    """
    if cache is not None:
        from ..fastpath.cache import cache_key

    results: list[ShardBuild | None] = [None] * len(shard_patterns)
    keys: list[str | None] = [None] * len(shard_patterns)
    to_build: list[int] = []
    for index, shard in enumerate(shard_patterns):
        if cache is not None:
            keys[index] = cache_key(
                list(shard),
                splitter_options=splitter_options,
                parser_options=parser_options,
                state_budget=state_budget,
                compress=compress,
            )
            tick = time.perf_counter()
            cached = cache.load(keys[index])
            if cached is not None:
                results[index] = ShardBuild(
                    cached, None, True, time.perf_counter() - tick
                )
                continue
        to_build.append(index)

    def record_phases(sub: dict[str, float]) -> None:
        if phases is not None:
            for name, seconds in sub.items():
                phases[name] = phases.get(name, 0.0) + seconds

    def rebuild_error(info: object) -> Exception:
        from ..automata.dfa import DfaExplosionError

        type_name, message, reason = info  # type: ignore[misc]
        if type_name == "DfaExplosionError":
            if time_budget is not None and reason == "seconds":
                return DfaExplosionError(time_budget, "seconds")
            return DfaExplosionError(state_budget, reason or "states")
        return RuntimeError(f"{type_name}: {message}")

    workers = min(jobs, len(to_build))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        from ..core.serialize import loads_mfa

        payloads = [
            (list(shard_patterns[index]), splitter_options, state_budget, time_budget, compress)
            for index in to_build
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, (ok, blob, sub_phases, seconds) in zip(
                to_build, pool.map(_compile_shard_worker, payloads)
            ):
                record_phases(sub_phases)
                if ok:
                    results[index] = ShardBuild(loads_mfa(blob), None, False, seconds)
                else:
                    results[index] = ShardBuild(None, rebuild_error(blob), False, seconds)
    else:
        for index in to_build:
            sub_phases: dict[str, float] = {}
            tick = time.perf_counter()
            try:
                built = build_mfa(
                    shard_patterns[index],
                    splitter_options,
                    state_budget=state_budget,
                    time_budget=time_budget,
                    phases=sub_phases,
                    compress=compress,
                )
                results[index] = ShardBuild(
                    built, None, False, time.perf_counter() - tick
                )
            except Exception as exc:  # noqa: BLE001 - per-shard isolation
                results[index] = ShardBuild(
                    None, exc, False, time.perf_counter() - tick
                )
            record_phases(sub_phases)

    if cache is not None:
        for index in to_build:
            built = results[index]
            if built is not None and built.engine is not None and keys[index] is not None:
                cache.store(keys[index], built.engine)
    return results  # type: ignore[return-value]
