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

:class:`ShardedMFA` is the recombination layer: per-shard engines run side
by side and their confirmed streams merge into the canonical
``(pos, match_id)`` order (the order :class:`~repro.automata.mdfa.MDFA`
uses).  Because match-ids are assigned globally *before* partitioning,
alerts map back to the operator's rule list exactly as in a single-shot
compile.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..automata.dfa import DEFAULT_STATE_BUDGET
from ..automata.nfa import MatchEvent
from ..core.compiler import compile_patterns
from ..core.mfa import MFA, build_mfa
from ..core.splitter import SplitterOptions
from ..regex.ast import Pattern
from ..regex.parser import ParserOptions

__all__ = [
    "ShardBuild",
    "ShardedMFA",
    "ShardedContext",
    "partition_patterns",
    "compile_shards",
    "compile_mfa_sharded",
    "scan_batch",
]


@dataclass(frozen=True, slots=True)
class ShardBuild:
    """Outcome of one shard compile: the engine or the error, plus whether
    it came from the artifact cache and how long the build itself took."""

    engine: MFA | None
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


def scan_batch(engine: object, payloads: Sequence[bytes]) -> list[list[MatchEvent]]:
    """Each payload's events from one engine: a single lockstep
    ``run_batch`` where the engine has one, per-flow ``run`` otherwise."""
    run_batch = getattr(engine, "run_batch", None)
    if run_batch is not None:
        return run_batch(payloads)
    return [engine.run(payload) for payload in payloads]  # type: ignore[attr-defined]


class ShardedContext:
    """Per-flow state of a sharded engine: one sub-context per shard."""

    __slots__ = ("contexts", "offset")

    def __init__(self, sharded: "ShardedMFA"):
        self.contexts = [shard.new_context() for shard in sharded.shards]
        self.offset = 0


class ShardedMFA:
    """Per-shard engines recombined into one multiplexed matcher.

    Shards are usually :class:`~repro.core.mfa.MFA` instances, but any
    engine with the ``run``/``new_context``/``feed``/``finish`` interface
    slots in — the resilient compiler exploits that to degrade a single
    exploding shard to a weaker engine while the rest stay MFAs.

    Confirmed matches are reported in the canonical ``(pos, match_id)``
    order within each fed chunk (chunk boundaries align across shards, so
    the global stream is ordered too).
    """

    def __init__(self, shards: Sequence[object]):
        if not shards:
            raise ValueError("ShardedMFA needs at least one shard")
        self.shards = list(shards)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_states(self) -> int:
        return sum(shard.n_states for shard in self.shards)  # type: ignore[attr-defined]

    def memory_bytes(self) -> int:
        return sum(shard.memory_bytes() for shard in self.shards)  # type: ignore[attr-defined]

    # -- matching ------------------------------------------------------------

    def run(self, data: bytes) -> list[MatchEvent]:
        """Every confirmed match, merged across shards and sorted into the
        canonical ``(pos, match_id)`` order."""
        out: list[MatchEvent] = []
        for shard in self.shards:
            out.extend(shard.run(data))  # type: ignore[attr-defined]
        out.sort()
        return out

    def run_batch(self, payloads: Sequence[bytes]) -> list[list[MatchEvent]]:
        """:meth:`run` for N payloads, each shard scanning all of them in
        one :func:`scan_batch` call (lockstep for fastpath shards)."""
        out: list[list[MatchEvent]] = [[] for _ in payloads]
        for shard in self.shards:
            for events, found in zip(out, scan_batch(shard, payloads)):
                events.extend(found)
        for events in out:
            events.sort()
        return out

    def matches(self, data: bytes) -> bool:
        return any(shard.run(data) for shard in self.shards)  # type: ignore[attr-defined]

    # -- streaming (same trio as the MFA, for dispatch/replay drivers) ------

    def new_context(self) -> ShardedContext:
        return ShardedContext(self)

    def feed(self, context: ShardedContext, data: bytes) -> Iterator[MatchEvent]:
        events: list[MatchEvent] = []
        for shard, sub in zip(self.shards, context.contexts):
            events.extend(shard.feed(sub, data))  # type: ignore[attr-defined]
        context.offset += len(data)
        events.sort()
        yield from events

    def finish(self, context: ShardedContext) -> Iterator[MatchEvent]:
        events: list[MatchEvent] = []
        for shard, sub in zip(self.shards, context.contexts):
            events.extend(shard.finish(sub))  # type: ignore[attr-defined]
        events.sort()
        yield from events


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

    (
        patterns,
        splitter_options,
        state_budget,
        time_budget,
        minimize,
        prefilter,
        compress,
    ) = payload
    phases: dict[str, float] = {}
    tick = time.perf_counter()
    try:
        mfa = build_mfa(
            patterns,
            splitter_options,
            state_budget=state_budget,
            minimize=minimize,
            time_budget=time_budget,
            phases=phases,
            prefilter=prefilter,
            compress=compress,
        )
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        elapsed = time.perf_counter() - tick
        info = (type(exc).__name__, str(exc), getattr(exc, "reason", None))
        return False, info, phases, elapsed
    return True, dumps_mfa(mfa), phases, time.perf_counter() - tick


def _shard_cache_key(
    shard: Sequence[Pattern],
    splitter_options: SplitterOptions | None,
    parser_options: ParserOptions | None,
    state_budget: int,
    minimize: bool,
    prefilter: bool,
    compress: int,
) -> str:
    from ..fastpath.cache import cache_key

    return cache_key(
        list(shard),
        splitter_options=splitter_options,
        parser_options=parser_options,
        state_budget=state_budget,
        minimize=minimize,
        prefilter=prefilter,
        compress=compress,
    )


def compile_shards(
    shard_patterns: Sequence[Sequence[Pattern]],
    splitter_options: SplitterOptions | None = None,
    parser_options: ParserOptions | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
    time_budget: float | None = None,
    minimize: bool = False,
    jobs: int = 1,
    cache=None,
    phases: dict[str, float] | None = None,
    prefilter: bool = True,
    compress: "bool | int | None" = None,
) -> list[ShardBuild]:
    """Compile each shard to an MFA, in parallel when ``jobs > 1``.

    Returns one :class:`ShardBuild` per shard: the compiled :class:`MFA`,
    or the exception that shard raised (so callers — the resilient
    compiler — can degrade a single shard without losing the others).
    With a ``cache`` (:class:`repro.fastpath.ArtifactCache`), each shard
    is looked up and stored under its own content key, which is what
    makes one-rule edits rebuild one shard.
    """
    from ..automata.compress import resolve_compress_option
    from ..core.serialize import loads_mfa

    # Resolve env-deferred options once here so pool workers and cache
    # keys see one explicit chain-depth integer.
    depth = resolve_compress_option(compress)
    results: list[ShardBuild | None] = [None] * len(shard_patterns)
    keys: list[str | None] = [None] * len(shard_patterns)
    to_build: list[int] = []
    for index, shard in enumerate(shard_patterns):
        if cache is not None:
            keys[index] = _shard_cache_key(
                shard, splitter_options, parser_options, state_budget, minimize,
                prefilter, depth,
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
        payloads = [
            (
                list(shard_patterns[index]),
                splitter_options,
                state_budget,
                time_budget,
                minimize,
                prefilter,
                depth,
            )
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
                    minimize=minimize,
                    time_budget=time_budget,
                    phases=sub_phases,
                    prefilter=prefilter,
                    compress=depth,
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


def compile_mfa_sharded(
    rules: Sequence[str | Pattern],
    splitter_options: SplitterOptions | None = None,
    parser_options: ParserOptions | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
    time_budget: float | None = None,
    minimize: bool = False,
    shards: int = 2,
    jobs: int = 1,
    cache=None,
    phases: dict[str, float] | None = None,
    prefilter: bool = True,
    compress: "bool | int | None" = None,
    shard_plan: str = "contiguous",
) -> ShardedMFA | MFA:
    """Parse, partition and compile a rule set as parallel shards.

    Match-ids are assigned globally (1-based input position) before
    partitioning, so the recombined engine reports exactly the ids a
    single-shot :func:`repro.core.compile_mfa` would — under *any*
    partition, which is what makes ``shard_plan`` safe.  ``"contiguous"``
    (the default) keeps the incremental-cache-friendly chunks of
    :func:`partition_patterns`; ``"interaction"`` asks
    :func:`repro.analyze.ruleset.plan_shards` for an assignment that
    spreads explosive rules across shards instead of letting appended
    neighbors multiply one shard's subset construction.  ``shards <= 1``
    degenerates to the single-shot compile and returns a plain
    :class:`MFA`.  A shard failure propagates — use
    :class:`repro.robust.ResilientCompiler` (``shards=``) for per-shard
    degradation instead.
    """
    import time as _time

    tick = _time.perf_counter()
    patterns = compile_patterns(rules, parser_options)
    if phases is not None:
        phases["parse"] = phases.get("parse", 0.0) + (_time.perf_counter() - tick)
    if shards <= 1 or len(patterns) <= 1:
        built = compile_shards(
            [patterns],
            splitter_options,
            parser_options,
            state_budget,
            time_budget,
            minimize,
            jobs=1,
            cache=cache,
            phases=phases,
            prefilter=prefilter,
            compress=compress,
        )[0]
        if built.error is not None:
            raise built.error
        return built.engine
    if shard_plan == "contiguous":
        shard_patterns = partition_patterns(patterns, shards)
    elif shard_plan == "interaction":
        # Lazy import: repro.analyze imports this package at module load.
        from ..analyze.ruleset import plan_shards

        plan = plan_shards(patterns, shards, splitter_options=splitter_options)
        shard_patterns = [
            [patterns[i] for i in chunk] for chunk in plan.assignments
        ]
    else:
        raise ValueError(f"unknown shard_plan {shard_plan!r}")
    results = compile_shards(
        shard_patterns,
        splitter_options,
        parser_options,
        state_budget,
        time_budget,
        minimize,
        jobs=jobs,
        cache=cache,
        phases=phases,
        prefilter=prefilter,
        compress=compress,
    )
    for built in results:
        if built.error is not None:
            raise built.error
    return ShardedMFA([built.engine for built in results])
