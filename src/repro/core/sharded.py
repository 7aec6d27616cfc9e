"""The scan side of a sharded compile: per-shard engines as one matcher.

:func:`repro.fastcompile.compile_shards` builds one MFA per shard;
:class:`ShardedMFA` runs them side by side and merges their confirmed
streams into the canonical ``(pos, match_id)`` order (the order
:class:`~repro.automata.mdfa.MDFA` uses).  It lives apart from the
compiler so a serve worker can run a sharded artifact without importing
it, and apart from :mod:`repro.core.mfa` so a one-shard worker does not
load it at all.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..automata.nfa import MatchEvent

__all__ = ["ShardedContext", "ShardedMFA", "scan_batch"]


def scan_batch(engine: object, payloads: Sequence[bytes]) -> list[list[MatchEvent]]:
    """Each payload's events from one engine: a single lockstep
    ``run_batch`` where the engine has one, per-flow ``run`` otherwise."""
    run_batch = getattr(engine, "run_batch", None)
    if run_batch is not None:
        return run_batch(payloads)  # type: ignore[no-any-return]
    return [engine.run(payload) for payload in payloads]  # type: ignore[attr-defined]


class ShardedContext:
    """Per-flow state of a sharded engine: one sub-context per shard."""

    __slots__ = ("contexts", "offset")

    def __init__(self, sharded: "ShardedMFA"):
        shards = sharded.shards
        self.contexts = [shard.new_context() for shard in shards]  # type: ignore[attr-defined]
        self.offset = 0


class ShardedMFA:
    """Per-shard engines recombined into one multiplexed matcher.

    Shards are usually :class:`~repro.core.mfa.MFA` instances, but any engine with the
    ``run``/``new_context``/``feed``/``finish`` interface slots in — the
    resilient compiler exploits that to degrade a single exploding shard
    to a weaker engine while the rest stay MFAs.  Match-ids are assigned
    globally before partitioning, so alerts map back to the operator's
    rule list exactly as in a single-shot compile.

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

    # -- streaming (same trio as the MFA, for dispatch and replay) ----------

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
