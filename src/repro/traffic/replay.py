"""Capture replay with per-packet latency accounting.

A middlebox cares not only about mean throughput but about per-packet
processing latency under flow multiplexing — the operational side of the
paper's ``(q, m)``-per-flow claim.  :func:`replay` pushes a capture's
packets through an engine in timestamp order, one context per flow, and
records per-packet processing times; :class:`ReplayStats` summarises them
(mean/median/p99, per-byte cost, alert counts).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from ..automata.nfa import MatchEvent
from .flows import FiveTuple, Packet

__all__ = ["ReplayStats", "replay"]


@dataclass
class ReplayStats:
    """Aggregated results of one replay."""

    n_packets: int = 0
    n_flows: int = 0
    total_payload: int = 0
    n_alerts: int = 0
    n_poisoned: int = 0
    n_skipped: int = 0
    n_evicted: int = 0
    n_batches: int = 0  # feed_batch calls; 0 on the scalar path
    packet_ns: list[int] = field(default_factory=list)
    alerts: list[tuple[FiveTuple, MatchEvent]] = field(default_factory=list)
    errors: list[tuple[FiveTuple, str]] = field(default_factory=list)

    def _percentile(self, fraction: float) -> int:
        if not self.packet_ns:
            return 0
        ordered = sorted(self.packet_ns)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    @property
    def mean_ns(self) -> float:
        return sum(self.packet_ns) / len(self.packet_ns) if self.packet_ns else 0.0

    @property
    def p50_ns(self) -> int:
        return self._percentile(0.50)

    @property
    def p99_ns(self) -> int:
        return self._percentile(0.99)

    @property
    def ns_per_byte(self) -> float:
        if not self.total_payload:
            return 0.0
        return sum(self.packet_ns) / self.total_payload

    def describe(self) -> list[str]:
        lines = [
            f"packets: {self.n_packets}, flows: {self.n_flows}, "
            f"payload: {self.total_payload} B, alerts: {self.n_alerts}",
            f"per-packet latency: mean {self.mean_ns / 1e3:.1f} us, "
            f"p50 {self.p50_ns / 1e3:.1f} us, p99 {self.p99_ns / 1e3:.1f} us",
            f"per-byte cost: {self.ns_per_byte:.1f} ns/B",
        ]
        if self.n_batches:
            lines.append(
                f"batches: {self.n_batches} "
                f"({self.n_packets / self.n_batches:.1f} packets/batch)"
            )
        if self.n_poisoned or self.n_skipped or self.n_evicted:
            lines.append(
                f"degraded: {self.n_poisoned} flows poisoned, "
                f"{self.n_skipped} packets skipped, "
                f"{self.n_evicted} contexts evicted"
            )
        return lines


def replay(
    engine,
    packets: Iterable[Packet],
    collect_alerts: bool = True,
    errors: str = "raise",
    max_flows: int | None = None,
    batch_size: int | None = None,
) -> ReplayStats:
    """Drive ``engine`` (an MFA or anything with ``new_context``/``feed``/
    ``finish``) over packets in the given order, timing each packet.

    Packets must be in-order per flow (as produced by our capture writer
    and :func:`~repro.traffic.corpora.corpus_packets`); use
    :class:`~repro.traffic.flows.FlowAssembler` first when they may not be.

    ``errors="isolate"`` confines an engine exception to its flow: the
    flow is poisoned (context dropped, later packets skipped and counted)
    and the replay continues.  ``max_flows`` bounds the live context
    table; opening a flow past it finishes and evicts the least-recently-
    fed context, modelling a fixed-size flow table under port-scan load.

    ``batch_size`` switches to lockstep replay when the engine exposes
    ``feed_batch`` (the fastpath engine): every ``batch_size`` packets are
    scanned in one batch call, and a flow with several packets in a batch
    is fed them joined into one chunk, in arrival order.  The match stream
    is unchanged; per-packet latency becomes the batch cost shared among
    its packets in proportion to payload bytes, and ``n_batches`` counts
    the batch calls.  A batch is flushed early only before an eviction, so
    no context in a batch is ever evicted.  In ``isolate`` mode a batch
    failure poisons every flow that was in the failing batch, at most
    ``batch_size`` flows (the batch advances flows jointly, so blame
    cannot be pinned to one of them).
    """
    if errors not in ("raise", "isolate"):
        raise ValueError(f"errors must be 'raise' or 'isolate', not {errors!r}")
    if max_flows is not None and max_flows < 1:
        raise ValueError(f"max_flows must be at least 1, not {max_flows!r}")
    isolate = errors == "isolate"
    stats = ReplayStats()
    contexts: dict[FiveTuple, object] = {}
    poisoned: set[FiveTuple] = set()
    seen: set[FiveTuple] = set()
    perf = time.perf_counter_ns

    def drain(key: FiveTuple, context: object) -> None:
        try:
            events = list(engine.finish(context))
        except Exception as exc:  # noqa: BLE001
            if not isolate:
                raise
            stats.n_poisoned += 1
            stats.errors.append((key, f"engine error at finish: {exc}"))
            return
        for event in events:
            stats.n_alerts += 1
            if collect_alerts:
                stats.alerts.append((key, event))

    if batch_size is not None and batch_size > 1 and hasattr(engine, "feed_batch"):
        return _replay_batched(
            engine, packets, stats, contexts, poisoned, seen,
            drain, collect_alerts, isolate, max_flows, batch_size,
        )

    for packet in packets:
        if not packet.payload:
            continue
        key = packet.key
        if key in poisoned:
            stats.n_skipped += 1
            continue
        context = contexts.pop(key, None)
        if context is None:
            if max_flows is not None and len(contexts) >= max_flows:
                victim, victim_context = next(iter(contexts.items()))
                del contexts[victim]
                drain(victim, victim_context)
                stats.n_evicted += 1
            context = engine.new_context()
            seen.add(key)
        # Re-insert so dict order is feed recency (LRU eviction order).
        contexts[key] = context
        start = perf()
        try:
            events = list(engine.feed(context, packet.payload))
        except Exception as exc:  # noqa: BLE001
            if not isolate:
                raise
            poisoned.add(key)
            del contexts[key]
            stats.n_poisoned += 1
            stats.errors.append((key, f"engine error: {exc}"))
            continue
        elapsed = perf() - start
        stats.n_packets += 1
        stats.total_payload += len(packet.payload)
        stats.packet_ns.append(elapsed)
        if events:
            stats.n_alerts += len(events)
            if collect_alerts:
                stats.alerts.extend((key, event) for event in events)
    for key, context in contexts.items():
        drain(key, context)
    stats.n_flows = len(seen)
    return stats


def _replay_batched(
    engine,
    packets: Iterable[Packet],
    stats: ReplayStats,
    contexts: dict,
    poisoned: set,
    seen: set,
    drain,
    collect_alerts: bool,
    isolate: bool,
    max_flows: int | None,
    batch_size: int,
) -> ReplayStats:
    """Lockstep replay loop: pack ``batch_size`` packets, flush as one batch.

    A flow's packets in the open batch are joined into one chunk, in
    arrival order.  The context offset keeps event positions flow-absolute,
    so one feed of the joined chunk yields the same events and final
    context as feeding its packets one by one.
    """
    perf = time.perf_counter_ns
    pending: dict[FiveTuple, list[bytes]] = {}  # flow -> its packets' payloads
    sizes: list[int] = []  # payload length of every pending packet

    def flush() -> None:
        if not sizes:
            return
        keys = list(pending)
        stats.n_batches += 1
        start = perf()
        try:
            batch_events = engine.feed_batch(
                [contexts[key] for key in keys],
                [b"".join(pieces) for pieces in pending.values()],
            )
        except Exception as exc:  # noqa: BLE001
            if not isolate:
                raise
            # The batch advances its flows jointly; a failure mid-batch can
            # leave any of their contexts partially advanced, so all of them
            # are poisoned rather than guessing which flow is to blame.
            for key in keys:
                poisoned.add(key)
                del contexts[key]
                stats.n_poisoned += 1
                stats.errors.append((key, f"engine error in batch: {exc}"))
        else:
            elapsed = perf() - start
            batch_bytes = sum(sizes)
            stats.n_packets += len(sizes)
            stats.total_payload += batch_bytes
            stats.packet_ns.extend(round(elapsed * size / batch_bytes) for size in sizes)
            for key, events in zip(keys, batch_events):
                if events:
                    stats.n_alerts += len(events)
                    if collect_alerts:
                        stats.alerts.extend((key, event) for event in events)
        pending.clear()
        sizes.clear()

    for packet in packets:
        if not packet.payload:
            continue
        key = packet.key
        if key in poisoned:
            stats.n_skipped += 1
            continue
        context = contexts.pop(key, None)
        if context is None:
            if max_flows is not None and len(contexts) >= max_flows:
                flush()  # never evict a context that is sitting in a batch
                if len(contexts) >= max_flows:
                    victim, victim_context = next(iter(contexts.items()))
                    del contexts[victim]
                    drain(victim, victim_context)
                    stats.n_evicted += 1
            context = engine.new_context()
            seen.add(key)
        contexts[key] = context
        pending.setdefault(key, []).append(packet.payload)
        sizes.append(len(packet.payload))
        if len(sizes) >= batch_size:
            flush()
    flush()
    for key, context in contexts.items():
        drain(key, context)
    stats.n_flows = len(seen)
    return stats
