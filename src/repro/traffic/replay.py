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
    n_batches: int = 0  # batches scanned: feed_batch calls, or packets fed one by one
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

    Packets are scanned in batches, and ``n_batches`` counts them.  When
    the engine exposes ``feed_batch`` (the fastpath engine), every
    ``batch_size`` packets are one lockstep call, and a flow with several
    packets in a batch is fed them joined into one chunk, in arrival
    order; otherwise, or without a ``batch_size`` above 1, each packet is
    its own batch, fed through ``feed``.  The match stream is the same
    either way.  Per-packet latency is the batch cost shared among its
    packets in proportion to payload bytes.  A batch is flushed early only
    before an eviction, so no context in a batch is ever evicted.  In
    ``isolate`` mode a batch failure poisons every flow that was in the
    failing batch, at most ``batch_size`` flows (the batch advances flows
    jointly, so blame cannot be pinned to one of them).
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
    pending: dict[FiveTuple, list[bytes]] = {}  # flow -> its packets' payloads
    sizes: list[int] = []  # payload length of every pending packet
    perf = time.perf_counter_ns

    def feed_one(batch_contexts: list, chunks: list[bytes]) -> list:
        return [list(engine.feed(batch_contexts[0], chunks[0]))]

    feed_batch = getattr(engine, "feed_batch", None)
    if feed_batch is None or batch_size is None or batch_size < 2:
        feed_batch, batch_size = feed_one, 1
    failure = "engine error in batch" if batch_size > 1 else "engine error"

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

    def flush() -> None:
        if not sizes:
            return
        keys = list(pending)
        stats.n_batches += 1
        start = perf()
        try:
            batch_events = feed_batch(
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
                stats.errors.append((key, f"{failure}: {exc}"))
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
        # Re-insert so dict order is feed recency (LRU eviction order).
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
