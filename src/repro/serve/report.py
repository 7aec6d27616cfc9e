"""Health and degradation accounting for the scan daemon.

:class:`ServeReport` extends the batch :class:`~repro.robust.report.ScanReport`
with the serving-side story: per-worker throughput, restart and shed
counters, reload history and the active artifact generation.  It is the
single health surface — queryable live over the control socket, dumped
as JSON on SIGTERM, and asserted on by the soak tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable

from ..robust.report import ScanReport
from ..traffic.flows import FlowMatch

__all__ = ["WorkerStats", "ReloadEvent", "ServeReport", "canonical_stream"]


@dataclass(slots=True)
class WorkerStats:
    """One worker slot's lifetime counters (across restarts)."""

    worker_id: int
    pid: int | None = None
    generation: int = 0
    flows: int = 0
    # Scanned batches (one run_batch each); busy_seconds accrues per batch.
    batches: int = 0
    bytes_scanned: int = 0
    alerts: int = 0
    restarts: int = 0
    busy_seconds: float = 0.0
    load_seconds: float = 0.0
    last_error: str | None = None

    @property
    def throughput_bps(self) -> float:
        """Payload bytes per second of actual scan time (not wall time)."""
        if self.busy_seconds <= 0:
            return 0.0
        return self.bytes_scanned / self.busy_seconds

    @property
    def flows_per_batch(self) -> float:
        """Mean scanned flows per batch: how much batching the slot saw."""
        if self.batches <= 0:
            return 0.0
        return self.flows / self.batches


@dataclass(frozen=True, slots=True)
class ReloadEvent:
    """One live rule reload: what was rebuilt and how long the swap took."""

    generation: int
    shards_rebuilt: int
    shards_cached: int
    seconds: float
    drained: bool = True


@dataclass(slots=True)
class ServeReport(ScanReport):
    """Everything a batch scan reports, plus the daemon's service health."""

    workers: list[WorkerStats] = field(default_factory=list)
    reloads: list[ReloadEvent] = field(default_factory=list)
    generation: int = 0
    n_workers: int = 0
    flows_shed: int = 0
    flows_quarantined: int = 0
    restarts: int = 0
    hangs: int = 0
    uptime_seconds: float = 0.0
    # Exceptions swallowed by the daemon's own threads (collector /
    # supervisor) to stay alive — never fatal, never silent.
    internal_errors: list[str] = field(default_factory=list)

    # Explicit base-class calls: zero-arg super() is broken inside
    # @dataclass(slots=True) methods (slots recreates the class, so the
    # compiler's __class__ cell points at the discarded original).

    @property
    def degraded(self) -> bool:  # type: ignore[override]
        return bool(
            ScanReport.degraded.fget(self)  # type: ignore[attr-defined]
            or self.flows_shed
            or self.flows_quarantined
            or self.restarts
        )

    def to_dict(self) -> dict:
        doc = ScanReport.to_dict(self)
        doc.update(
            {
                "generation": self.generation,
                "n_workers": self.n_workers,
                "flows_shed": self.flows_shed,
                "flows_quarantined": self.flows_quarantined,
                "restarts": self.restarts,
                "hangs": self.hangs,
                "uptime_seconds": self.uptime_seconds,
                "internal_errors": list(self.internal_errors),
                "workers": [
                    dict(
                        asdict(w),
                        throughput_bps=w.throughput_bps,
                        flows_per_batch=w.flows_per_batch,
                    )
                    for w in self.workers
                ],
                "reloads": [asdict(r) for r in self.reloads],
            }
        )
        return doc

    def describe(self) -> list[str]:
        lines = ScanReport.describe(self)
        lines.append(
            f"serve: generation {self.generation}, {self.n_workers} worker(s), "
            f"{self.restarts} restart(s) ({self.hangs} hang(s)), "
            f"{self.flows_shed} shed, {self.flows_quarantined} quarantined, "
            f"{len(self.reloads)} reload(s), up {self.uptime_seconds:.1f}s"
        )
        for w in self.workers:
            mbps = w.throughput_bps / 1e6
            lines.append(
                f"  worker {w.worker_id}: {w.flows} flows in {w.batches} "
                f"batch(es) ({w.flows_per_batch:.1f} flows/batch), "
                f"{w.bytes_scanned} B ({mbps:.1f} MB/s), {w.alerts} alerts, "
                f"{w.restarts} restart(s), gen {w.generation}"
                + (f", last error: {w.last_error}" if w.last_error else "")
            )
        for r in self.reloads:
            lines.append(
                f"  reload -> gen {r.generation}: {r.shards_rebuilt} shard(s) "
                f"rebuilt, {r.shards_cached} cached, {r.seconds * 1e3:.1f} ms"
                + ("" if r.drained else " (old generation not fully drained)")
            )
        return lines


def canonical_stream(alerts: Iterable[FlowMatch]) -> list[tuple]:
    """A deterministic rendering of a match stream for cross-run diffs.

    Workers complete flows in nondeterministic order, but each flow's
    events are deterministic, so sorting by (flow key, position,
    match id) yields a stream that is byte-identical between the daemon
    and a single-process :func:`~repro.robust.pipeline.resilient_scan`
    of the same traffic.
    """
    return sorted(
        (
            alert.key.proto,
            alert.key.src_ip,
            alert.key.src_port,
            alert.key.dst_ip,
            alert.key.dst_port,
            alert.event.pos,
            alert.event.match_id,
        )
        for alert in alerts
    )
