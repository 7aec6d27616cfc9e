"""The long-lived scan daemon: supervisor, bounded ingress, live reload.

:class:`ScanDaemon` turns the batch pipeline into a service:

* the rule set compiles once (per-shard, through the
  :class:`~repro.fastpath.cache.ArtifactCache`) and lives in a shared
  memory :class:`~repro.serve.shm.ArtifactSegment` that every worker
  maps copy-free;
* N supervised worker processes scan batches of whole reassembled
  flows, one lockstep ``run_batch`` per batch; the supervisor detects
  death (crash), hangs (heartbeat timeout — the poison-loop case) and
  restarts the slot with exponential backoff, re-dispatching the dead
  worker's undone flows, splitting a batch that killed a worker into
  one-flow batches, and quarantining a flow that keeps killing workers;
* ingress is bounded: each worker slot accepts at most ``queue_depth``
  outstanding flows, and a full daemon either blocks the submitter
  (backpressure, the default) or sheds the flows with an explicit
  counter — there is no unbounded queue and no silent drop anywhere;
* :meth:`reload` recompiles only the shards whose rules changed (cache
  hits for the rest), publishes a new segment generation, and swaps it
  in-band so every in-flight flow drains on the generation it started
  on — no flow ever observes a torn artifact;
* :meth:`status` returns a live :class:`~repro.serve.report.ServeReport`
  and :meth:`stop` is the graceful-shutdown contract (drain, reap,
  unlink, final report).

Match delivery is *exactly-once* per flow: workers report whole-batch
results atomically, the supervisor's per-flow ledger re-dispatches
anything unreported after a death, and a late duplicate result (sent in
the race between a report and a crash) is discarded by flow id.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from multiprocessing import connection as mp_connection
from collections import OrderedDict
from dataclasses import dataclass
from io import BytesIO
from os import PathLike
from typing import BinaryIO, Iterable, Sequence

from ..automata.dfa import DEFAULT_STATE_BUDGET
from ..automata.nfa import MatchEvent
from ..core.compiler import compile_mfa
from ..core.splitter import SplitterOptions
from ..fastpath.engine import PREFILTER_MODES
from ..regex.ast import Pattern
from ..regex.parser import ParserOptions
from ..traffic.flows import FiveTuple, Flow, FlowAssembler, FlowLimits, FlowMatch, Packet
from ..traffic.pcap import read_pcap
from .report import ReloadEvent, ServeReport, WorkerStats
from .shm import ArtifactSegment, serialize_engine
from .worker import worker_main

__all__ = ["ServeConfig", "ScanDaemon", "serve_scan"]

_TICK_SECONDS = 0.05


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Service-side knobs (compile-side knobs ride on the constructor).

    ``queue_depth`` bounds outstanding flows per worker, and with them
    the in-flight payload memory (``queue_depth`` × flow size per
    worker); :func:`serve_scan` hands flows over in batches of half of
    it, so one batch scans while the next waits.  ``shed=True`` turns
    backpressure blocking into counted load-shedding.  ``hang_timeout``
    is how stale a busy worker's heartbeat may go before the supervisor
    declares a hang — the heartbeat ticks between batches, so it must
    exceed the worst honest single-*batch* scan time.
    ``max_flow_kills`` is the quarantine threshold: a flow that has
    killed that many workers on its own is abandoned (counted and
    attributed) instead of retried forever.  ``faults`` arms the
    deterministic in-payload fault hooks of :mod:`repro.serve.worker`
    (tests and soak only).
    """

    workers: int = 2
    engine: str = "mfa"
    # Prefilter disposition for fastpath workers ("auto"/"off"); the mfa
    # engine ignores it.  Recorded in the ServeReport either way.
    prefilter: str = "auto"
    # Default-transition compression of the shared-memory bundles: a
    # chain-depth bound (0 = dense).  Workers map the compressed image
    # zero-copy and flatten it per-worker, so N workers share one small
    # artifact segment.
    compress: int = 0
    # Two 64-flow batches (FastPathMFA.batch_hint): one scanning, one
    # queued behind it.
    queue_depth: int = 128
    shed: bool = False
    hang_timeout: float = 30.0
    max_flow_kills: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    backoff_reset: float = 30.0
    ready_timeout: float = 60.0
    reload_timeout: float = 30.0
    faults: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.engine not in ("mfa", "fastpath"):
            raise ValueError(f"unknown serve engine {self.engine!r}")
        if self.prefilter not in PREFILTER_MODES:
            raise ValueError(f"unknown prefilter mode {self.prefilter!r}")
        if self.compress < 0:
            raise ValueError("compress chain depth must be >= 0")


class _Slot:
    """One supervised worker position (stable across restarts)."""

    __slots__ = (
        "worker_id",
        "process",
        "queue",
        "assigned",
        "generation",
        "ready",
        "respawn_at",
        "consecutive_kills",
        "last_death",
        "stats",
        "result_recv",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process = None
        self.queue = None
        # flow_id -> first flow_id of its batch, in dispatch order; the
        # re-dispatch ledger (a batch's flows are contiguous in it).
        self.assigned: "OrderedDict[int, int]" = OrderedDict()
        self.generation = 0
        self.ready = False
        self.respawn_at: float | None = None
        self.consecutive_kills = 0
        self.last_death = 0.0
        self.stats = WorkerStats(worker_id)
        # The daemon-side end of this worker's private result pipe.
        # Results deliberately do NOT ride a shared multiprocessing.Queue:
        # its write side is guarded by a cross-process lock, and a worker
        # SIGKILLed mid-put would leave that lock held forever, wedging
        # every other worker's results.  One single-writer pipe per
        # worker means a kill can only sever that worker's own stream.
        self.result_recv = None


class ScanDaemon:
    """Compile once, serve forever: the supervised multi-process matcher."""

    def __init__(
        self,
        rules: Sequence[str | Pattern],
        shards: int = 1,
        config: ServeConfig | None = None,
        cache=None,
        splitter_options: SplitterOptions | None = None,
        parser_options: ParserOptions | None = None,
        state_budget: int = DEFAULT_STATE_BUDGET,
        engine: object | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.rules = list(rules)
        self.shards = max(1, shards)
        self.cache = cache
        self.splitter_options = splitter_options
        self.parser_options = parser_options
        self.state_budget = state_budget
        self._prebuilt = engine
        self.report = ServeReport(n_workers=self.config.workers)
        self.alerts: list[FlowMatch] = []
        # Spawn, never fork: the collector and supervisor threads run while
        # workers (re)start.  A spawned worker unpickles its target,
        # ``repro.serve.worker.worker_main``, and imports only the scan path.
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._slots = [_Slot(i) for i in range(self.config.workers)]
        # Result pipes of dead workers, kept until their buffered final
        # messages are drained to EOF by the collector.
        self._draining_conns: list = []
        self._heartbeat = None
        self._active_flow = None
        self._segment: ArtifactSegment | None = None
        self._retired: list[ArtifactSegment] = []
        self._generation = 0
        self._next_flow_id = 0
        # flow_id -> (slot_id, key, payload): everything submitted and
        # not yet completed/poisoned/quarantined.
        self._inflight: dict[int, tuple[int, FiveTuple, bytes]] = {}
        self._kill_counts: dict[int, int] = {}
        self._submitted = 0
        self._completed = 0
        self._running = False
        self._threads: list[threading.Thread] = []
        self._started_at = 0.0

    # -- compile and segment construction ------------------------------------

    def _compile_bundles(self, rules: Sequence[str | Pattern]) -> tuple[list[bytes], int, int]:
        """Per-shard bundles for a rule list, through the artifact cache.

        Returns ``(bundles, rebuilt, cached)``; ``cached`` is how many
        shards the compile loaded from the cache (its ``hits`` delta).
        Any shard failure propagates — the daemon's contract is a
        servable MFA per shard; degraded serving is the batch pipeline's
        job.
        """
        hits = self.cache.hits if self.cache is not None else 0
        engine = compile_mfa(
            list(rules),
            self.splitter_options,
            self.parser_options,
            self.state_budget,
            shards=self.shards,
            cache=self.cache,
            compress=self.config.compress,
        )
        bundles = serialize_engine(engine)
        cached = self.cache.hits - hits if self.cache is not None else 0
        return bundles, len(bundles) - cached, cached

    def _worker_config(self) -> dict:
        return {
            "engine": self.config.engine,
            "prefilter": self.config.prefilter,
            "faults": self.config.faults,
        }

    def _spawn_locked(self, slot: _Slot) -> None:
        """(Re)start one worker slot against the current generation."""
        assert self._segment is not None
        slot.queue = self._ctx.Queue()
        slot.generation = self._generation
        slot.ready = False
        slot.respawn_at = None
        if slot.result_recv is not None:
            # The dead worker's pipe may still hold final messages; the
            # collector drains it to EOF before closing it.
            self._draining_conns.append(slot.result_recv)
            slot.result_recv = None
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        slot.result_recv = result_recv
        # Re-dispatch the ledger: everything assigned to this slot that
        # never reported lands in the fresh queue, oldest first, in the
        # batches the ledger records.
        batches: dict[int, list[tuple[int, FiveTuple, bytes]]] = {}
        for flow_id, head in slot.assigned.items():
            _slot_id, key, payload = self._inflight[flow_id]
            batches.setdefault(head, []).append((flow_id, key, payload))
        for batch in batches.values():
            slot.queue.put(("flows", batch))
        process = self._ctx.Process(
            target=worker_main,
            args=(
                slot.worker_id,
                self._segment.name,
                self._generation,
                slot.queue,
                result_send,
                self._heartbeat,
                self._active_flow,
                self._worker_config(),
            ),
            daemon=True,
        )
        process.start()
        # Close the daemon's copy of the send end: the worker now holds
        # the only writer, so its death EOFs the pipe.
        result_send.close()
        slot.process = process
        self._heartbeat[slot.worker_id] = time.time()
        self._active_flow[slot.worker_id] = -1
        slot.stats.pid = process.pid
        slot.stats.generation = self._generation

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ScanDaemon":
        if self._running:
            raise RuntimeError("daemon already started")
        if self._prebuilt is not None:
            bundles = serialize_engine(self._prebuilt)
            self.shards = len(bundles)
        else:
            bundles, _rebuilt, _cached = self._compile_bundles(self.rules)
        self._generation = 1
        self._segment = ArtifactSegment.create(bundles, self._generation)
        self._heartbeat = self._ctx.Array("d", self.config.workers, lock=False)
        self._active_flow = self._ctx.Array("q", self.config.workers, lock=False)
        self._running = True
        self._started_at = time.time()
        self.report.generation = self._generation
        if self.config.engine == "fastpath":
            # Workers build their engines process-locally; mirror the
            # disposition they will resolve so status() can report it.
            from ..core.serialize import BUNDLE_MAGIC

            self.report.prefilter_mode = self.config.prefilter
            self.report.prefilter_active = self.config.prefilter != "off" and any(
                not blob.startswith(BUNDLE_MAGIC) for blob in bundles
            )
        with self._lock:
            for slot in self._slots:
                self._spawn_locked(slot)
        collector = threading.Thread(target=self._collect_loop, daemon=True)
        supervisor = threading.Thread(target=self._supervise_loop, daemon=True)
        self._threads = [collector, supervisor]
        collector.start()
        supervisor.start()
        self._wait_ready()
        return self

    def _wait_ready(self) -> None:
        deadline = time.time() + self.config.ready_timeout
        with self._cond:
            while not all(slot.ready for slot in self._slots):
                remaining = deadline - time.time()
                if remaining <= 0:
                    raise TimeoutError("workers failed to become ready")
                self._cond.wait(min(remaining, 0.2))

    def worker_pids(self) -> list[int | None]:
        with self._lock:
            return [
                slot.process.pid if slot.process is not None else None
                for slot in self._slots
            ]

    # -- ingress ---------------------------------------------------------------

    def submit(self, key: FiveTuple, payload: bytes, timeout: float | None = None) -> bool:
        """Queue one reassembled flow; returns False when it was shed.

        A one-flow :meth:`submit_batch`.
        """
        return self.submit_batch([(key, payload)], timeout) == 1

    def submit_batch(
        self,
        flows: Sequence[tuple[FiveTuple, bytes]],
        timeout: float | None = None,
    ) -> int:
        """Queue ``(key, payload)`` flows; returns how many were not shed.

        Each message to a worker is one batch: as many of the remaining
        flows as the least-loaded slot has room for, scanned there with
        one ``run_batch``.  With ``shed=False`` (default) a full daemon
        *blocks* the caller — explicit backpressure — until a slot frees
        or ``timeout`` expires (then the remaining flows are shed and
        counted).  With ``shed=True`` a full daemon sheds them
        immediately.  Empty payloads are accepted and never queued.
        """
        if not self._running:
            raise RuntimeError("daemon is not running")
        pending = [(key, payload) for key, payload in flows if payload]
        deadline = None if timeout is None else time.time() + timeout
        with self._cond:
            while pending:
                slot = self._pick_slot_locked()
                if slot is None:
                    remaining = None if deadline is None else deadline - time.time()
                    if self.config.shed or (remaining is not None and remaining <= 0):
                        for key, _payload in pending:
                            self._shed_locked(key)
                        return len(flows) - len(pending)
                    self._cond.wait(0.2 if remaining is None else min(remaining, 0.2))
                    if not self._running:
                        raise RuntimeError("daemon stopped while submitting")
                    continue
                room = self.config.queue_depth - len(slot.assigned)
                head = self._next_flow_id
                batch = []
                for key, payload in pending[:room]:
                    flow_id = self._next_flow_id
                    self._next_flow_id += 1
                    self._inflight[flow_id] = (slot.worker_id, key, payload)
                    slot.assigned[flow_id] = head
                    batch.append((flow_id, key, payload))
                pending = pending[room:]
                self._submitted += len(batch)
                slot.queue.put(("flows", batch))
        return len(flows)

    def _pick_slot_locked(self) -> _Slot | None:
        best = None
        for slot in self._slots:
            if slot.queue is None:  # dead, awaiting respawn
                continue
            if len(slot.assigned) >= self.config.queue_depth:
                continue
            if best is None or len(slot.assigned) < len(best.assigned):
                best = slot
        return best

    def _shed_locked(self, key: FiveTuple) -> None:
        self.report.flows_shed += 1
        self.report.dispatch.errors.append((key, "shed: ingress queues full"))

    def drain(self, timeout: float = 60.0) -> None:
        """Block until every submitted flow has been accounted for."""
        deadline = time.time() + timeout
        with self._cond:
            while self._completed < self._submitted:
                remaining = deadline - time.time()
                if remaining <= 0:
                    raise TimeoutError(
                        f"drain timed out with {self._submitted - self._completed} "
                        "flows outstanding"
                    )
                self._cond.wait(min(remaining, 0.2))

    # -- result collection -----------------------------------------------------

    def _collect_loop(self) -> None:
        """Drain every worker's private result pipe (the only reader).

        Pipes, not a shared queue: see :class:`_Slot.result_recv`.  A
        dead worker's pipe stays in the wait set until its buffered final
        messages have been recv'd and EOF reached — so results a worker
        managed to send before dying are never discarded.
        """
        while True:
            with self._lock:
                conns = [
                    slot.result_recv
                    for slot in self._slots
                    if slot.result_recv is not None
                ]
                conns.extend(self._draining_conns)
            if not conns:
                if not self._running:
                    return
                time.sleep(_TICK_SECONDS)
                continue
            try:
                ready = mp_connection.wait(conns, timeout=0.1)
            except OSError:
                continue
            for conn in ready:
                self._drain_conn(conn)

    def _drain_conn(self, conn) -> None:
        """Dispatch every complete message buffered in one pipe."""
        while True:
            try:
                if not conn.poll(0):
                    return
                message = conn.recv()
            except EOFError:
                self._retire_conn(conn, error=None)
                return
            except Exception as exc:  # noqa: BLE001 - a frame truncated by
                # SIGKILL mid-send; the flow it reported stays in the
                # ledger and re-dispatches when the death is handled.
                self._retire_conn(conn, error=exc)
                return
            try:
                kind = message[0]
                with self._cond:
                    if kind == "done":
                        self._on_done(*message[1:])
                    elif kind == "ready":
                        self._on_ready(*message[1:])
                    elif kind == "reloaded":
                        self._on_reloaded(*message[1:])
                    self._cond.notify_all()
            except Exception as exc:  # noqa: BLE001 - a malformed message
                # must not kill the collector: that stalls every drain.
                self._record_thread_error("collector", exc)

    def _retire_conn(self, conn, error: Exception | None) -> None:
        """A pipe reached EOF (worker gone) or broke: close and forget it."""
        with self._lock:
            try:
                conn.close()
            except OSError:
                pass
            if conn in self._draining_conns:
                self._draining_conns.remove(conn)
            for slot in self._slots:
                if slot.result_recv is conn:
                    slot.result_recv = None
            if error is not None:
                self.report.internal_errors.append(
                    f"collector: result pipe broke: {type(error).__name__}: {error}"
                )

    def _on_ready(self, worker_id: int, generation: int, load_seconds: float) -> None:
        slot = self._slots[worker_id]
        slot.ready = True
        slot.generation = max(slot.generation, generation)
        slot.stats.generation = slot.generation
        slot.stats.load_seconds = load_seconds

    def _on_reloaded(self, worker_id: int, generation: int) -> None:
        slot = self._slots[worker_id]
        slot.generation = max(slot.generation, generation)
        slot.stats.generation = slot.generation

    def _finish_flow_locked(self, flow_id: int) -> tuple[FiveTuple, bytes] | None:
        """Retire one flow from the ledger; None when already retired."""
        info = self._inflight.pop(flow_id, None)
        if info is None:
            return None  # duplicate report after a crash re-dispatch
        slot_id, key, payload = info
        self._slots[slot_id].assigned.pop(flow_id, None)
        self._kill_counts.pop(flow_id, None)
        self._completed += 1
        return key, payload

    def _on_done(
        self,
        worker_id: int,
        generation: int,
        results: list[tuple[int, list[tuple[int, int]] | str, int]],
        seconds: float,
    ) -> None:
        """One scanned batch: per flow, its events or its engine error."""
        stats = self._slots[worker_id].stats
        fresh = False
        for flow_id, result, n_bytes in results:
            info = self._finish_flow_locked(flow_id)
            if info is None:
                continue
            fresh = True
            key, _payload = info
            self.report.n_flows += 1
            if isinstance(result, str):
                self.report.dispatch.flows_poisoned += 1
                self.report.dispatch.errors.append((key, f"engine error: {result}"))
                stats.last_error = result
                continue
            stats.flows += 1
            stats.bytes_scanned += n_bytes
            stats.alerts += len(result)
            for pos, match_id in result:
                self.alerts.append(FlowMatch(key, MatchEvent(pos, match_id)))
        if not fresh:
            return  # a duplicate report after a crash re-dispatch
        stats.batches += 1
        stats.busy_seconds += seconds
        stats.generation = max(stats.generation, generation)
        self.report.n_alerts = len(self.alerts)

    # -- supervision -----------------------------------------------------------

    def _supervise_loop(self) -> None:
        while self._running:
            try:
                self._supervise_tick()
            except Exception as exc:  # noqa: BLE001 - a supervisor death
                # would silently end restarts and hang detection; record
                # and keep ticking instead.
                self._record_thread_error("supervisor", exc)
            time.sleep(_TICK_SECONDS)

    def _supervise_tick(self) -> None:
        now = time.time()
        with self._cond:
            for slot in self._slots:
                process = slot.process
                if process is None:
                    if slot.respawn_at is not None and now >= slot.respawn_at:
                        self._spawn_locked(slot)
                    continue
                if not process.is_alive():
                    self._on_death_locked(slot, hang=False)
                    continue
                if (
                    self._active_flow[slot.worker_id] >= 0
                    and now - self._heartbeat[slot.worker_id]
                    > self.config.hang_timeout
                ):
                    process.kill()
                    process.join(timeout=5.0)
                    self._on_death_locked(slot, hang=True)
            self._cond.notify_all()

    def _record_thread_error(self, where: str, exc: Exception) -> None:
        with self._lock:
            self.report.internal_errors.append(f"{where}: {type(exc).__name__}: {exc}")

    def _on_death_locked(self, slot: _Slot, hang: bool) -> None:
        """Account a dead worker, blame its active batch, schedule respawn.

        A one-flow batch is its flow: the death counts against it, and
        ``max_flow_kills`` deaths quarantine it.  A multi-flow batch
        cannot pin the culprit, so it counts no kill; it is split
        instead, and its flows re-dispatch as one-flow batches — the
        next death lands on the poison flow alone.
        """
        now = time.time()
        exitcode = slot.process.exitcode if slot.process is not None else None
        slot.process = None
        slot.ready = False
        if slot.queue is not None:
            # Abandon the dead worker's queue: its feeder thread may be
            # wedged in a pipe write nobody will ever read (the reader
            # was SIGKILLed), so skip the join-at-exit or the whole
            # process hangs in multiprocessing's atexit finalizer.
            slot.queue.cancel_join_thread()
            slot.queue.close()
        slot.queue = None  # unread items re-dispatch from the ledger
        self.report.restarts += 1
        slot.stats.restarts += 1
        if hang:
            self.report.hangs += 1
            slot.stats.last_error = "hang: heartbeat timeout"
        else:
            slot.stats.last_error = f"worker died (exit {exitcode})"
        active = int(self._active_flow[slot.worker_id])
        self._active_flow[slot.worker_id] = -1
        batch = [flow_id for flow_id, head in slot.assigned.items() if head == active]
        if len(batch) > 1:
            for flow_id in batch:
                slot.assigned[flow_id] = flow_id
        elif batch:
            kills = self._kill_counts.get(active, 0) + 1
            self._kill_counts[active] = kills
            if kills >= self.config.max_flow_kills:
                key, _payload = self._finish_flow_locked(active)
                self.report.n_flows += 1
                self.report.flows_quarantined += 1
                self.report.dispatch.flows_poisoned += 1
                self.report.dispatch.errors.append(
                    (key, f"quarantined after killing {kills} worker(s)")
                )
        # Exponential backoff, reset after a quiet spell.
        if now - slot.last_death > self.config.backoff_reset:
            slot.consecutive_kills = 0
        slot.last_death = now
        delay = min(
            self.config.backoff_cap,
            self.config.backoff_base * (2**slot.consecutive_kills),
        )
        slot.consecutive_kills += 1
        slot.respawn_at = now + delay

    # -- live reload -----------------------------------------------------------

    def reload(self, rules: Sequence[str | Pattern] | None = None) -> ReloadEvent:
        """Recompile changed shards, publish a new generation, drain the old.

        Unchanged shards load from the per-shard
        :class:`~repro.fastpath.cache.ArtifactCache` (a one-rule edit
        rebuilds one shard).  The swap is in-band: flows queued before
        the marker finish on the generation they started on, and the old
        segment is destroyed only after every worker has switched.
        """
        if not self._running:
            raise RuntimeError("daemon is not running")
        tick = time.perf_counter()
        if rules is not None:
            self.rules = list(rules)
        bundles, rebuilt, cached = self._compile_bundles(self.rules)
        with self._cond:
            new_generation = self._generation + 1
            segment = ArtifactSegment.create(bundles, new_generation)
            old_segment = self._segment
            self._segment = segment
            self._generation = new_generation
            self.report.generation = new_generation
            for slot in self._slots:
                if slot.queue is not None:
                    slot.queue.put(("reload", segment.name, new_generation))
                # A slot awaiting respawn attaches the new segment anyway.
        drained = self._wait_generation(new_generation)
        if old_segment is not None:
            if drained:
                old_segment.close()
                old_segment.unlink()
            else:
                self._retired.append(old_segment)
        event = ReloadEvent(
            generation=new_generation,
            shards_rebuilt=rebuilt,
            shards_cached=cached,
            seconds=time.perf_counter() - tick,
            drained=drained,
        )
        with self._lock:
            self.report.reloads.append(event)
        return event

    def _wait_generation(self, generation: int) -> bool:
        deadline = time.time() + self.config.reload_timeout
        with self._cond:
            while True:
                pending = [
                    slot
                    for slot in self._slots
                    if slot.process is not None and slot.generation < generation
                ]
                if not pending:
                    return True
                remaining = deadline - time.time()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.2))

    # -- health / shutdown -----------------------------------------------------

    def status(self) -> ServeReport:
        """The live health report (shared instance; serialize under lock)."""
        with self._lock:
            self.report.uptime_seconds = (
                time.time() - self._started_at if self._started_at else 0.0
            )
            self.report.generation = self._generation
            self.report.workers = [slot.stats for slot in self._slots]
            return self.report

    def stop(self, timeout: float = 10.0) -> ServeReport:
        """Graceful shutdown: stop ingress, drain workers, reap, unlink."""
        if not self._running:
            return self.status()
        with self._cond:
            self._running = False
            for slot in self._slots:
                if slot.queue is not None:
                    slot.queue.put(("stop",))
            self._cond.notify_all()
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        for slot in self._slots:
            if slot.queue is not None:
                # Same wedged-feeder hazard as respawn: a killed worker
                # leaves its queue pipe unread, so never join-at-exit.
                slot.queue.cancel_join_thread()
                slot.queue.close()
                slot.queue = None
        for thread in self._threads:
            thread.join(timeout=5.0)
        for segment in [self._segment, *self._retired]:
            if segment is not None:
                segment.close()
                segment.unlink()
        self._segment = None
        self._retired = []
        return self.status()

    def __enter__(self) -> "ScanDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_scan(
    daemon: ScanDaemon,
    capture: "BinaryIO | bytes | str | PathLike | Iterable[Packet]",
    limits: FlowLimits | None = None,
) -> tuple[list[FlowMatch], ServeReport]:
    """Feed one capture through a running daemon (the serving twin of
    :func:`repro.robust.pipeline.resilient_scan`).

    Ingest is identical to the batch path — tolerant pcap decode, bounded
    reassembly with scan-at-eviction — but reassembled flows are
    dispatched to the worker pool, in batches of ``queue_depth // 2``,
    instead of scanned inline.  Returns the daemon's accumulated alerts
    plus its :class:`ServeReport` (which doubles as the batch
    :class:`~repro.robust.report.ScanReport`).
    """
    report = daemon.report
    batch_size = max(1, daemon.config.queue_depth // 2)
    pending: list[tuple[FiveTuple, bytes]] = []

    def flush() -> None:
        daemon.submit_batch(pending)
        pending.clear()

    def submit_flow(flow: Flow) -> None:
        if flow.payload:
            pending.append((flow.key, flow.payload))
            if len(pending) >= batch_size:
                flush()

    if isinstance(capture, (str, PathLike)):
        with open(capture, "rb") as stream:
            return serve_scan(daemon, stream, limits)
    if isinstance(capture, bytes):
        capture = BytesIO(capture)
    if hasattr(capture, "read"):
        packets = read_pcap(capture, errors="skip", stats=report.pcap)
    else:
        packets = iter(capture)

    assembler = FlowAssembler(limits=limits, on_evict=submit_flow)
    n_packets = 0
    for packet in packets:
        n_packets += 1
        assembler.add(packet)
    with daemon._lock:
        report.n_packets += n_packets
        report.assembler.flows_evicted += assembler.stats.flows_evicted
        report.assembler.bytes_evicted += assembler.stats.bytes_evicted
        report.assembler.segments_dropped += assembler.stats.segments_dropped
        report.assembler.bytes_dropped += assembler.stats.bytes_dropped
    for flow in assembler.flows():
        submit_flow(flow)
    flush()
    daemon.drain()
    return daemon.alerts, daemon.status()
