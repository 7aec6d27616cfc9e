"""Drives of the three public entry points, untraced and traced.

The untraced drive times the calls a user makes — ``resilient_scan`` over
a ``FastPathMFA``, ``replay`` packet by packet, and ``serve_scan`` through
a one-worker ``ScanDaemon`` — and checks every pass against the scalar
``MFA`` reference.  The traced drive replays the same steps through the
same public calls with a span recorded around each call into a layer.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from collections import defaultdict
from io import BytesIO
from multiprocessing import resource_tracker
from pathlib import Path

from inputs import by_flow, key_tuple, mismatched_flows
from repro.core import compile_mfa
from repro.fastpath import build_fastpath
from repro.robust import resilient_scan
from repro.serve import ScanDaemon, ServeConfig, serve_scan
from repro.traffic import FlowAssembler, PcapStats, read_pcap, replay
from repro.traffic.flows import FlowMatch

BATCH = 64
COMPILE_PHASES = ("parse", "split", "determinize", "filter-gen", "prefilter")

perf = time.perf_counter
perf_ns = time.perf_counter_ns


class Tally:
    """Flows attempted and failed across every checked pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def reference(mfa, blob: bytes) -> dict:
    """The scalar ``MFA`` alert stream per flow (computed once, untimed)."""
    alerts, _report = resilient_scan(mfa, blob)
    return by_flow(alerts)


def pcap_skipped(stats: PcapStats) -> int:
    return stats.corrupt_records + stats.undecodable_frames + int(stats.truncated_tail)


def pin(pids, cpus: set[int]) -> None:
    """Bind every thread of each process (``"self"`` or a pid) to ``cpus``.
    A process or thread that has ended is skipped."""
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except FileNotFoundError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except ProcessLookupError:
                pass


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- set-up -------------------------------------------------------------------


def setup_inprocess(rules: list[str]) -> tuple[object, float]:
    """Rule text to a ready ``FastPathMFA``, and the seconds it took."""
    tick = perf()
    engine = build_fastpath(compile_mfa(rules))
    return engine, perf() - tick


def start_daemon(rules: list[str]) -> tuple[ScanDaemon, float]:
    """A started one-worker fastpath daemon and its set-up time.  The caller
    stops it with :func:`stop_daemon`, also when this raises midway."""
    tick = perf()
    daemon = ScanDaemon(rules, config=ServeConfig(workers=1, engine="fastpath"))
    try:
        daemon.start()
    except BaseException:
        stop_daemon(daemon)
        raise
    return daemon, perf() - tick


def stop_daemon(daemon: ScanDaemon) -> None:
    """Stop the daemon and confirm that none of its workers outlives it."""
    pids = {pid for pid in daemon.worker_pids() if pid is not None}
    daemon.stop()
    alive = pids & {child.pid for child in multiprocessing.active_children()}
    if alive:
        raise RuntimeError(f"serve worker(s) {sorted(alive)} outlived stop()")


def stop_tracker() -> None:
    """Stop the resource-tracker process that ``multiprocessing`` starts for
    the daemon's shared memory, and wait for it, so that no process a run
    started outlives the run.  The standard library has no public call for
    this; a later daemon starts a fresh tracker."""
    resource_tracker._resource_tracker._stop()


# -- untraced drive: one checked pass per call ----------------------------------


def scan_inprocess(engine, blob: bytes, ref: dict, tally: Tally) -> float:
    """Wall seconds of one ``resilient_scan`` over the capture."""
    tick = perf()
    alerts, report = resilient_scan(engine, blob, batch_size=BATCH)
    wall = perf() - tick
    bad = mismatched_flows(ref, alerts) + report.dispatch.flows_poisoned
    tally.add(report.n_flows, bad + pcap_skipped(report.pcap))
    return wall


def _serve_counts(daemon: ScanDaemon) -> tuple[int, ...]:
    report = daemon.status()
    return (
        report.n_flows,
        report.dispatch.flows_poisoned,
        report.flows_shed,
        pcap_skipped(report.pcap),
        len(daemon.alerts),
    )


def scan_serve(daemon: ScanDaemon, blob: bytes, ref: dict, tally: Tally) -> float:
    """Wall seconds of one ``serve_scan`` over the capture."""
    before = _serve_counts(daemon)
    tick = perf()
    alerts, _report = serve_scan(daemon, blob)
    wall = perf() - tick
    after = _serve_counts(daemon)
    flows, poisoned, shed, skipped = (a - b for a, b in zip(after[:4], before[:4]))
    bad = mismatched_flows(ref, alerts[before[4] :]) + poisoned + shed + skipped
    tally.add(flows + shed, bad)
    return wall


def stream_replay(engine, packets, ref: dict, tally: Tally):
    """One batched ``replay`` of the packets: its wall seconds and stats."""
    tick = perf()
    stats = replay(engine, packets, errors="isolate", batch_size=BATCH)
    wall = perf() - tick
    alerts = [FlowMatch(key, event) for key, event in stats.alerts]
    tally.add(stats.n_flows, mismatched_flows(ref, alerts) + stats.n_poisoned + stats.n_skipped)
    return wall, stats


def _events_ok(ref: dict, flow, events) -> bool:
    return ref.get(key_tuple(flow.key)) == (sorted((e.pos, e.match_id) for e in events) or None)


def rtt_inprocess(engine, flows, ref: dict, tally: Tally) -> list[int]:
    """Closed loop, one flow outstanding: ``engine.run`` round trips (ns)."""
    samples = []
    for flow in flows:
        tick = perf_ns()
        events = engine.run(flow.payload)
        samples.append(perf_ns() - tick)
        tally.add(1, not _events_ok(ref, flow, events))
    return samples


def rtt_serve(daemon: ScanDaemon, flows, ref: dict, tally: Tally) -> list[int]:
    """Closed loop, one flow outstanding: ``submit`` -> ``drain`` (ns)."""
    samples = []
    for flow in flows:
        start = len(daemon.alerts)
        tick = perf_ns()
        accepted = daemon.submit(flow.key, flow.payload)
        daemon.drain()
        samples.append(perf_ns() - tick)
        events = [alert.event for alert in daemon.alerts[start:]]
        tally.add(1, not (accepted and _events_ok(ref, flow, events)))
    return samples


def percentile(samples: list, fraction: float):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


# -- tracing --------------------------------------------------------------------


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent, run]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run = 0

    def new_run(self) -> int:
        self.run += 1
        return self.run

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_ns(), 0, parent, self.run])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_ns()
        self._stack.pop()

    def self_times(self, run: int) -> dict[str, float]:
        """Seconds per span name in one run: duration minus child coverage."""
        children: dict[int, int] = defaultdict(int)
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == run]
        for _i, span in mine:
            if span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        totals: dict[str, float] = defaultdict(float)
        for i, span in mine:
            totals[span[0]] += (span[2] - span[1] - children[i]) / 1e9
        return totals

    def count(self, run: int, name: str) -> int:
        return sum(1 for s in self.spans if s[4] == run and s[0] == name)

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "run")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ingest(tracer: Tracer, blob: bytes, assembler: FlowAssembler) -> None:
    """``read_pcap`` -> ``FlowAssembler.add`` per packet, one span per call."""
    packets = read_pcap(BytesIO(blob), errors="skip", stats=PcapStats())
    while True:
        span = tracer.begin("pcap.decode")
        packet = next(packets, None)
        tracer.end(span)
        if packet is None:
            return
        span = tracer.begin("flows.add")
        assembler.add(packet)
        tracer.end(span)


def traced_inprocess(engine, blob: bytes, tracer: Tracer, batches: list | None = None) -> list:
    """``resilient_scan``'s steps: decode, reassemble, ``run_batch`` per 64.

    An engine error propagates instead of being retried flow by flow, so
    it fails the run rather than hiding in a slower path.
    """
    alerts: list[FlowMatch] = []
    pending: list = []

    def flush() -> None:
        if not pending:
            return
        payloads = [flow.payload for flow in pending]
        if batches is not None:
            batches.append(payloads)
        span = tracer.begin("engine.run_batch")
        results = engine.run_batch(payloads)
        tracer.end(span)
        for flow, events in zip(pending, results):
            alerts.extend(FlowMatch(flow.key, event) for event in events)
        pending.clear()

    def scan_flow(flow) -> None:
        if flow.payload:
            pending.append(flow)
            if len(pending) >= BATCH:
                flush()

    root = tracer.begin("scan")
    assembler = FlowAssembler(on_evict=scan_flow)
    _ingest(tracer, blob, assembler)
    span = tracer.begin("flows.finalize")
    flows = assembler.flows()
    tracer.end(span)
    for flow in flows:
        scan_flow(flow)
    flush()
    tracer.end(root)
    return alerts


def traced_serve(daemon: ScanDaemon, blob: bytes, tracer: Tracer) -> list:
    """``serve_scan``'s steps: decode, reassemble, ``submit`` per flow, ``drain``."""
    start = len(daemon.alerts)

    def submit_flow(flow) -> None:
        if flow.payload:
            span = tracer.begin("serve.submit")
            daemon.submit(flow.key, flow.payload)
            tracer.end(span)

    root = tracer.begin("scan")
    assembler = FlowAssembler(on_evict=submit_flow)
    _ingest(tracer, blob, assembler)
    span = tracer.begin("flows.finalize")
    flows = assembler.flows()
    tracer.end(span)
    for flow in flows:
        submit_flow(flow)
    span = tracer.begin("serve.drain")
    daemon.drain()
    tracer.end(span)
    tracer.end(root)
    return daemon.alerts[start:]


class TracedEngine:
    """Forwards the streaming trio to an engine, with a span per ``feed_batch``."""

    def __init__(self, engine, tracer: Tracer) -> None:
        self.engine = engine
        self.tracer = tracer

    def new_context(self):
        return self.engine.new_context()

    def feed(self, context, data: bytes):
        return self.engine.feed(context, data)

    def finish(self, context):
        return self.engine.finish(context)

    def feed_batch(self, contexts, payloads):
        span = self.tracer.begin("engine.feed_batch")
        try:
            return self.engine.feed_batch(contexts, payloads)
        finally:
            self.tracer.end(span)
