"""One benchmark run: inputs, set-up, the measured drive and the report."""

from __future__ import annotations

import itertools
import json
import os
import platform
import time
from statistics import median

import numpy as np

import calib
import drive
import inputs
from repro.core import compile_mfa
from repro.fastpath import PrefilterRuntime, build_fastpath, build_prefilter
from repro.robust import resilient_scan
from repro.serve import serve_scan
from repro.traffic import replay
from repro.traffic.flows import FlowMatch

# (name, unit): printed in this order; BENCHMARK.json lists the same names.
# Only these enter the JSON line, the regression gate.
END_TO_END = (
    ("scan_mb_s", "MB/s"),
    ("stream_mb_s", "MB/s"),
    ("setup_s", "s"),
    ("engine_mb", "MB"),
    ("worker_rss_mb", "MB"),
)
# Printed beside the end-to-end metrics but kept out of the gate.  The
# wall-clock timings and the reference kernel's time are the raw figures
# behind the gated ones.  The latencies follow the host more than the
# code: the serve round trip is two wake-ups across two processes
# (ten-seed spread 0.26 to 0.46 for the p50, 0.2 to 1.4 for the p99), and
# the packet p99 follows the slow state (0.28 to 0.65 on some workload,
# however aggregated).  The failed share is 0 by design; a non-zero one
# fails the run.
UNGATED = (
    ("scan_mb_s_wall", "MB/s"),
    ("stream_mb_s_wall", "MB/s"),
    ("setup_s_wall", "s"),
    ("calib_ms", "ms"),
    ("packet_us_p99", "us"),
    ("flow_rtt_ms_p50", "ms"),
    ("flow_rtt_ms_p99", "ms"),
    ("failed_frac", "ratio"),
)
PER_LAYER = (
    ("pcap.decode_s", "s"),
    ("pcap.us_per_packet", "us"),
    ("flows.reassemble_s", "s"),
    ("flows.n_flows", "count"),
    ("flows.mean_flow_bytes", "B"),
    ("engine.batch_s", "s"),
    ("engine.batches", "count"),
    ("engine.us_per_batch", "us"),
    ("engine.feed_batch_s", "s"),
    ("engine.feed_batches", "count"),
    ("engine.classic_s", "s"),
    ("replay.packet_us_p50", "us"),
    ("prefilter.gain", "ratio"),
    ("prefilter.scan_s", "s"),
    ("prefilter.candidates_per_mb", "1/MB"),
    ("mfa.stream_mb_s", "MB/s"),
    *((f"compile.{phase}_s", "s") for phase in drive.COMPILE_PHASES),
    ("compile.states", "count"),
    ("build.fastpath_s", "s"),
    ("serve.start_s", "s"),
    ("serve.worker_load_s", "s"),
    ("serve.submit_block_s", "s"),
    ("serve.drain_s", "s"),
    ("serve.worker_busy_s", "s"),
    ("serve.worker_util", "ratio"),
    ("serve.overhead_s", "s"),
    ("serve.restarts", "count"),
    ("serve.shed", "count"),
    ("serve.quarantined", "count"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead", "ratio"),
)

# A shared 2-vCPU VM flips between a fast and a 1.6-2.4x slower state every
# few seconds (other tenants), and whole runs can sit in either, so every
# measured step runs once per round and rounds repeat for the whole run.
# The slow state only ever adds time, so each timing is taken from its
# fastest round: the cost of the code itself, which does not move with the
# share of the run the VM spent slow, as a total or a median would.  A slow
# spell that covers a whole run slows the fastest round too; so does the
# reference kernel (``calib``), timed twice a round, and each gated timing
# is its fastest round scaled by REFERENCE_S over the kernel's fastest
# pass: the time the step takes on a machine whose kernel pass takes
# REFERENCE_S.  Each round binds the benchmark process and the serve
# worker, every thread, to one CPU, the CPUs in turn.  Left to the
# scheduler, the serve scan settled for minutes at a time into one of two
# placements 1.4x apart while nothing else changed speed.  The ungated
# p99s are the medians of the per-round p99s.
REFERENCE_S = 0.0125
MIN_ROUNDS = 3
# Closed-loop round trips per window, so each window's p99 has >= 10 beyond
# it.  The latencies are not gated, so a window runs every third round only
# and the gated scan gets the rounds' time.
RTT_PER_ROUND = 1000
RTT_EVERY = 3
# A daemon start costs seconds (the B217p determinize), so serve set-up is
# sampled this many times, spread evenly over the run: each start replaces
# the daemon, and starts in different machine states give a steadier
# fastest.  An in-process build, a tenth of a second, runs every round.
SERVE_SETUPS = 3
MAX_TRACED_PASSES = 12

perf = time.perf_counter


class Rounds:
    """Per-round samples of one untraced run."""

    def __init__(self) -> None:
        self.scan_s: list[float] = []
        self.stream_s: list[float] = []
        self.setup_s: list[float] = []
        self.calib_s: list[float] = []
        self.packet_p99_ns: list[int] = []
        self.rtt_p50_ns: list[int] = []
        self.rtt_p99_ns: list[int] = []

    def run(self, seconds: float, scan, stream, rtt, flows, setup, setups: int | None = None, workers=tuple) -> None:
        """Repeat one of each step until ``seconds`` are spent.  ``setup``
        runs before every round, or, given ``setups``, that many times at
        even intervals of the run, the first before the first round.
        ``workers()`` gives the pids to bind beside this process."""
        cycle = itertools.cycle(flows)
        cpus = sorted(os.sched_getaffinity(0))
        start = perf()
        deadline = start + seconds
        try:
            while len(self.scan_s) < MIN_ROUNDS or perf() < deadline:
                done = len(self.setup_s)
                if setups is None or (done < setups and perf() >= start + done * seconds / setups):
                    drive.pin(["self", *workers()], set(cpus))  # a new worker inherits the mask
                    self.setup_s.append(setup())
                drive.pin(["self", *workers()], {cpus[len(self.scan_s) % len(cpus)]})
                self.calib_s.append(calib.seconds())
                self.scan_s.append(scan())
                wall, stats = stream()
                self.stream_s.append(wall)
                self.packet_p99_ns.append(drive.percentile(stats.packet_ns, 0.99))
                self.calib_s.append(calib.seconds())
                if len(self.scan_s) % RTT_EVERY == 1:
                    window = rtt(list(itertools.islice(cycle, RTT_PER_ROUND)))
                    self.rtt_p50_ns.append(drive.percentile(window, 0.50))
                    self.rtt_p99_ns.append(drive.percentile(window, 0.99))
        finally:
            drive.pin(["self", *workers()], set(cpus))


def untraced(workload, blob, packets, flows, seconds: float, tally, stamp: dict, rounds: Rounds) -> dict:
    """The end-to-end metrics, tracing off."""
    rules = inputs.rules_of(workload)
    if workload.path == "inprocess":
        engine, _seconds = drive.setup_inprocess(rules)
        ref = drive.reference(engine.mfa, blob)
        rounds.run(
            seconds,
            scan=lambda: drive.scan_inprocess(engine, blob, ref, tally),
            stream=lambda: drive.stream_replay(engine, packets, ref, tally),
            rtt=lambda chunk: drive.rtt_inprocess(engine, chunk, ref, tally),
            flows=flows,
            setup=lambda: drive.setup_inprocess(rules)[1],
        )
        rss_mb = drive.vm_hwm_mb()
    else:
        mfa = compile_mfa(rules)
        engine = build_fastpath(mfa)
        ref = drive.reference(mfa, blob)
        daemons = []

        def restart() -> float:
            if daemons:
                drive.stop_daemon(daemons.pop())
            daemon, seconds_taken = drive.start_daemon(rules)
            daemons.append(daemon)
            return seconds_taken

        try:
            rounds.run(
                seconds,
                scan=lambda: drive.scan_serve(daemons[0], blob, ref, tally),
                stream=lambda: drive.stream_replay(engine, packets, ref, tally),
                rtt=lambda chunk: drive.rtt_serve(daemons[0], chunk, ref, tally),
                flows=flows,
                setup=restart,
                setups=SERVE_SETUPS,
                workers=lambda: [pid for d in daemons for pid in d.worker_pids() if pid is not None],
            )
            status = daemons[0].status()
            stamp["serve_prefilter_mode"] = status.prefilter_mode
            stamp["serve_prefilter_active"] = status.prefilter_active
            rss_mb = sum(drive.vm_hwm_mb(pid) for pid in daemons[0].worker_pids())
        finally:
            for daemon in daemons:
                drive.stop_daemon(daemon)
    stamp["prefilter_active"] = engine.prefilter_active
    stamp["rounds"] = len(rounds.scan_s)
    payload_mb = sum(len(p.payload) for p in packets) / 1e6
    slowdown = min(rounds.calib_s) / REFERENCE_S
    return {
        "scan_mb_s": payload_mb / min(rounds.scan_s) * slowdown,
        "stream_mb_s": payload_mb / min(rounds.stream_s) * slowdown,
        "setup_s": min(rounds.setup_s) / slowdown,
        "scan_mb_s_wall": payload_mb / min(rounds.scan_s),
        "stream_mb_s_wall": payload_mb / min(rounds.stream_s),
        "setup_s_wall": min(rounds.setup_s),
        "calib_ms": min(rounds.calib_s) * 1e3,
        "packet_us_p99": median(rounds.packet_p99_ns) / 1e3,
        "flow_rtt_ms_p50": min(rounds.rtt_p50_ns) / 1e6,
        "flow_rtt_ms_p99": median(rounds.rtt_p99_ns) / 1e6,
        "engine_mb": engine.memory_bytes() / 1e6,
        "worker_rss_mb": rss_mb,
    }


def _alternate(tally, ref: dict, tracer, untraced_pass, traced_pass, budget: float):
    """Untraced and traced passes in turn, each pair checked against the
    reference and each other; returns (untraced walls, [(run, traced wall)])."""
    base, runs = [], []
    deadline = perf() + budget
    while len(runs) < MIN_ROUNDS or (perf() < deadline and len(runs) < MAX_TRACED_PASSES):
        tick = perf()
        plain = untraced_pass()
        base.append(perf() - tick)
        run = tracer.new_run()
        tick = perf()
        traced_alerts = traced_pass(run)
        runs.append((run, perf() - tick))
        tally.add(
            len(ref),
            inputs.mismatched_flows(ref, traced_alerts)
            + inputs.mismatched_flows(inputs.by_flow(plain), traced_alerts),
        )
    return base, runs


def _compile_layers(rules: list[str], metrics: dict):
    """Side: compile phases and fastpath build time; returns the MFA and engine."""
    phases: dict[str, float] = {}
    mfa = compile_mfa(rules, phases=phases)
    for phase in drive.COMPILE_PHASES:
        metrics[f"compile.{phase}_s"] = phases.get(phase, 0.0)
    metrics["compile.states"] = mfa.n_states
    builds = []
    for _ in range(MIN_ROUNDS):
        tick = perf()
        engine = build_fastpath(mfa)
        builds.append(perf() - tick)
    metrics["build.fastpath_s"] = median(builds)
    return mfa, engine


def _engine_layers(mfa, engine, batches: list, metrics: dict) -> None:
    """Side: the traced pass's batches through the classic walk and the
    prefilter skim, outside every span.  ``prefilter.gain`` times the
    shipped engine and the classic walk in turn on the same batches, so
    drift in machine speed cancels out of the ratio."""
    classic = build_fastpath(mfa, prefilter="off")
    timings: dict[object, list[float]] = {engine: [], classic: []}
    for rep in range(MIN_ROUNDS + 1):
        for candidate, walls in timings.items():
            tick = perf()
            for payloads in batches:
                candidate.run_batch(payloads)
            if rep:  # the first repetition warms scratch buffers
                walls.append(perf() - tick)
    metrics["engine.classic_s"] = median(timings[classic])
    metrics["prefilter.gain"] = metrics["engine.classic_s"] / median(timings[engine])
    plan = mfa.prefilter if mfa.prefilter is not None else build_prefilter(mfa)
    scan_s, candidates, scanned = 0.0, 0, 0
    if plan is not None:  # B217p has none: its prefilter layer is empty
        runtime = PrefilterRuntime(plan)
        for payloads in batches:
            buf = np.frombuffer(b"".join(payloads), dtype=np.uint8)
            tick = perf()
            result = runtime.scan(buf)
            scan_s += perf() - tick
            candidates += int(result.ends.size)
            scanned += buf.size
    metrics["prefilter.scan_s"] = scan_s
    metrics["prefilter.candidates_per_mb"] = candidates / (scanned / 1e6) if scanned else 0.0


def _replay_layers(mfa, engine, packets, ref: dict, seconds: float, tally, tracer, metrics: dict) -> None:
    """Inline replay with a span per ``feed_batch``; side: the scalar replay,
    with the same settings as the batched one."""
    runs, packet_p50 = [], []
    deadline = perf() + seconds
    while len(runs) < MIN_ROUNDS or (perf() < deadline and len(runs) < MAX_TRACED_PASSES):
        runs.append(tracer.new_run())
        span = tracer.begin("replay")
        stats = replay(drive.TracedEngine(engine, tracer), packets, errors="isolate", batch_size=drive.BATCH)
        tracer.end(span)
        packet_p50.append(stats.p50_ns / 1e3)
        alerts = [FlowMatch(key, event) for key, event in stats.alerts]
        tally.add(stats.n_flows, inputs.mismatched_flows(ref, alerts) + stats.n_poisoned)
    metrics["engine.feed_batch_s"] = median(tracer.self_times(run)["engine.feed_batch"] for run in runs)
    metrics["engine.feed_batches"] = tracer.count(runs[0], "engine.feed_batch")
    metrics["replay.packet_us_p50"] = median(packet_p50)
    payload_mb = sum(len(p.payload) for p in packets) / 1e6
    scalar = []
    for _ in range(MIN_ROUNDS):
        tick = perf()
        replay(mfa, packets, errors="isolate")
        scalar.append(payload_mb / (perf() - tick))
    metrics["mfa.stream_mb_s"] = median(scalar)


def _serve_layers(rules, blob, ref: dict, seconds: float, tally, tracer, stamp: dict, metrics: dict):
    """``serve_scan`` against its traced twin on a one-worker daemon; returns
    (untraced walls, traced runs, their self times)."""
    daemon, metrics["serve.start_s"] = drive.start_daemon(rules)
    busy: dict[int, float] = {}
    cpus = os.sched_getaffinity(0)
    pids = ["self", *(pid for pid in daemon.worker_pids() if pid is not None)]
    try:
        drive.pin(pids, {min(cpus)})  # as in the untraced run, one CPU for both
        status = daemon.status()
        stamp["serve_prefilter_mode"] = status.prefilter_mode
        metrics["serve.worker_load_s"] = status.workers[0].load_seconds

        def traced_pass(run: int) -> list:
            before = daemon.status().workers[0].busy_seconds
            alerts = drive.traced_serve(daemon, blob, tracer)
            busy[run] = daemon.status().workers[0].busy_seconds - before
            return alerts

        def untraced_pass() -> list:
            start = len(daemon.alerts)
            return serve_scan(daemon, blob)[0][start:]

        base, runs = _alternate(tally, ref, tracer, untraced_pass, traced_pass, seconds)
        status = daemon.status()
        metrics["serve.restarts"] = status.restarts
        metrics["serve.shed"] = status.flows_shed
        metrics["serve.quarantined"] = status.flows_quarantined
        tally.add(0, status.flows_shed + status.dispatch.flows_poisoned)
    finally:
        drive.pin(pids, cpus)
        drive.stop_daemon(daemon)
    selfs = [tracer.self_times(run) for run, _wall in runs]
    metrics["serve.submit_block_s"] = median(s["serve.submit"] for s in selfs)
    metrics["serve.drain_s"] = median(s["serve.drain"] for s in selfs)
    metrics["serve.worker_busy_s"] = median(busy.values())
    metrics["serve.worker_util"] = median(busy[run] / wall for run, wall in runs)
    metrics["serve.overhead_s"] = median(wall - busy[run] for run, wall in runs)
    return base, runs, selfs


def traced(workload, blob, packets, flows, seconds: float, tally, stamp: dict, tracer) -> dict:
    """The per-layer metrics: spans around each public call, plus side
    measurements (compile phases, classic walk, prefilter skim, scalar
    replay) kept outside every timed span.

    Both paths run on every workload — the in-process engine on
    ``serve-b217p`` (the ceiling for serve), a one-worker daemon on the S34
    workloads — so every layer is measured everywhere.
    """
    rules = inputs.rules_of(workload)
    metrics: dict[str, float] = {}
    mfa, engine = _compile_layers(rules, metrics)
    stamp["prefilter_active"] = engine.prefilter_active
    ref = drive.reference(mfa, blob)

    batches: list[list[bytes]] = []
    in_base, in_runs = _alternate(
        tally, ref, tracer,
        lambda: resilient_scan(engine, blob, batch_size=drive.BATCH)[0],
        # The first traced pass records its batches for the side measurements.
        lambda run: drive.traced_inprocess(engine, blob, tracer, None if batches else batches),
        0.3 * seconds,
    )
    in_selfs = [tracer.self_times(run) for run, _wall in in_runs]
    metrics["engine.batch_s"] = median(s["engine.run_batch"] for s in in_selfs)
    metrics["engine.batches"] = tracer.count(in_runs[0][0], "engine.run_batch")
    metrics["engine.us_per_batch"] = metrics["engine.batch_s"] / metrics["engine.batches"] * 1e6
    _engine_layers(mfa, engine, batches, metrics)
    _replay_layers(mfa, engine, packets, ref, 0.15 * seconds, tally, tracer, metrics)
    serve = _serve_layers(rules, blob, ref, 0.35 * seconds, tally, tracer, stamp, metrics)

    # Ingest layers, the remainder and the overhead: the workload's own path.
    base, runs, selfs = (in_base, in_runs, in_selfs) if workload.path == "inprocess" else serve
    metrics["pcap.decode_s"] = median(s["pcap.decode"] for s in selfs)
    metrics["pcap.us_per_packet"] = metrics["pcap.decode_s"] / len(packets) * 1e6
    metrics["flows.reassemble_s"] = median(s["flows.add"] + s["flows.finalize"] for s in selfs)
    metrics["flows.n_flows"] = len(flows)
    metrics["flows.mean_flow_bytes"] = sum(len(f.payload) for f in flows) / len(flows)
    metrics["trace.unaccounted_s"] = median(s["scan"] for s in selfs)
    metrics["trace.overhead"] = median(wall for _run, wall in runs) / median(base)
    return metrics


def environment(workload, args, scrubbed: list[str]) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size or workload.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": affinity,
        "scrubbed_env": scrubbed,
    }


def main(root, args, scrubbed: list[str]) -> int:
    if args.workload not in inputs.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(inputs.WORKLOADS)}")
    workload = inputs.WORKLOADS[args.workload]
    stamp = environment(workload, args, scrubbed)
    blob = inputs.capture(root, workload, args.seed, args.size)
    packets, flows = inputs.decode(blob)
    tally = drive.Tally()
    rounds = Rounds()
    try:
        if args.trace:
            tracer = drive.Tracer()
            metrics = traced(workload, blob, packets, flows, args.seconds, tally, stamp, tracer)
            traces = inputs.cache_dir(root) / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write(traces / f"{workload.name}-s{args.seed}.jsonl")
            table = PER_LAYER
        else:
            metrics = untraced(workload, blob, packets, flows, args.seconds, tally, stamp, rounds)
            table = END_TO_END
    finally:
        drive.stop_tracker()
    metrics["failed_frac"] = tally.failed / max(1, tally.attempted)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(stamp, sort_keys=True))
    for name, unit in table + tuple(u for u in UNGATED if u[0] in metrics):
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }
    results = inputs.cache_dir(root) / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"env": stamp, "all_metrics": metrics, **result, "rounds": vars(rounds)})
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1
