"""Serving-path benchmark: daemon throughput vs workers, reload latency.

Pushes one synthetic capture through the long-lived fastpath scan daemon
(its shipped configuration: batched dispatch, default ``queue_depth``)
at several worker counts and measures aggregate scan throughput beside
the ceiling — the in-process ``FastPathMFA.run_batch`` over the same
reassembled flows, in the batches ``serve_scan`` hands a worker — then
times a live one-rule reload against a warm per-shard cache (the
incremental path) and against a cold recompile.

Fidelity is a hard gate, not a statistic: every daemon run's (and the
ceiling's) canonical match stream must be byte-identical to a
single-process ``resilient_scan`` of the same capture, and the cached
reload must rebuild exactly one shard.  Emits ``BENCH_serve.json``.

Run directly (CI does)::

    python benchmarks/bench_serve.py --quick

Exits non-zero on any stream diff or a cached reload touching more than
one shard.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from io import BytesIO


def build_capture(set_name: str, n_flows: int, flow_bytes: int) -> bytes:
    """A deterministic multi-flow capture with match-bearing payloads."""
    from repro.bench.harness import synthetic_payload
    from repro.traffic.flows import PROTO_TCP, FiveTuple, Packet
    from repro.traffic.pcap import write_pcap

    packets = []
    for i in range(n_flows):
        key = FiveTuple(
            PROTO_TCP, f"10.7.{i // 250}.{i % 250 + 1}", 6000 + i, "192.168.0.7", 80
        )
        # 0.75 match density: enough events that the stream-identity gate
        # compares real data, not two empty streams.
        payload = synthetic_payload(set_name, 0.75, length=flow_bytes)
        packets.append(Packet(key=key, payload=payload, seq=0))
    buffer = BytesIO()
    write_pcap(buffer, packets)
    return buffer.getvalue()


# Each throughput row reports its fastest pass: a quick capture scans in
# tens of milliseconds, where one pass is mostly scheduling noise.
PASSES = 3


def throughput_row(path, workers, seconds, scanned, alerts, restarts):
    return {
        "path": path,
        "workers": workers,
        "seconds": round(seconds, 4),
        "bytes_scanned": scanned,
        "throughput_mbps": round(scanned / seconds / 1e6, 2),
        "alerts": alerts,
        "restarts": restarts,
    }


def measure_inprocess(rules, blob, reference, state_budget):
    """The serving ceiling: ``run_batch`` in process on the same flows."""
    from repro.core import compile_mfa
    from repro.fastpath import build_fastpath
    from repro.serve import ServeConfig, canonical_stream
    from repro.traffic.flows import FlowAssembler, FlowMatch
    from repro.traffic.pcap import read_pcap

    engine = build_fastpath(compile_mfa(rules, state_budget=state_budget))
    assembler = FlowAssembler()
    assembler.add_all(read_pcap(BytesIO(blob), errors="skip"))
    flows = [flow for flow in assembler.flows() if flow.payload]
    step = ServeConfig().queue_depth // 2  # serve_scan's batch size
    batches = [flows[start : start + step] for start in range(0, len(flows), step)]
    walls = []
    diffs = 0
    for _ in range(PASSES):
        alerts = []
        seconds = 0.0
        for batch in batches:
            tick = time.perf_counter()
            results = engine.run_batch([flow.payload for flow in batch])
            seconds += time.perf_counter() - tick
            for flow, events in zip(batch, results):
                alerts.extend(FlowMatch(flow.key, event) for event in events)
        walls.append(seconds)
        diffs += canonical_stream(alerts) != reference
    scanned = sum(len(flow.payload) for flow in flows)
    row = throughput_row("inprocess-run_batch", 0, min(walls), scanned, len(alerts), 0)
    return row, diffs


def measure_workers(rules, blob, reference, worker_counts, state_budget):
    """Throughput of the same capture at each worker count (+ stream gate)."""
    from repro.serve import ScanDaemon, ServeConfig, canonical_stream, serve_scan

    rows = []
    diffs = 0
    for workers in worker_counts:
        config = ServeConfig(workers=workers, engine="fastpath")
        daemon = ScanDaemon(rules, config=config, state_budget=state_budget).start()
        try:
            walls = []
            for _ in range(PASSES):
                before = len(daemon.alerts)
                tick = time.perf_counter()
                alerts, report = serve_scan(daemon, blob)
                walls.append(time.perf_counter() - tick)
                diffs += canonical_stream(alerts[before:]) != reference
            scanned = sum(w.bytes_scanned for w in report.workers) // PASSES
            rows.append(
                throughput_row(
                    "serve",
                    workers,
                    min(walls),
                    scanned,
                    report.n_alerts // PASSES,
                    report.restarts,
                )
            )
        finally:
            daemon.stop()
    return rows, diffs


def measure_reload(rules, state_budget, shards):
    """Live reload latency: warm per-shard cache vs cold full recompile."""
    from repro.fastpath import ArtifactCache
    from repro.serve import ScanDaemon, ServeConfig

    edited = rules[:-1] + [rules[-1] + "z"]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(tmp)
        daemon = ScanDaemon(
            rules,
            shards=shards,
            cache=cache,
            config=ServeConfig(workers=2),
            state_budget=state_budget,
        ).start()
        try:
            cached = daemon.reload(edited)
        finally:
            daemon.stop()
    daemon = ScanDaemon(
        rules,
        shards=shards,
        config=ServeConfig(workers=2),
        state_budget=state_budget,
    ).start()
    try:
        cold = daemon.reload(edited)
    finally:
        daemon.stop()
    return {
        "shards": shards,
        "cached_seconds": round(cached.seconds, 3),
        "cached_shards_rebuilt": cached.shards_rebuilt,
        "cached_shards_cached": cached.shards_cached,
        "cold_seconds": round(cold.seconds, 3),
        "cold_shards_rebuilt": cold.shards_rebuilt,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--set",
        dest="set_name",
        default=None,
        help="rule set (default: S31p; S24 with --quick)",
    )
    parser.add_argument(
        "--workers",
        default=None,
        help="comma-separated worker counts (default: 1,2,4; 1,2 with --quick)",
    )
    parser.add_argument("--shards", type=int, default=4, help="reload shard count")
    parser.add_argument(
        "--quick", action="store_true", help="small capture and worker sweep (CI)"
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    from repro.bench.harness import STATE_BUDGET
    from repro.core import compile_mfa
    from repro.patterns import ruleset
    from repro.robust import resilient_scan
    from repro.serve import canonical_stream

    set_name = args.set_name or ("S24" if args.quick else "S31p")
    rules = list(ruleset(set_name).rules)
    worker_counts = [
        int(n) for n in (args.workers or ("1,2" if args.quick else "1,2,4")).split(",")
    ]
    n_flows, flow_bytes = (24, 16_384) if args.quick else (48, 65_536)

    blob = build_capture(set_name, n_flows, flow_bytes)
    ref_alerts, _ref_report = resilient_scan(
        compile_mfa(rules, state_budget=STATE_BUDGET), blob
    )
    reference = canonical_stream(ref_alerts)

    ceiling, ceiling_diffs = measure_inprocess(rules, blob, reference, STATE_BUDGET)
    rows, diffs = measure_workers(rules, blob, reference, worker_counts, STATE_BUDGET)
    rows.append(ceiling)
    diffs += ceiling_diffs
    reload_stats = measure_reload(rules, STATE_BUDGET, args.shards)

    doc = {
        "set": set_name,
        "quick": args.quick,
        "rules": len(rules),
        "n_flows": n_flows,
        "flow_bytes": flow_bytes,
        "reference_events": len(reference),
        "throughput": rows,
        "reload": reload_stats,
        "stream_diffs": diffs,
    }
    from conftest import write_results

    out = write_results("BENCH_serve.json", doc, args.out)

    sweep = ", ".join(
        f"{row['workers']}w {row['throughput_mbps']:.1f}MB/s" for row in rows[:-1]
    )
    sweep += f" (in-process run_batch {ceiling['throughput_mbps']:.1f}MB/s)"
    print(
        f"{set_name}: {sweep}; reload cached "
        f"{reload_stats['cached_seconds']}s ({reload_stats['cached_shards_rebuilt']} "
        f"shard rebuilt) vs cold {reload_stats['cold_seconds']}s; "
        f"{len(reference)} events, {diffs} stream diffs -> {out}"
    )
    if diffs:
        print(
            "FAIL: daemon or in-process match stream diverged from resilient_scan",
            file=sys.stderr,
        )
        return 1
    if reload_stats["cached_shards_rebuilt"] != 1:
        print(
            "FAIL: a one-rule edit behind a warm cache should rebuild "
            "exactly one shard",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
