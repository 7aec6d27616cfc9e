"""Throughput of the lockstep batch engine vs the scalar MFA.

Scans a DARPA-like batch of benign flows (the LL1 protocol mix at zero
attack density — ordinary telnet/SMTP/HTTP traffic) with the scalar
``MFA.feed`` loop and with ``FastPathMFA.run_batch``, reports MB/s for
both, and checks fidelity: the fastpath confirmed-match stream must be
byte-identical to the scalar one on an attack-carrying trace as well.

The streaming row cuts the same flows into 1400-B packets, each flow's
packets back to back, and replays them packet by packet: with the scalar
MFA (``replay(mfa, ...)``) and in lockstep batches of
``engine.batch_hint`` packets (``replay(engine, ..., batch_size=...)``).
Per-flow alert differences between the two replays count as stream
diffs.

The ingest row times what comes before any engine: pcap decode and flow
reassembly of the C11-profile capture, per packet, in capture order and
after ``reorder_packets``, with the share of TCP flows whose segments
arrived in order (those are joined once instead of sorted).  Flows decoded
from either capture that differ from the flows assembled directly from
the written packets count as ingest diffs.

Also exercises the compiled-artifact cache: the engine is obtained via
``compile_mfa(cache=...)`` and the hit/miss outcome plus load time land
in the emitted ``BENCH_fastpath.json``.

Run directly (CI does)::

    python benchmarks/bench_fastpath.py --quick

Exits non-zero if the fastpath engine or ingest fails fidelity, or if
either the fastpath batch scan or the batched replay is *slower* than
its scalar counterpart — a regression guard, not a tuning target; see
docs/performance.md for the expected margins.
"""

from __future__ import annotations

import argparse
import sys
import time


def build_benign_flows(n_flows: int, flow_bytes: int) -> list[bytes]:
    """Deterministic benign flows with the LL1 (DARPA-like) protocol mix."""
    from repro.traffic.http import (
        binary_blob,
        http_session,
        smtp_session,
        telnet_session,
    )
    from repro.utils.rng import make_rng

    rng = make_rng(2016, "fastpath-bench")
    generators = (http_session, smtp_session, telnet_session, None)
    mix = (0.30, 0.25, 0.35, 0.10)  # the LL1 profile, attack density zero
    flows: list[bytes] = []
    for _ in range(n_flows):
        buf = bytearray()
        while len(buf) < flow_bytes:
            choice = rng.random()
            cumulative = 0.0
            for weight, generator in zip(mix, generators):
                cumulative += weight
                if choice < cumulative:
                    if generator is None:
                        buf += binary_blob(rng, rng.randrange(800, 4000))
                    else:
                        c2s, s2c = generator(rng)
                        buf += c2s + s2c
                    break
            else:
                c2s, s2c = http_session(rng)
                buf += c2s + s2c
        flows.append(bytes(buf))
    return flows


def scalar_mb_s(mfa, flows: list[bytes], best_of: int) -> float:
    total = sum(len(f) for f in flows)
    best = None
    for _ in range(best_of):
        start = time.perf_counter()
        for payload in flows:
            context = mfa.new_context()
            list(mfa.feed(context, payload))
            list(mfa.finish(context))
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return total / best / 1e6


def fastpath_mb_s(engine, flows: list[bytes], best_of: int) -> float:
    total = sum(len(f) for f in flows)
    engine.run_batch(flows[:2])  # warm the scratch buffers
    best = None
    for _ in range(best_of):
        start = time.perf_counter()
        engine.run_batch(flows)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return total / best / 1e6


def flow_packets(flows: list[bytes]) -> list:
    """Each flow cut into 1400-B packets, its packets back to back."""
    from repro.traffic.flows import PROTO_TCP, FiveTuple, Packet

    packets = []
    for i, payload in enumerate(flows):
        key = FiveTuple(PROTO_TCP, "10.0.0.1", 1024 + i, "192.168.0.1", 80)
        packets.extend(
            Packet(key=key, payload=payload[offset : offset + 1400], seq=offset)
            for offset in range(0, len(payload), 1400)
        )
    return packets


def replay_mb_s(engine, packets: list, best_of: int, batch_size: int | None = None):
    """Fastest of ``best_of`` replays in MB/s, and the last replay's stats."""
    from repro.traffic import replay

    total = sum(len(p.payload) for p in packets)
    best = None
    for _ in range(best_of):
        start = time.perf_counter()
        stats = replay(engine, packets, batch_size=batch_size)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return total / best / 1e6, stats


def replay_diffs(batched, scalar) -> int:
    """Flows whose alerts differ between two replays of the same packets."""

    def per_flow(stats) -> dict:
        flows: dict = {}
        for key, event in stats.alerts:
            flows.setdefault(key, []).append(event)
        return {key: sorted(events) for key, events in flows.items()}

    got, want = per_flow(batched), per_flow(scalar)
    return sum(1 for key in got.keys() | want.keys() if got.get(key) != want.get(key))


def ingest_row(set_name: str, best_of: int) -> dict:
    """Decode and reassembly cost of the C11 capture, in order and after
    ``reorder_packets``, and the number of flows either gets wrong."""
    from io import BytesIO

    from repro.bench.harness import patterns_for
    from repro.robust.faults import reorder_packets
    from repro.traffic import (
        PROFILES,
        FlowAssembler,
        PcapStats,
        corpus_packets,
        read_pcap,
        write_pcap,
    )

    def assemble(packets) -> tuple[list, FlowAssembler]:
        assembler = FlowAssembler()
        assembler.add_all(packets)
        return [(flow.key, flow.payload) for flow in assembler.flows()], assembler

    profile = next(p for p in PROFILES if p.name == "C11")
    written = corpus_packets(profile, patterns_for(set_name), seed=2016)
    in_order = dict(assemble(written)[0])
    row: dict = {}
    diffs = 0
    for name, packets in (
        ("in_order", written),
        ("reordered", reorder_packets(written, seed=2016)),
    ):
        out = BytesIO()
        write_pcap(out, packets)
        blob = out.getvalue()
        decode_s = reassemble_s = float("inf")
        for _ in range(best_of):
            start = time.perf_counter()
            decoded = list(read_pcap(BytesIO(blob), errors="skip", stats=PcapStats()))
            middle = time.perf_counter()
            flows, assembler = assemble(decoded)
            stop = time.perf_counter()
            decode_s = min(decode_s, middle - start)
            reassemble_s = min(reassemble_s, stop - middle)
        # Exact flows of the packets as written, in order; and the same
        # payload per key whichever way the segments arrived.
        want = assemble(packets)[0]
        diffs += sum(1 for got, expected in zip(flows, want) if got != expected)
        diffs += abs(len(flows) - len(want))
        diffs += sum(1 for key, payload in flows if in_order.get(key) != payload)
        # The assembler's own rule decides which TCP flows are joined once.
        tcp = [segments for segments in assembler._tcp.values() if segments]
        joined = sum(map(FlowAssembler._in_order, tcp))
        row[name] = {
            "packets": len(decoded),
            "flows": len(flows),
            "tcp_in_order": round(joined / max(1, len(tcp)), 3),
            "decode_us_per_packet": round(decode_s / len(decoded) * 1e6, 2),
            "reassemble_us_per_packet": round(reassemble_s / len(decoded) * 1e6, 2),
        }
    row["best_of"] = best_of
    row["flow_diffs"] = diffs
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--set", dest="set_name", default="C8", help="rule set")
    parser.add_argument("--flows", type=int, default=64, help="benign flow count")
    parser.add_argument(
        "--flow-bytes", type=int, default=8000, help="approx bytes per flow"
    )
    parser.add_argument(
        "--segment", type=int, default=None, help="pin the lane segment length"
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller corpus, fewer repeats (CI)"
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    from repro import config
    from repro.bench.harness import patterns_for, real_trace_flows
    from repro.core import compile_mfa
    from repro.fastpath import FastPathMFA
    from repro.bench.harness import STATE_BUDGET
    from repro.traffic import replay

    n_flows = 24 if args.quick else args.flows
    flow_bytes = 3000 if args.quick else args.flow_bytes
    best_of = 2 if args.quick else 4

    cache = config.artifact_cache()
    start = time.perf_counter()
    mfa = compile_mfa(
        list(patterns_for(args.set_name)), state_budget=STATE_BUDGET, cache=cache
    )
    compile_seconds = time.perf_counter() - start
    cache_hit = cache is not None and cache.hits > 0
    engine = FastPathMFA(mfa, segment_bytes=args.segment)

    benign = build_benign_flows(n_flows, flow_bytes)
    total = sum(len(f) for f in benign)

    # Fidelity first: benign batch AND an attack-carrying trace must yield
    # exactly the scalar confirmed-match stream.
    mixed = list(real_trace_flows(args.set_name, "C11"))
    diffs = 0
    events = 0
    for batch in (benign, mixed):
        want = [mfa.run(payload) for payload in batch]
        got = engine.run_batch(batch)
        events += sum(len(w) for w in want)
        diffs += sum(1 for w, g in zip(want, got) if w != g)

    scalar = scalar_mb_s(mfa, benign, best_of)
    fast = fastpath_mb_s(engine, benign, best_of)
    speedup = fast / scalar if scalar else 0.0

    # Streaming: the same flows as back-to-back packets, replayed with the
    # scalar MFA and in lockstep batches of ``batch_hint`` packets.  The
    # attack-carrying trace adds matches to the diff check.
    batch = engine.batch_hint
    mixed_packets = flow_packets(mixed)
    diffs += replay_diffs(
        replay(engine, mixed_packets, batch_size=batch), replay(mfa, mixed_packets)
    )
    packets = flow_packets(benign)
    replay_scalar, scalar_stats = replay_mb_s(mfa, packets, best_of)
    replay_fast, batched_stats = replay_mb_s(engine, packets, best_of, batch_size=batch)
    diffs += replay_diffs(batched_stats, scalar_stats)
    replay_speedup = replay_fast / replay_scalar if replay_scalar else 0.0

    ingest = ingest_row(args.set_name, 5 if args.quick else 20)

    doc = {
        "set": args.set_name,
        "quick": args.quick,
        "flows": n_flows,
        "total_bytes": total,
        "segment_bytes": args.segment,
        "scalar_mb_s": round(scalar, 3),
        "fastpath_mb_s": round(fast, 3),
        "speedup": round(speedup, 2),
        "replay": {
            "packets": len(packets),
            "batch_size": batch,
            "batches": batched_stats.n_batches,
            "scalar_mb_s": round(replay_scalar, 3),
            "batched_mb_s": round(replay_fast, 3),
            "speedup": round(replay_speedup, 2),
        },
        "ingest": ingest,
        "match_events": events,
        "stream_diffs": diffs,
        "cache": {
            "hit": cache_hit,
            "compile_seconds": round(compile_seconds, 4),
            "directory": str(cache.directory) if cache is not None else None,
        },
    }
    from conftest import write_results

    out = write_results("BENCH_fastpath.json", doc, args.out)

    print(
        f"{args.set_name}: scalar {scalar:.2f} MB/s, fastpath {fast:.2f} MB/s "
        f"({speedup:.1f}x); replay scalar {replay_scalar:.2f} MB/s, batched "
        f"{replay_fast:.2f} MB/s ({replay_speedup:.1f}x, {len(packets)} packets "
        f"in {batched_stats.n_batches} batches); {events} events, {diffs} stream "
        f"diffs [cache {'hit' if cache_hit else 'miss'} {compile_seconds:.2f}s] -> {out}"
    )
    for name in ("in_order", "reordered"):
        layer = ingest[name]
        print(
            f"ingest {name}: {layer['packets']} packets, {layer['flows']} flows, "
            f"decode {layer['decode_us_per_packet']:.2f} us/packet, reassembly "
            f"{layer['reassemble_us_per_packet']:.2f} us/packet, "
            f"{layer['tcp_in_order']:.0%} of TCP flows in order"
        )
    if diffs:
        print("FAIL: fastpath match stream diverged from scalar", file=sys.stderr)
        return 1
    if ingest["flow_diffs"]:
        print("FAIL: decoded flows differ from the written packets' flows", file=sys.stderr)
        return 1
    if fast < scalar:
        print("FAIL: fastpath slower than the scalar engine", file=sys.stderr)
        return 1
    if replay_fast < replay_scalar:
        print("FAIL: batched replay slower than the scalar replay", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
