"""Compression ratio, decode latency, and throughput retention of the
default-transition-compressed (D2FA / ``MFADFA2``) artifact tier.

Compiles the explosive B217p set with ``compress=DEFAULT_CHAIN_DEPTH``,
serializes both the dense and the compressed bundle, and measures:

- the transition-table and whole-bundle compression ratios;
- decode latency of a compressed load (it flattens back to the dense
  table and keeps the forest for re-dumps);
- fastpath throughput of the compressed-load path versus the dense
  artifact;
- match-stream fidelity: every tracked set's compressed load must
  reproduce the dense confirmed-match stream byte-for-byte.

Run directly (CI does)::

    python benchmarks/bench_compress.py --quick

Exit-1 gates: transition-table compression below ``--min-ratio`` (8x),
compressed-load throughput below ``--min-retention`` (0.70) of the dense
fastpath, or any match-stream diff on any set.
"""

from __future__ import annotations

import argparse
import sys
import time


def throughput_mb_s(engine, flows: list[bytes], best_of: int) -> float:
    total = sum(len(f) for f in flows)
    engine.run_batch(flows[:2])  # warm the scratch buffers
    best = None
    for _ in range(best_of):
        start = time.perf_counter()
        engine.run_batch(flows)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return total / best / 1e6


def stream_diffs(reference, candidate, flows: list[bytes]) -> tuple[int, int]:
    """(events, diffs) of candidate's batch stream vs the reference MFA."""
    want = [reference.run(payload) for payload in flows]
    got = candidate.run_batch(flows)
    events = sum(len(w) for w in want)
    diffs = sum(1 for w, g in zip(want, got) if w != g)
    return events, diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--set", dest="set_name", default="B217p", help="rule set")
    parser.add_argument(
        "--depth", type=int, default=None, help="chain-depth bound (default 4)"
    )
    parser.add_argument("--flows", type=int, default=48, help="benign flow count")
    parser.add_argument(
        "--flow-bytes", type=int, default=8000, help="approx bytes per flow"
    )
    parser.add_argument(
        "--min-ratio", type=float, default=8.0,
        help="gate: minimum transition-table compression ratio",
    )
    parser.add_argument(
        "--min-retention", type=float, default=0.70,
        help="gate: minimum compressed-load/dense fastpath throughput ratio",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller corpus, fewer repeats (CI)"
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    from bench_fastpath import build_benign_flows
    from conftest import write_results

    from repro.automata.compress import DEFAULT_CHAIN_DEPTH
    from repro.bench.harness import STATE_BUDGET, all_set_names, patterns_for
    from repro.core import compile_mfa, dumps_mfa, loads_mfa
    from repro.fastpath import build_fastpath

    depth = args.depth if args.depth is not None else DEFAULT_CHAIN_DEPTH
    n_flows = 16 if args.quick else args.flows
    flow_bytes = 3000 if args.quick else args.flow_bytes
    best_of = 2 if args.quick else 4

    # -- compile + serialize both tiers --------------------------------------
    start = time.perf_counter()
    mfa = compile_mfa(
        list(patterns_for(args.set_name)), state_budget=STATE_BUDGET, compress=depth
    )
    compile_seconds = time.perf_counter() - start
    forest = mfa.compressed
    assert forest is not None
    compressed_blob = dumps_mfa(mfa)
    mfa.compressed = None
    dense_blob = dumps_mfa(mfa)
    mfa.compressed = forest

    dense_table = mfa.dfa.memory_bytes()
    compressed_table = forest.memory_bytes()
    table_ratio = dense_table / max(1, compressed_table)
    bundle_ratio = len(dense_blob) / max(1, len(compressed_blob))

    # -- decode latency of a compressed load ---------------------------------
    start = time.perf_counter()
    flat_mfa = loads_mfa(compressed_blob)
    flatten_ms = 1000 * (time.perf_counter() - start)

    # -- throughput: dense artifact vs the compressed load --------------------
    flows = build_benign_flows(n_flows, flow_bytes)
    dense_engine = build_fastpath(loads_mfa(dense_blob))
    flat_engine = build_fastpath(flat_mfa)
    dense_mb_s = throughput_mb_s(dense_engine, flows, best_of)
    flat_mb_s = throughput_mb_s(flat_engine, flows, best_of)
    retention = flat_mb_s / dense_mb_s if dense_mb_s else 0.0

    # -- fidelity on every tracked set ----------------------------------------
    fidelity = []
    total_events = 0
    total_diffs = 0
    set_names = [args.set_name] if args.quick else list(all_set_names())
    for name in set_names:
        if name == args.set_name:
            set_mfa, set_blob = mfa, compressed_blob
        else:
            set_mfa = compile_mfa(
                list(patterns_for(name)), state_budget=STATE_BUDGET, compress=depth
            )
            set_blob = dumps_mfa(set_mfa)
        payloads = flows if name == args.set_name else flows[: max(4, n_flows // 4)]
        engine = build_fastpath(loads_mfa(set_blob))
        events, diffs = stream_diffs(set_mfa, engine, payloads)
        total_events += events
        total_diffs += diffs
        fidelity.append({"set": name, "flatten_events": events, "flatten_diffs": diffs})

    doc = {
        "set": args.set_name,
        "quick": args.quick,
        "chain_depth": depth,
        "n_states": mfa.dfa.n_states,
        "n_roots": forest.n_roots,
        "overlay_entries": forest.overlay_entries,
        "compile_seconds": round(compile_seconds, 3),
        "dense_table_bytes": dense_table,
        "compressed_table_bytes": compressed_table,
        "table_ratio": round(table_ratio, 2),
        "dense_bundle_bytes": len(dense_blob),
        "compressed_bundle_bytes": len(compressed_blob),
        "bundle_ratio": round(bundle_ratio, 2),
        "decode_flatten_ms": round(flatten_ms, 2),
        "dense_mb_s": round(dense_mb_s, 3),
        "flatten_mb_s": round(flat_mb_s, 3),
        "retention": round(retention, 3),
        "min_ratio_required": args.min_ratio,
        "min_retention_required": args.min_retention,
        "match_events": total_events,
        "stream_diffs": total_diffs,
        "fidelity": fidelity,
    }
    out = write_results("BENCH_compress.json", doc, args.out)

    print(
        f"{args.set_name}: table {table_ratio:.1f}x (bundle {bundle_ratio:.1f}x) "
        f"at depth<={depth}; decode flatten {flatten_ms:.0f}ms; throughput "
        f"dense {dense_mb_s:.1f} -> flatten {flat_mb_s:.1f} "
        f"({100 * retention:.0f}%); {total_events} events, "
        f"{total_diffs} stream diffs -> {out}"
    )
    failed = False
    if table_ratio < args.min_ratio:
        print(
            f"FAIL: table compression {table_ratio:.1f}x below the "
            f"{args.min_ratio:.1f}x gate",
            file=sys.stderr,
        )
        failed = True
    if retention < args.min_retention:
        print(
            f"FAIL: compressed-load throughput retention {retention:.2f} below "
            f"the {args.min_retention:.2f} gate",
            file=sys.stderr,
        )
        failed = True
    if total_diffs:
        print(
            "FAIL: compressed match stream diverged from the dense engine",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
