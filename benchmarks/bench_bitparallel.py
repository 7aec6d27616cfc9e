"""Bit-parallel required-literal prefilter vs the unfiltered fastpath.

Clean traffic is the common case a middlebox lives on, and it is exactly
where walking every byte through the full automaton is wasted work: the
prefilter (``repro.fastpath.prefilter``) skims the raw bytes for the
splitter's required literal chains and hands the confirm kernel only the
candidate windows.  This bench sweeps traffic from fully clean to
match-heavy and reports the throughput curve of three engines on each
point — the scalar MFA, the unfiltered lockstep fastpath, and the
prefiltered fastpath — plus the no-false-negative fidelity gate: the
prefiltered confirmed-match stream must be byte-identical to the scalar
stream on every corpus (clean, match-heavy, and the attack-carrying real
trace) for every tracked rule set.

Run directly (CI does)::

    python benchmarks/bench_bitparallel.py --quick

Emits ``results/BENCH_bitparallel.json`` (same shape family as
BENCH_construction/BENCH_serve: flat scalars + per-point rows +
``stream_diffs``).  Exits non-zero when any stream diverges or when the
prefiltered engine fails to clear ``--min-speedup`` over the unfiltered
fastpath on the clean-traffic point.
"""

from __future__ import annotations

import argparse
import sys
import time


def build_clean_flows(n_flows: int, flow_bytes: int) -> list[bytes]:
    """Deterministic benign flows with the LL1 (DARPA-like) protocol mix."""
    from repro.traffic.http import (
        binary_blob,
        http_session,
        smtp_session,
        telnet_session,
    )
    from repro.utils.rng import make_rng

    rng = make_rng(2016, "bitparallel-bench")
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


def build_match_heavy_flows(
    set_name: str, p_match: float, n_flows: int, flow_bytes: int
) -> list[bytes]:
    """Becchi-generated payloads driven toward the set's match states."""
    from repro.bench.harness import synthetic_payload

    # One long generated stream, sliced into flows: every flow carries the
    # same per-byte match pressure without re-running the generator.
    stream = synthetic_payload(set_name, p_match, length=n_flows * flow_bytes)
    return [
        stream[i * flow_bytes : (i + 1) * flow_bytes] for i in range(n_flows)
    ]


def batch_mb_s(engine, flows: list[bytes], best_of: int) -> float:
    total = sum(len(f) for f in flows)
    engine.run_batch(flows[:2])  # warm the scratch buffers
    best = None
    for _ in range(best_of):
        start = time.perf_counter()
        engine.run_batch(flows)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return total / best / 1e6


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


def stream_diffs(mfa, engine, flows: list[bytes]) -> tuple[int, int]:
    """(diverging flows, total scalar events) over one corpus."""
    want = [mfa.run(payload) for payload in flows]
    got = engine.run_batch(flows)
    events = sum(len(w) for w in want)
    return sum(1 for w, g in zip(want, got) if w != g), events


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--set", dest="set_name", default="S34", help="rule set")
    parser.add_argument(
        "--fidelity-sets",
        default="C8,S24,S34",
        help="comma-separated tracked sets for the byte-identity gate",
    )
    parser.add_argument("--flows", type=int, default=64, help="flows per corpus")
    parser.add_argument(
        "--flow-bytes", type=int, default=65536, help="approx bytes per flow"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required prefiltered-vs-unfiltered ratio on clean traffic",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller corpus, fewer repeats (CI)"
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    from repro.bench.harness import (
        STATE_BUDGET,
        patterns_for,
        real_trace_flows,
    )
    from repro.core import compile_mfa
    from repro.fastpath import build_fastpath, plan_summary

    n_flows = 16 if args.quick else args.flows
    flow_bytes = 32768 if args.quick else args.flow_bytes
    best_of = 2 if args.quick else 4

    start = time.perf_counter()
    mfa = compile_mfa(list(patterns_for(args.set_name)), state_budget=STATE_BUDGET)
    compile_seconds = time.perf_counter() - start
    plain = build_fastpath(mfa, prefilter="off")
    filtered = build_fastpath(mfa, prefilter="auto")

    # Curve points: clean LL1 traffic, then rising Becchi match pressure.
    corpora = [("clean", build_clean_flows(n_flows, flow_bytes))]
    for p_match in (0.35, 0.75, 0.95):
        corpora.append(
            (
                f"p_match={p_match}",
                build_match_heavy_flows(args.set_name, p_match, n_flows, flow_bytes),
            )
        )

    curve = []
    total_diffs = 0
    clean_speedup = 0.0
    for label, flows in corpora:
        diffs, events = stream_diffs(mfa, filtered, flows)
        total_diffs += diffs
        scalar = scalar_mb_s(mfa, flows, best_of)
        unfiltered = batch_mb_s(plain, flows, best_of)
        prefiltered = batch_mb_s(filtered, flows, best_of)
        speedup = prefiltered / unfiltered if unfiltered else 0.0
        if label == "clean":
            clean_speedup = speedup
        curve.append(
            {
                "corpus": label,
                "total_bytes": sum(len(f) for f in flows),
                "match_events": events,
                "scalar_mb_s": round(scalar, 3),
                "fastpath_mb_s": round(unfiltered, 3),
                "prefiltered_mb_s": round(prefiltered, 3),
                "speedup_vs_fastpath": round(speedup, 2),
                "speedup_vs_scalar": round(prefiltered / scalar, 2) if scalar else 0.0,
                "stream_diffs": diffs,
            }
        )
        print(
            f"{label:14s} scalar {scalar:8.2f}  fastpath {unfiltered:8.2f}  "
            f"prefiltered {prefiltered:8.2f} MB/s ({speedup:.1f}x, "
            f"{events} events, {diffs} diffs)"
        )

    # Fidelity gate over every tracked set: the prefiltered stream must be
    # byte-identical to the scalar stream on the attack-carrying trace too.
    fidelity = []
    for name in [s for s in args.fidelity_sets.split(",") if s]:
        set_mfa = (
            mfa
            if name == args.set_name
            else compile_mfa(list(patterns_for(name)), state_budget=STATE_BUDGET)
        )
        set_engine = (
            filtered if name == args.set_name else build_fastpath(set_mfa, prefilter="auto")
        )
        trace = list(real_trace_flows(name, "C11"))
        diffs, events = stream_diffs(set_mfa, set_engine, trace)
        total_diffs += diffs
        fidelity.append(
            {
                "set": name,
                "prefilter_active": set_engine.prefilter_active,
                "match_events": events,
                "stream_diffs": diffs,
            }
        )
        print(
            f"fidelity {name}: prefilter "
            f"{'active' if set_engine.prefilter_active else 'inactive'}, "
            f"{events} events, {diffs} diffs"
        )

    doc = {
        "set": args.set_name,
        "quick": args.quick,
        "flows": n_flows,
        "flow_bytes": flow_bytes,
        "compile_seconds": round(compile_seconds, 4),
        "prefilter_plan": plan_summary(mfa.prefilter),
        "prefilter_active": filtered.prefilter_active,
        "curve": curve,
        "fidelity": fidelity,
        "clean_speedup_vs_fastpath": round(clean_speedup, 2),
        "min_speedup_required": args.min_speedup,
        "stream_diffs": total_diffs,
    }
    from conftest import write_results

    out = write_results("BENCH_bitparallel.json", doc, args.out)
    print(f"clean-traffic speedup {clean_speedup:.1f}x vs fastpath -> {out}")

    if total_diffs:
        print("FAIL: prefiltered match stream diverged from scalar", file=sys.stderr)
        return 1
    if filtered.prefilter_active and clean_speedup < args.min_speedup:
        print(
            f"FAIL: clean-traffic speedup {clean_speedup:.1f}x is below the "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
