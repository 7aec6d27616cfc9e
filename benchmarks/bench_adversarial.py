"""Worst-case versus clean throughput under replayed adversarial witnesses.

Compiles each tracked set (dense), runs the static adversarial audit
(:mod:`repro.analyze.adversary`) with replay enabled, and reports the
worst/clean throughput curve per witness class and engine: how much a
crafted input stream actually slows the real scalar and fastpath engines
relative to benign traffic, next to the statically predicted bound.

Run directly (CI does)::

    python benchmarks/bench_adversarial.py --quick

Exit-1 gates, all on the gated set (``--set``, default B217p):

- every required witness class (prefilter-evasion) must be synthesized;
- each required class's best measured slowdown must reach ``--factor``
  (0.5) of its statically predicted worst/clean ratio — the predictions
  must not be fantasy (numpy runs only: without numpy there is no
  prefiltered engine to replay through);
- zero match-stream diffs on any replayed witness, every set — a
  witness that changes what the engine reports is an AV106 error.
"""

from __future__ import annotations

import argparse
import sys
import time

TRACKED_SETS = ("B217p", "C8", "S24")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--set", dest="set_name", default="B217p", help="gated rule set"
    )
    parser.add_argument(
        "--factor", type=float, default=0.5,
        help="gate: measured slowdown must reach this fraction of the "
        "statically predicted worst/clean ratio",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="gated set only, shorter replays (CI)",
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    from conftest import write_results

    from repro.analyze import REQUIRED_WITNESS_KINDS, analyze_adversary
    from repro.bench.harness import STATE_BUDGET, patterns_for
    from repro.fastpath import HAVE_NUMPY

    set_names = [args.set_name] if args.quick else [
        name for name in TRACKED_SETS if name == args.set_name
    ] + [name for name in TRACKED_SETS if name != args.set_name]
    replay_bytes = (1 << 14) if args.quick else (1 << 15)
    best_of = 2 if args.quick else 3

    from repro.core import compile_mfa

    sets = []
    curves = []
    total_diffs = 0
    gated = None
    for name in set_names:
        start = time.perf_counter()
        mfa = compile_mfa(list(patterns_for(name)), state_budget=STATE_BUDGET)
        compile_seconds = time.perf_counter() - start
        start = time.perf_counter()
        result = analyze_adversary(
            mfa, replay=True, replay_bytes=replay_bytes, best_of=best_of
        )
        audit_seconds = time.perf_counter() - start
        if name == args.set_name:
            gated = result
        counts = result.report.counts()
        sets.append({
            "set": name,
            "n_states": mfa.dfa.n_states,
            "compile_seconds": round(compile_seconds, 3),
            "audit_seconds": round(audit_seconds, 3),
            "witness_kinds": sorted(w.kind for w in result.witnesses),
            "errors": counts["error"],
            "warnings": counts["warning"],
        })
        for replay in result.replays:
            # ns/byte -> MB/s so the curve reads like the other benches.
            clean_mb_s = 1000.0 / max(replay.clean_ns_per_byte, 1e-9)
            worst_mb_s = 1000.0 / max(replay.witness_ns_per_byte, 1e-9)
            curves.append({
                "set": name,
                "kind": replay.kind,
                "engine": replay.engine,
                "clean_mb_s": round(clean_mb_s, 3),
                "worst_mb_s": round(worst_mb_s, 3),
                "measured_slowdown": round(replay.measured_slowdown, 3),
                "predicted_ratio": round(replay.predicted_ratio, 3),
                "stream_diffs": replay.stream_diffs,
            })
            total_diffs += replay.stream_diffs

    assert gated is not None
    gates = []
    for kind in REQUIRED_WITNESS_KINDS:
        witness = gated.witness(kind)
        measured = gated.slowdown(kind)
        required = (
            args.factor * witness.predicted_ratio if witness is not None else None
        )
        gates.append({
            "kind": kind,
            "present": witness is not None,
            "predicted_ratio": (
                round(witness.predicted_ratio, 3) if witness is not None else None
            ),
            "measured_slowdown": round(measured, 3),
            "required_slowdown": round(required, 3) if required is not None else None,
            "ok": witness is not None
            and (not HAVE_NUMPY or measured >= required),
        })

    doc = {
        "set": args.set_name,
        "quick": args.quick,
        "have_numpy": HAVE_NUMPY,
        "replay_bytes": replay_bytes,
        "factor_required": args.factor,
        "sets": sets,
        "curves": curves,
        "gates": gates,
        "stream_diffs": total_diffs,
    }
    out = write_results("BENCH_adversarial.json", doc, args.out)

    for gate in gates:
        mark = "ok" if gate["ok"] else "FAIL"
        print(
            f"{args.set_name} {gate['kind']}: predicted "
            f"{gate['predicted_ratio']}x, measured {gate['measured_slowdown']}x "
            f"(need >= {gate['required_slowdown']}x) [{mark}]"
        )
    print(
        f"{len(curves)} replay curve(s) across {len(sets)} set(s), "
        f"{total_diffs} stream diffs -> {out}"
    )

    failed = False
    for gate in gates:
        if not gate["present"]:
            print(
                f"FAIL: required witness class {gate['kind']!r} was not "
                f"synthesized on {args.set_name}",
                file=sys.stderr,
            )
            failed = True
        elif not gate["ok"]:
            print(
                f"FAIL: {gate['kind']} measured {gate['measured_slowdown']}x "
                f"below {gate['required_slowdown']}x "
                f"({args.factor} x predicted {gate['predicted_ratio']}x)",
                file=sys.stderr,
            )
            failed = True
    if total_diffs:
        print(
            "FAIL: a replayed witness changed the confirmed match stream",
            file=sys.stderr,
        )
        failed = True
    if gated.report.has_errors:
        print("FAIL: the adversarial audit reported errors", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
