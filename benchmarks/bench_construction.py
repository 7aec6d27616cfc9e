"""Construction time of the compile pipeline: bitset core + sharded builds.

Times three ways of compiling the same rule set into an MFA:

* **reference** — the pre-optimization single-core path: frozenset subset
  construction (``build_dfa_from_nfa_reference``), assembled from the
  same public pieces ``build_mfa`` uses;
* **bitset** — today's single-shot ``compile_mfa`` (big-integer subset
  construction, :mod:`repro.fastcompile.bitset`);
* **sharded** — ``compile_mfa(shards=N, jobs=N)``: the rule set
  partitioned into shards compiled across worker processes and
  recombined into a :class:`repro.fastcompile.ShardedMFA`.

Fidelity is checked on every probe payload (the confirmed-match streams
must agree), and the per-shard incremental cache is exercised: a one-rule
edit must rebuild exactly one shard.  Emits ``BENCH_construction.json``.

Run directly (CI does)::

    python benchmarks/bench_construction.py --quick

Exits non-zero on a stream mismatch, on an incremental rebuild touching
more than one shard, on a bitset compile slower than the reference one
(speedup below 1.0x, both modes), or (full mode only) when the speedups
fall below the floors: bitset >= 30x at one job, sharded >= 3x at four
jobs.  On B217p the delta-row walk measures 60-70x and the per-group
walk it replaced 15-20x, so the single-shot floor fails a return to
resolving every alphabet group of every subset.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time


def reference_build(patterns, state_budget):
    """The pre-bitset single-core MFA build (frozenset subset walk)."""
    from repro.automata.dfa import build_dfa_from_nfa_reference
    from repro.automata.nfa import build_nfa
    from repro.core.mfa import MFA
    from repro.core.splitter import split_patterns

    split = split_patterns(patterns, None)
    nfa = build_nfa(split.components)
    dfa = build_dfa_from_nfa_reference(nfa, state_budget=state_budget)
    return MFA(dfa, split.program, split)


def probe_payloads(set_name: str) -> list[bytes]:
    """Deterministic probes: match-heavy synthetic, flood, benign-ish."""
    from repro.bench.harness import synthetic_payload
    from repro.robust.faults import xflood_payload

    return [
        synthetic_payload(set_name, 0.35, length=20_000),
        xflood_payload(repeats=500),
        b"GET /index.html HTTP/1.1\r\nHost: example.test\r\n\r\n" * 100,
    ]


def stream_diffs(engines: dict[str, object], probes: list[bytes]) -> tuple[int, int]:
    """Compare confirmed-match streams across engines on every probe.

    Streams are compared in canonical sorted order — the sharded engine
    merges shards into ``(pos, match_id)`` order by construction.
    """
    diffs = 0
    events = 0
    for payload in probes:
        want = None
        for engine in engines.values():
            got = sorted(engine.run(payload))  # type: ignore[attr-defined]
            if want is None:
                want = got
                events += len(want)
            elif got != want:
                diffs += 1
    return diffs, events


def incremental_demo(rules: list[str], state_budget: int, shards: int) -> dict:
    """Per-shard cache behaviour of a one-rule edit (counts, not time)."""
    from repro.core import compile_mfa
    from repro.fastpath import ArtifactCache

    edited = rules[:-1] + [rules[-1] + "z"]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(tmp)
        compile_mfa(rules, state_budget=state_budget, shards=shards, cache=cache)
        first = {"hits": cache.hits, "misses": cache.misses}
        cache.hits = cache.misses = 0
        compile_mfa(edited, state_budget=state_budget, shards=shards, cache=cache)
        second = {"hits": cache.hits, "misses": cache.misses}
    return {
        "shards": shards,
        "first_compile": first,
        "after_one_rule_edit": second,
        "rebuilt_shards": second["misses"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--set",
        dest="set_name",
        default=None,
        help="rule set (default: B217p, the largest; S31p with --quick)",
    )
    parser.add_argument("--shards", type=int, default=4, help="shard count")
    parser.add_argument("--jobs", type=int, default=4, help="worker processes")
    parser.add_argument(
        "--quick", action="store_true", help="small set, only the never-slower speedup gate (CI)"
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    from repro.bench.harness import STATE_BUDGET, patterns_for
    from repro.core import compile_mfa
    from repro.patterns import ruleset

    set_name = args.set_name or ("S31p" if args.quick else "B217p")
    rules = list(ruleset(set_name).rules)
    patterns = list(patterns_for(set_name))

    start = time.perf_counter()
    reference = reference_build(patterns, STATE_BUDGET)
    reference_seconds = time.perf_counter() - start

    phases_single: dict[str, float] = {}
    start = time.perf_counter()
    single = compile_mfa(rules, state_budget=STATE_BUDGET, phases=phases_single)
    bitset_seconds = time.perf_counter() - start

    phases_sharded: dict[str, float] = {}
    start = time.perf_counter()
    sharded = compile_mfa(
        rules,
        state_budget=STATE_BUDGET,
        shards=args.shards,
        jobs=args.jobs,
        phases=phases_sharded,
    )
    sharded_seconds = time.perf_counter() - start

    probes = probe_payloads(set_name)
    diffs, events = stream_diffs(
        {"reference": reference, "bitset": single, "sharded": sharded}, probes
    )

    incremental = incremental_demo(rules, STATE_BUDGET, args.shards)

    bitset_speedup = reference_seconds / bitset_seconds if bitset_seconds else 0.0
    sharded_speedup = reference_seconds / sharded_seconds if sharded_seconds else 0.0
    doc = {
        "set": set_name,
        "quick": args.quick,
        "rules": len(rules),
        "dfa_states": single.n_states,
        "shards": args.shards,
        "jobs": args.jobs,
        "reference_seconds": round(reference_seconds, 3),
        "bitset_seconds": round(bitset_seconds, 3),
        "sharded_seconds": round(sharded_seconds, 3),
        "bitset_speedup": round(bitset_speedup, 2),
        "sharded_speedup": round(sharded_speedup, 2),
        "phases_single": {k: round(v, 3) for k, v in phases_single.items()},
        "phases_sharded": {k: round(v, 3) for k, v in phases_sharded.items()},
        "match_events": events,
        "stream_diffs": diffs,
        "incremental": incremental,
    }
    from conftest import write_results

    out = write_results("BENCH_construction.json", doc, args.out)

    print(
        f"{set_name}: reference {reference_seconds:.2f}s, "
        f"bitset {bitset_seconds:.2f}s ({bitset_speedup:.1f}x), "
        f"sharded({args.shards}x{args.jobs}) {sharded_seconds:.2f}s "
        f"({sharded_speedup:.1f}x), {events} events, {diffs} stream diffs, "
        f"edit rebuilt {incremental['rebuilt_shards']} shard(s) -> {out}"
    )
    if diffs:
        print("FAIL: match streams diverged across compile paths", file=sys.stderr)
        return 1
    if incremental["rebuilt_shards"] != 1:
        print(
            "FAIL: a one-rule edit should rebuild exactly one shard",
            file=sys.stderr,
        )
        return 1
    if bitset_speedup < 1.0:
        print("FAIL: bitset construction slower than the reference walk", file=sys.stderr)
        return 1
    if not args.quick:
        if bitset_speedup < 30.0:
            print("FAIL: bitset construction below the 30x floor", file=sys.stderr)
            return 1
        if sharded_speedup < 3.0:
            print("FAIL: sharded construction below the 3x floor", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
