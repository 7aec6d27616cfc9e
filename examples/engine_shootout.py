#!/usr/bin/env python3
"""Compile one rule set with all five engines and race them.

A condensed version of the paper's whole evaluation on a single pattern
set: construction time, automaton size, memory image and matching speed on
benign vs. match-heavy traffic for NFA, DFA, HFA, XFA and MFA.

Run:  python examples/engine_shootout.py [set-name] (default C10)
"""

import sys
import time

from repro import build_dfa, build_hfa, build_nfa, build_xfa, build_mfa, DfaExplosionError
from repro.bench.harness import patterns_for
from repro.patterns import ruleset_names
from repro.traffic import generate_payload
from repro.utils.timing import cycles_per_byte


def main() -> None:
    set_name = sys.argv[1] if len(sys.argv) > 1 else "C10"
    if set_name not in ruleset_names():
        raise SystemExit(f"unknown set {set_name!r}; choose from {ruleset_names()}")
    patterns = list(patterns_for(set_name))
    print(f"pattern set {set_name}: {len(patterns)} rules\n")

    builders = {
        "nfa": build_nfa,
        "dfa": lambda p: build_dfa(p, state_budget=150_000),
        "hfa": build_hfa,
        "xfa": build_xfa,
        "mfa": build_mfa,
    }
    engines = {}
    print(f"{'engine':6s} {'build s':>8s} {'states':>8s} {'image MB':>9s}")
    for name, builder in builders.items():
        start = time.perf_counter()
        try:
            engine = builder(patterns)
        except DfaExplosionError:
            print(f"{name:6s} {'fail':>8s} {'-':>8s} {'-':>9s}   (state budget exceeded)")
            continue
        seconds = time.perf_counter() - start
        engines[name] = engine
        print(f"{name:6s} {seconds:8.2f} {engine.n_states:8d} "
              f"{engine.memory_bytes() / 1e6:9.2f}")

    benign = generate_payload(engines["nfa"], 20_000, None, seed=1)
    hostile = generate_payload(engines["nfa"], 20_000, 0.9, seed=1)

    print(f"\n{'engine':6s} {'benign CpB':>11s} {'hostile CpB':>12s} {'matches':>8s}")
    for name, engine in engines.items():
        start = time.perf_counter_ns()
        engine.run(benign)
        benign_cpb = cycles_per_byte(time.perf_counter_ns() - start, len(benign))
        start = time.perf_counter_ns()
        matches = engine.run(hostile)
        hostile_cpb = cycles_per_byte(time.perf_counter_ns() - start, len(hostile))
        print(f"{name:6s} {benign_cpb:11.0f} {hostile_cpb:12.0f} {len(matches):8d}")

    print("\n(CpB = cycles/byte at the paper machine's 2.4 GHz clock; absolute values"
          " are Python-scale, orderings are the result.)")


if __name__ == "__main__":
    main()
