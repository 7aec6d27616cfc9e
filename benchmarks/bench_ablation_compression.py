"""Ablation: default-transition compression vs. match filtering.

The paper's framing: encodings like D2FA/CompactDFA shrink the transition
table but complicate every lookup, while match filtering shrinks the state
space itself and keeps lookups trivial.  This benchmark puts both points
on the curve for the same rule set: image size and per-byte cost of the
plain DFA, the compressed DFA, and the MFA.  A fourth row swaps the MFA's
component DFA for a bit-parallel Shift-And machine (§II-C: match filtering
sits "on top of an arbitrary regex matching solution").
"""

from __future__ import annotations

import pytest

from repro.automata.compress import compress_dfa
from repro.bench.harness import build_engine, patterns_for, synthetic_payload, write_table
from repro.core.bpmfa import build_bp_mfa
from repro.utils.timing import cycles_per_byte, time_call

_SET = "C8"   # constructible plain DFA, meaningful size


@pytest.fixture(scope="module")
def engines():
    dfa = build_engine(_SET, "dfa")
    mfa = build_engine(_SET, "mfa")
    assert dfa.ok and mfa.ok
    return {
        "dfa": dfa.engine,
        "compressed": compress_dfa(dfa.engine),
        "mfa": mfa.engine,
        # Every C8 component is linear, so it also compiles bit-parallel.
        "shiftand": build_bp_mfa(patterns_for(_SET)),
    }


@pytest.mark.parametrize("variant", ["dfa", "compressed", "mfa", "shiftand"])
def test_matching_speed(benchmark, engines, variant):
    benchmark.group = "compression-speed"
    payload = synthetic_payload(_SET, 0.55)
    engine = engines[variant]
    reference = sorted(engines["dfa"].run(payload))
    assert sorted(engine.run(payload)) == reference
    benchmark(lambda: engine.run(payload))


def test_size_speed_tradeoff(benchmark, engines):
    """Compression shrinks the DFA image but pays per byte; the MFA image
    is smaller still *and* its per-byte cost stays at DFA level."""
    payload = synthetic_payload(_SET, 0.55)
    rows = []
    costs = {}
    sizes = {}
    def collect():
        for name, engine in engines.items():
            engine.run(payload[:2048])  # warm up
            ns = min(time_call(lambda e=engine: e.run(payload))[1] for _ in range(3))
            costs[name] = cycles_per_byte(ns, len(payload))
            sizes[name] = engine.memory_bytes()
            rows.append(
                f"{name:10s} image={sizes[name]:>10,d} B  cpb={costs[name]:8.0f}"
            )
        return rows
    benchmark.pedantic(collect, rounds=1, iterations=1, warmup_rounds=0)
    write_table("ablation_compression.txt", rows)

    assert sizes["compressed"] < sizes["dfa"] / 3      # compression works
    assert sizes["mfa"] < sizes["dfa"]                 # MFA smaller than DFA
    assert sizes["shiftand"] < sizes["mfa"]            # Shift-And smaller still
    assert costs["compressed"] > costs["dfa"]          # but lookups cost more
    # MFA stays within a small factor of raw-DFA speed (the paper's point);
    # the compressed engine pays the two-step probe on every byte.
    assert costs["mfa"] < costs["compressed"] * 1.5
