"""Seeded, cached workload captures and the scalar-reference fidelity check.

Every workload is a pcap byte string made from ``--seed`` alone: the same
seed gives the same bytes.  The flows themselves come from a fixed pool per
(workload, size), generated once from ``POOL_SEED`` and cached under the
checkout's ignored ``.bench_build/`` directory; the seed only orders them
(and rotates the hostile payloads).  So seeds differ in arrival order, not
in flow count, flow sizes or match load, and the spread of a metric over
seeds is the machine's, not the inputs'.  Generation stays outside all
timing; nothing generated is ever tracked.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from io import BytesIO
from pathlib import Path

from repro.automata.nfa import build_nfa
from repro.core.compiler import compile_patterns
from repro.patterns import ruleset
from repro.serve import canonical_stream
from repro.traffic import (
    PROFILES,
    FiveTuple,
    FlowAssembler,
    Packet,
    TraceProfile,
    corpus_packets,
    generate_payload,
    read_pcap,
    write_pcap,
)
from repro.traffic.flows import PROTO_TCP

SEGMENT = 1400  # TCP payload bytes per packet, as the corpus generator cuts
HOSTILE_FLOW = 16384
HOSTILE_P_MATCH = 0.75
# Becchi generation costs ~35 s/MB on S34, so the hostile pool holds half
# as many payloads as the capture has flows, each used twice.
HOSTILE_POOL = 48
POOL_SEED = 2016


@dataclass(frozen=True)
class Workload:
    """One named traffic mix: its rule set, its path and its input size.

    ``size`` is the payload byte target of one capture; ``path`` is
    ``"inprocess"`` (``resilient_scan`` over a ``FastPathMFA``) or
    ``"serve"`` (``serve_scan`` through a one-worker ``ScanDaemon``).
    """

    name: str
    rules: str
    path: str
    size: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ll1-clean", "S34", "inprocess", 1_000_000),
        Workload("becchi-hostile", "S34", "inprocess", 96 * HOSTILE_FLOW),
        Workload("serve-b217p", "B217p", "serve", 650_000),
    )
}


def rules_of(workload: Workload) -> list[str]:
    return list(ruleset(workload.rules).rules)


def cache_dir(root: Path) -> Path:
    path = root / ".bench_build" / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _profile(name: str, size: int) -> TraceProfile:
    base = next(p for p in PROFILES if p.name == name)
    return TraceProfile(name, size, base.mix, base.attack_density)


def _hostile_pool(root: Path, rules: list[str], pool: int) -> list[bytes]:
    path = cache_dir(root) / f"pool-becchi-{POOL_SEED}-{HOSTILE_FLOW}x{pool}.bin"
    if not path.exists():
        nfa = build_nfa(compile_patterns(rules))
        blob = b"".join(
            generate_payload(nfa, HOSTILE_FLOW, HOSTILE_P_MATCH, seed=POOL_SEED + k)
            for k in range(pool)
        )
        _write_atomic(path, blob)
    blob = path.read_bytes()
    return [blob[i : i + HOSTILE_FLOW] for i in range(0, len(blob), HOSTILE_FLOW)]


def _hostile_packets(root: Path, rules: list[str], seed: int, size: int) -> list[Packet]:
    """16 KB p_M = 0.75 flows in 1400-B segments, each flow's packets back
    to back, as ``corpus_packets`` emits them."""
    n_flows = max(1, size // HOSTILE_FLOW)
    pool = _hostile_pool(root, rules, min(HOSTILE_POOL, n_flows))
    rng = random.Random(seed)
    bases = [pool[i % len(pool)] for i in range(n_flows)]
    rng.shuffle(bases)
    packets: list[Packet] = []
    for i, base in enumerate(bases):
        cut = rng.randrange(len(base))
        payload = base[cut:] + base[:cut]
        key = FiveTuple(PROTO_TCP, f"10.2.{i // 250}.{i % 250 + 1}", 1024 + i, "192.168.9.1", 80)
        for off in range(0, len(payload), SEGMENT):
            packets.append(Packet(key, payload[off : off + SEGMENT], off, len(packets) * 1e-4))
    return packets


def _corpus_pool(root: Path, workload: Workload, size: int) -> list[Packet]:
    """The workload's ``corpus_packets`` capture for ``POOL_SEED``, made once."""
    path = cache_dir(root) / f"pool-{workload.name}-{POOL_SEED}-b{size}.pcap"
    if not path.exists():
        profile = "LL1" if workload.name == "ll1-clean" else "C11"
        packets = corpus_packets(_profile(profile, size), compile_patterns(rules_of(workload)), seed=POOL_SEED)
        out = BytesIO()
        write_pcap(out, packets)
        _write_atomic(path, out.getvalue())
    return list(read_pcap(BytesIO(path.read_bytes())))


def _shuffled_flows(packets: list[Packet], seed: int) -> list[Packet]:
    """Whole flows in a seeded order; each flow's packets stay back to back
    and in order, with fresh timestamps at the corpus generator's spacing."""
    flows: dict[FiveTuple, list[Packet]] = {}
    for packet in packets:
        flows.setdefault(packet.key, []).append(packet)
    order = list(flows.values())
    random.Random(seed).shuffle(order)
    shuffled = [packet for flow in order for packet in flow]
    return [replace(packet, timestamp=i * 1e-4) for i, packet in enumerate(shuffled)]


def capture(root: Path, workload: Workload, seed: int, size: int | None = None) -> bytes:
    """The workload's pcap bytes for ``seed``."""
    size = workload.size if size is None else size
    if workload.name == "becchi-hostile":
        packets = _hostile_packets(root, rules_of(workload), seed, size)
    else:
        packets = _shuffled_flows(_corpus_pool(root, workload, size), seed)
    out = BytesIO()
    write_pcap(out, packets)
    return out.getvalue()


def decode(blob: bytes) -> tuple[list[Packet], list]:
    """Packets and reassembled non-empty flows of a capture (untimed)."""
    packets = list(read_pcap(BytesIO(blob)))
    assembler = FlowAssembler()
    assembler.add_all(packets)
    return packets, [flow for flow in assembler.flows() if flow.payload]


# -- fidelity -----------------------------------------------------------------


def by_flow(alerts) -> dict[tuple, list[tuple[int, int]]]:
    """``canonical_stream`` grouped per flow key: key -> [(pos, match_id)]."""
    flows: dict[tuple, list[tuple[int, int]]] = {}
    for row in canonical_stream(alerts):
        flows.setdefault(row[:5], []).append(row[5:])
    return flows


def key_tuple(key: FiveTuple) -> tuple:
    return (key.proto, key.src_ip, key.src_port, key.dst_ip, key.dst_port)


def mismatched_flows(reference: dict, alerts) -> int:
    """Flows whose alert stream differs from the scalar reference."""
    got = by_flow(alerts)
    return sum(1 for key in reference.keys() | got.keys() if reference.get(key) != got.get(key))
