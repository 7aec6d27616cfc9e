"""One capture through every scan path and engine: the same match stream.

The first slice of a differential engine matrix.  One capture, with a
TCP flow whose segments arrive out of order, is scanned under a two-flow
table so that flows are evicted mid-capture:

* ``resilient_scan`` over the scalar MFA, a ``FastPathMFA`` with the
  prefilter on and off, and a two-shard engine of MFA shards and of
  fastpath shards;
* ``serve_scan`` through a one-worker fastpath daemon over a two-shard
  segment;
* ``replay`` of the reassembled flows over the MFA, one packet per batch,
  and over the fastpath engine in packed batches.

Every path must give a byte-identical ``canonical_stream``, and the
daemon must account the same packets and evictions as the batch scan.
"""

from dataclasses import asdict

import pytest

from repro.core import compile_mfa
from repro.core.sharded import ShardedMFA
from repro.fastpath import build_fastpath
from repro.robust import resilient_scan
from repro.serve import ScanDaemon, ServeConfig, canonical_stream, serve_scan
from repro.traffic import FlowLimits, ingest_flows, replay, write_pcap
from repro.traffic.flows import PROTO_TCP, FiveTuple, FlowMatch, Packet

RULES = [
    ".*alpha.*omega",
    ".*beta[0-9]",
    r".*GET /cgi-bin/.*\.\./",
    ".*POST /login.*passwd=",
]

PAYLOADS = [
    b"GET /cgi-bin/a/../etc and beta12",
    b"POST /login?user=x&passwd=y then alpha",
    b"alpha ... omega, then beta7, then alpha again and omega",
    b"plain noise without a single hit",
    b"beta1 beta22 beta333",
    b"POST /login, passwd= and GET /cgi-bin/../",
]

REORDERED = 2  # this flow's second segment arrives first
LIMITS = FlowLimits(max_flows=2)


def key(i):
    return FiveTuple(PROTO_TCP, f"10.5.0.{i + 1}", 4000 + i, "192.168.5.1", 80)


def segments(i):
    """Flow ``i`` as three TCP segments, in the order they arrive."""
    payload = PAYLOADS[i]
    cuts = [0, len(payload) // 3, 2 * len(payload) // 3, len(payload)]
    packets = [
        Packet(key=key(i), payload=payload[a:b], seq=1000 + a)
        for a, b in zip(cuts, cuts[1:])
    ]
    if i == REORDERED:
        packets[0], packets[1] = packets[1], packets[0]
    return packets


def capture(path):
    """Flows two at a time, their segments interleaved: the third flow to
    open evicts one of the first two, and so on, so no flow is split."""
    packets = []
    for first in range(0, len(PAYLOADS), 2):
        pair = zip(segments(first), segments(first + 1))
        packets.extend(packet for both in pair for packet in both)
    with open(path, "wb") as stream:
        write_pcap(stream, packets)
    return path


def replay_packets(pcap):
    """The reassembled flows, in the order ingest hands them on, each cut
    into 7-byte packets and sent back to back."""
    flows = []
    ingest_flows(pcap, flows.extend, LIMITS)
    assert sorted(flow.payload for flow in flows) == sorted(PAYLOADS)
    return [
        Packet(key=flow.key, payload=flow.payload[start : start + 7], seq=0)
        for flow in flows
        for start in range(0, len(flow.payload), 7)
    ]


def replay_stream(stats):
    return canonical_stream(FlowMatch(key, event) for key, event in stats.alerts)


@pytest.fixture(scope="module")
def pcap(tmp_path_factory):
    return capture(tmp_path_factory.mktemp("matrix") / "reordered.pcap")


@pytest.fixture(scope="module")
def mfa():
    return compile_mfa(RULES)


@pytest.fixture(scope="module")
def reference(mfa, pcap):
    alerts, report = resilient_scan(mfa, pcap, LIMITS)
    assert report.assembler.flows_evicted == len(PAYLOADS) - 2
    assert report.n_flows == len(PAYLOADS)
    assert not report.dispatch.flows_poisoned
    return canonical_stream(alerts), report


def engines(mfa):
    sharded = compile_mfa(RULES, shards=2)
    return {
        "mfa": (mfa, None),
        "fastpath-prefilter-auto": (build_fastpath(mfa, prefilter="auto"), 3),
        "fastpath-prefilter-off": (build_fastpath(mfa, prefilter="off"), 3),
        "sharded-mfa": (sharded, 3),
        "sharded-fastpath": (ShardedMFA([build_fastpath(s) for s in sharded.shards]), 3),
    }


@pytest.mark.parametrize(
    "name",
    [
        "mfa",
        "fastpath-prefilter-auto",
        "fastpath-prefilter-off",
        "sharded-mfa",
        "sharded-fastpath",
    ],
)
def test_resilient_scan_engines_agree(mfa, pcap, reference, name):
    engine, batch_size = engines(mfa)[name]
    if name == "fastpath-prefilter-auto":
        assert engine.prefilter_active
    if name.startswith("sharded"):
        assert engine.n_shards == 2
    alerts, report = resilient_scan(engine, pcap, LIMITS, batch_size=batch_size)
    stream, ref_report = reference
    assert stream, "the capture must raise alerts"
    assert canonical_stream(alerts) == stream
    assert report.n_packets == ref_report.n_packets
    assert report.n_flows == ref_report.n_flows
    assert report.assembler == ref_report.assembler


def test_serve_scan_agrees_and_accounts_the_same_ingest(pcap, reference):
    stream, ref_report = reference
    daemon = ScanDaemon(RULES, shards=2, config=ServeConfig(workers=1, engine="fastpath"))
    daemon.start()
    try:
        # The daemon's report accumulates across scans: compare deltas.
        status = daemon.status()
        packets0, assembler0 = status.n_packets, asdict(status.assembler)
        alerts, report = serve_scan(daemon, pcap, LIMITS)
        assert daemon.shards == 2
        assert canonical_stream(alerts) == stream
        assert report.n_packets - packets0 == ref_report.n_packets
        assembler = asdict(report.assembler)
        deltas = {name: assembler[name] - assembler0[name] for name in assembler}
        assert deltas == asdict(ref_report.assembler)
        assert report.n_flows == ref_report.n_flows
        assert not report.dispatch.flows_poisoned
    finally:
        daemon.stop()


def test_replay_agrees_packet_by_packet_and_packed(mfa, pcap, reference):
    stream, _ = reference
    packets = replay_packets(pcap)
    scalar = replay(mfa, packets, max_flows=2)
    packed = replay(build_fastpath(mfa), packets, max_flows=2, batch_size=5)
    assert scalar.n_batches == scalar.n_packets == len(packets)
    assert packed.n_batches < packed.n_packets == len(packets)
    assert scalar.n_evicted == packed.n_evicted == len(PAYLOADS) - 2
    assert replay_stream(scalar) == replay_stream(packed) == stream
