"""Fault injectors composed with the daemon.

The serving path must degrade *identically* to the batch path: a
fault-injected capture scanned through the daemon yields byte-identical
match streams to a single-process ``resilient_scan`` with the same seed,
and worker-level faults (kill, hang) never lose or duplicate matches for
unaffected flows.
"""

import os
import signal
import time
from io import BytesIO

import pytest

from repro.core import compile_mfa
from repro.robust import resilient_scan
from repro.robust.faults import FAULT_CLASSES, apply_fault
from repro.serve import (
    ScanDaemon,
    ServeConfig,
    canonical_stream,
    fault_payload,
    serve_scan,
)
from repro.traffic.flows import PROTO_TCP, FiveTuple, Packet
from repro.traffic.pcap import write_pcap

pytestmark = pytest.mark.faults

RULES = [".*alpha.*omega", "beta[0-9]+"]


def key(i):
    return FiveTuple(PROTO_TCP, f"10.2.0.{i + 1}", 3000 + i, "192.168.0.3", 80)


def capture_blob():
    packets = []
    for i in range(12):
        payload = [
            b"alpha leads all the way to omega",
            b"plain noise without any match",
            b"beta42 and beta7 and beta19",
        ][i % 3] + bytes(f" flow-{i}", "ascii")
        packets.append(Packet(key=key(i), payload=payload, seq=0))
    buffer = BytesIO()
    write_pcap(buffer, packets)
    return buffer.getvalue()


def batch_blob(flows):
    buffer = BytesIO()
    write_pcap(buffer, [Packet(key=k, payload=p, seq=0) for k, p in flows])
    return buffer.getvalue()


@pytest.fixture(scope="module")
def daemon():
    d = ScanDaemon(RULES, shards=2, config=ServeConfig(workers=2)).start()
    yield d
    d.stop()


def reset(daemon):
    """Fresh alert ledger between scenarios on the shared daemon."""
    daemon.drain()
    daemon.alerts.clear()


class TestFaultClassesThroughServe:
    @pytest.mark.parametrize("fault", sorted(FAULT_CLASSES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_stream_byte_identical_to_resilient_scan(self, daemon, fault, seed):
        reset(daemon)
        blob = apply_fault(capture_blob(), fault, seed=seed)
        ref_alerts, ref_report = resilient_scan(compile_mfa(RULES), blob)
        # The shared daemon's report accumulates across scenarios, so the
        # ingest accounting is compared as deltas.
        corrupt0 = daemon.report.pcap.corrupt_records
        undecodable0 = daemon.report.pcap.undecodable_frames
        packets0 = daemon.report.n_packets
        alerts, report = serve_scan(daemon, blob)
        assert canonical_stream(alerts) == canonical_stream(ref_alerts)
        assert report.pcap.corrupt_records - corrupt0 == ref_report.pcap.corrupt_records
        assert (
            report.pcap.undecodable_frames - undecodable0
            == ref_report.pcap.undecodable_frames
        )
        assert report.n_packets - packets0 == ref_report.n_packets


class TestWorkerKillMidFlow:
    def test_no_lost_or_duplicated_matches_for_other_flows(self):
        d = ScanDaemon(
            RULES, config=ServeConfig(workers=2, queue_depth=32, backoff_base=0.02)
        ).start()
        try:
            blob = capture_blob()
            ref_alerts, _ = resilient_scan(compile_mfa(RULES), blob)
            # Enough work that a mid-run kill lands while flows are in
            # flight; payloads are padded so scans take real time.
            pad = b"y" * 400_000
            for i in range(12):
                d.submit(key(i), pad + b" alpha deep inside omega beta33 ")
            victim = d.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            d.drain(120)
            report = d.status()
            assert report.restarts >= 1
            # Exactly-once: every flow alerts exactly once per rule hit —
            # the killed worker's flows were re-dispatched, not lost, and
            # any double-reported flow would duplicate its events.
            per_flow = {}
            for a in d.alerts:
                per_flow.setdefault(a.key, []).append(
                    (a.event.pos, a.event.match_id)
                )
            assert len(per_flow) == 12
            expected = sorted(per_flow[key(0)])
            for k, events in per_flow.items():
                assert sorted(events) == expected, f"flow {k} diverged"
                assert len(events) == len(set(events)), f"flow {k} duplicated"
            # The reference capture still matches through serve afterwards:
            # the daemon recovered to a fully healthy state.
            d.alerts.clear()
            alerts, _ = serve_scan(d, blob)
            assert canonical_stream(alerts) == canonical_stream(ref_alerts)
        finally:
            d.stop()


class TestWorkerKillMidBatch:
    def test_exactly_once_when_a_multi_flow_batch_dies(self):
        # More workers than cores, each message a 4-flow batch of padded
        # payloads, so the kill lands inside a batch: the batch splits and
        # re-dispatches, and no flow is lost, duplicated or blamed.
        d = ScanDaemon(
            RULES, config=ServeConfig(workers=3, queue_depth=4, backoff_base=0.02)
        ).start()
        try:
            payload = b"y" * 200_000 + b" alpha deep inside omega beta33 "
            flows = [(key(i), payload) for i in range(36)]
            assert d.submit_batch(flows[:12]) == 12  # one batch per worker
            deadline = time.time() + 10
            while d._active_flow[0] < 0 and time.time() < deadline:
                time.sleep(0.001)  # wait until worker 0 is inside its batch
            os.kill(d.worker_pids()[0], signal.SIGKILL)
            assert d.submit_batch(flows[12:]) == 24
            d.drain(120)
            report = d.status()
            assert report.restarts >= 1
            assert report.flows_quarantined == 0
            expected = sorted((e.pos, e.match_id) for e in compile_mfa(RULES).run(payload))
            per_flow = {}
            for a in d.alerts:
                per_flow.setdefault(a.key, []).append((a.event.pos, a.event.match_id))
            assert sorted(per_flow) == sorted(k for k, _ in flows)
            for k, events in per_flow.items():
                assert sorted(events) == expected, f"flow {k} lost or duplicated events"
        finally:
            d.stop()


class TestPoisonFlowQuarantine:
    def test_hang_flow_quarantined_others_unaffected(self):
        config = ServeConfig(
            workers=2,
            faults=True,
            hang_timeout=1.0,
            max_flow_kills=2,
            backoff_base=0.02,
        )
        d = ScanDaemon(RULES, config=config).start()
        try:
            benign = [(key(i), b"alpha ride along omega") for i in range(4)]
            for k, payload in benign:
                d.submit(k, payload)
            d.submit(key(9), fault_payload("HANG"))
            for k, payload in benign:
                d.submit(FiveTuple(k.proto, k.src_ip, k.src_port + 500, k.dst_ip, 81), payload)
            d.drain(90)
            report = d.status()
            # The hang was detected (twice: retry then quarantine) and
            # attributed to the poison flow.
            assert report.hangs == 2
            assert report.flows_quarantined == 1
            assert report.degraded
            assert any(
                k == key(9) and "quarantined" in reason
                for k, reason in report.dispatch.errors
            )
            # Every benign flow alerted exactly once.
            assert len({a.key for a in d.alerts}) == 8
            assert len(d.alerts) == 8
        finally:
            d.stop()

    def test_crash_flow_quarantined_after_retry(self):
        config = ServeConfig(workers=1, faults=True, backoff_base=0.02)
        d = ScanDaemon(RULES, config=config).start()
        try:
            d.submit(key(0), fault_payload("CRASH"))
            d.submit(key(1), b"beta5 rides along")
            d.drain(60)
            report = d.status()
            assert report.restarts == 2  # first kill retries, second quarantines
            assert report.flows_quarantined == 1
            assert [a.event.match_id for a in d.alerts] == [2]
        finally:
            d.stop()

    def test_crash_mid_batch_splits_then_quarantines(self):
        # Batches of 5: the CRASH flow sits in the middle of the second.
        config = ServeConfig(
            workers=1, faults=True, queue_depth=10, backoff_base=0.02
        )
        poison = 7
        flows = [
            (key(i), b"alpha then omega" + bytes(f" flow-{i}", "ascii"))
            for i in range(15)
        ]
        benign = flows[:poison] + flows[poison + 1 :]
        flows[poison] = (key(poison), fault_payload("CRASH"))
        ref_alerts, _ = resilient_scan(compile_mfa(RULES), batch_blob(benign))
        d = ScanDaemon(RULES, config=config).start()
        try:
            alerts, report = serve_scan(d, batch_blob(flows))
            # The multi-flow batch's death is split, not blamed; the two
            # deaths of the one-flow retry then quarantine the poison.
            assert report.restarts == config.max_flow_kills + 1
            assert report.flows_quarantined == 1
            assert any(
                k == key(poison) and "quarantined" in reason
                for k, reason in report.dispatch.errors
            )
            assert sorted(a.key for a in alerts) == sorted(k for k, _ in benign)
            assert canonical_stream(alerts) == canonical_stream(ref_alerts)
        finally:
            d.stop()

    def test_raise_mid_batch_poisons_only_that_flow(self):
        config = ServeConfig(workers=1, faults=True, queue_depth=10)
        flows = [(key(i), b"alpha and omega") for i in range(5)]
        benign = flows[:2] + flows[3:]
        flows[2] = (key(2), fault_payload("RAISE"))
        ref_alerts, _ = resilient_scan(compile_mfa(RULES), batch_blob(benign))
        d = ScanDaemon(RULES, config=config).start()
        try:
            alerts, report = serve_scan(d, batch_blob(flows))
            assert report.restarts == 0
            assert report.dispatch.flows_poisoned == 1
            assert [k for k, _reason in report.dispatch.errors] == [key(2)]
            assert report.workers[0].batches == 1  # one scan, retried per flow
            assert canonical_stream(alerts) == canonical_stream(ref_alerts)
        finally:
            d.stop()

    def test_raise_poisons_without_restart(self):
        config = ServeConfig(workers=1, faults=True)
        d = ScanDaemon(RULES, config=config).start()
        try:
            d.submit(key(0), fault_payload("RAISE"))
            d.submit(key(1), b"alpha and omega")
            d.drain(30)
            report = d.status()
            assert report.restarts == 0  # an exception is not a crash
            assert report.dispatch.flows_poisoned == 1
            assert len(d.alerts) == 1
        finally:
            d.stop()
