"""Daemon lifecycle: dispatch, backpressure, health, control socket.

One shared daemon per class where possible — worker spawn is the
dominant cost, so tests ride the same instance when they don't poison
its state.
"""

import json
import os

import pytest

from repro.core import compile_mfa
from repro.robust import resilient_scan
from repro.serve import (
    ControlServer,
    ScanDaemon,
    ServeConfig,
    canonical_stream,
    control_request,
    serve_scan,
)
from repro.traffic.flows import PROTO_TCP, FiveTuple, Packet
from repro.traffic.pcap import write_pcap
from io import BytesIO

RULES = [".*alpha.*omega", "beta[0-9]+"]


def key(i):
    return FiveTuple(PROTO_TCP, f"10.0.0.{i + 1}", 1000 + i, "192.168.0.1", 80)


def capture_blob(flows):
    buffer = BytesIO()
    write_pcap(buffer, [Packet(key=k, payload=p, seq=0) for k, p in flows])
    return buffer.getvalue()


FLOWS = [
    (key(0), b"alpha leads to omega"),
    (key(1), b"plain noise"),
    (key(2), b"beta42 and beta7"),
    (key(3), b"alpha ... omega!"),
    (key(4), b"beta1"),
]


@pytest.fixture(scope="module")
def daemon():
    d = ScanDaemon(RULES, shards=2, config=ServeConfig(workers=2)).start()
    yield d
    d.stop()


class TestServeScan:
    def test_stream_identical_to_resilient_scan(self, daemon):
        blob = capture_blob(FLOWS)
        ref_alerts, ref_report = resilient_scan(compile_mfa(RULES), blob)
        alerts, report = serve_scan(daemon, blob)
        assert canonical_stream(alerts) == canonical_stream(ref_alerts)
        assert report.n_flows == ref_report.n_flows
        assert report.n_packets == ref_report.n_packets
        assert not report.degraded

    def test_submit_and_drain_direct(self, daemon):
        before = len(daemon.alerts)
        assert daemon.submit(key(7), b"xx alpha yy omega zz")
        daemon.drain()
        fresh = daemon.alerts[before:]
        assert [a.event.match_id for a in fresh] == [1]

    def test_empty_payload_is_noop(self, daemon):
        submitted = daemon._submitted
        assert daemon.submit(key(8), b"")
        assert daemon._submitted == submitted

    def test_status_report_shape(self, daemon):
        daemon.submit(key(9), b"beta9")
        daemon.drain()
        doc = daemon.status().to_dict()
        # The serving surface rides on the full batch report.
        for field in (
            "pcap", "assembler", "dispatch", "n_flows", "n_alerts",
            "flows_evicted", "generation", "n_workers", "flows_shed",
            "flows_quarantined", "restarts", "hangs", "workers", "reloads",
            "uptime_seconds", "internal_errors",
        ):
            assert field in doc, field
        assert doc["n_workers"] == 2
        assert len(doc["workers"]) == 2
        assert doc["workers"][0]["pid"] is not None
        # Batching is visible: scanned batches and flows per batch.
        scanned = [w for w in doc["workers"] if w["flows"]]
        assert scanned
        for worker in scanned:
            assert 1 <= worker["batches"] <= worker["flows"]
            assert worker["flows_per_batch"] == worker["flows"] / worker["batches"]
        assert json.dumps(doc)  # JSON-serializable end to end

    def test_worker_pids_are_live(self, daemon):
        for pid in daemon.worker_pids():
            assert pid is not None
            os.kill(pid, 0)  # exists

    def test_describe_mentions_serving(self, daemon):
        text = "\n".join(daemon.status().describe())
        assert "serve: generation" in text
        assert "worker 0:" in text


class TestCompressedSegments:
    def test_compressed_daemon_stream_matches_dense(self):
        blob = capture_blob(FLOWS)
        ref_alerts, _ref_report = resilient_scan(compile_mfa(RULES), blob)
        config = ServeConfig(workers=1, compress=4)
        d = ScanDaemon(RULES, shards=2, config=config).start()
        try:
            alerts, report = serve_scan(d, blob)
            assert canonical_stream(alerts) == canonical_stream(ref_alerts)
            assert not report.degraded
        finally:
            d.stop()

    def test_negative_compress_refused(self):
        with pytest.raises(ValueError, match="compress"):
            ServeConfig(workers=1, compress=-1)


class TestBackpressure:
    def test_shed_mode_counts_and_records(self):
        config = ServeConfig(workers=1, queue_depth=1, shed=True)
        d = ScanDaemon(RULES, config=config).start()
        try:
            # Large payloads keep the single worker busy, so its one
            # queue slot fills and later submits shed immediately.
            big = b"x" * 2_000_000 + b"alpha omega"
            accepted = [d.submit(key(i), big) for i in range(12)]
            shed = accepted.count(False)
            d.drain(60)
            report = d.status()
            assert shed == report.flows_shed
            assert d._submitted == 12 - shed
            if shed:
                assert report.degraded
                assert any("shed" in reason for _k, reason in report.dispatch.errors)
        finally:
            d.stop()

    def test_blocking_mode_never_sheds(self):
        config = ServeConfig(workers=1, queue_depth=1, shed=False)
        d = ScanDaemon(RULES, config=config).start()
        try:
            for i in range(8):
                assert d.submit(key(i), b"alpha stuff omega")
            d.drain(30)
            assert d.status().flows_shed == 0
            assert len(canonical_stream(d.alerts)) == 8
        finally:
            d.stop()


class TestControlSocket:
    def test_ping_status_reload_shutdown(self, tmp_path):
        d = ScanDaemon(RULES, shards=2, config=ServeConfig(workers=1)).start()
        sock = str(tmp_path / "ctl.sock")
        server = ControlServer(d, sock).start()
        try:
            assert control_request(sock, {"op": "ping"}) == {"ok": True, "pong": True}

            d.submit(key(0), b"alpha to omega")
            d.drain()
            status = control_request(sock, {"op": "status"})
            assert status["ok"] and status["report"]["n_alerts"] == 1

            reloaded = control_request(
                sock, {"op": "reload", "rules": RULES + ["gamma"]}
            )
            assert reloaded["ok"]
            assert reloaded["reload"]["generation"] == 2

            unknown = control_request(sock, {"op": "frobnicate"})
            assert not unknown["ok"] and "unknown op" in unknown["error"]

            down = control_request(sock, {"op": "shutdown"})
            assert down["ok"]
            assert down["report"]["generation"] == 2
            assert server.shutdown_requested.is_set()
        finally:
            server.stop()
            d.stop()

    def test_malformed_request_is_answered(self, tmp_path):
        d = ScanDaemon(RULES, config=ServeConfig(workers=1)).start()
        sock = str(tmp_path / "ctl.sock")
        server = ControlServer(d, sock).start()
        try:
            import socket as socket_module

            with socket_module.socket(socket_module.AF_UNIX) as s:
                s.connect(sock)
                s.sendall(b"this is not json\n")
                answer = s.recv(65536)
            assert b'"ok": false' in answer or b'"ok":false' in answer
        finally:
            server.stop()
            d.stop()


class TestConfigValidation:
    def test_bad_configs_refused(self):
        with pytest.raises(ValueError):
            ServeConfig(workers=0)
        with pytest.raises(ValueError):
            ServeConfig(queue_depth=0)
        with pytest.raises(ValueError):
            ServeConfig(engine="warp-drive")

    @pytest.mark.parametrize("shards", [0, -2])
    def test_bad_shard_count_refused_before_compiling(self, monkeypatch, shards):
        import repro.serve.daemon as daemon_module

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled a daemon with a bad shard count")

        monkeypatch.setattr(daemon_module, "compile_mfa", no_compile)
        with pytest.raises(ValueError, match=f"shards must be >= 1, got {shards}"):
            ScanDaemon(RULES, shards=shards)

    def test_double_start_refused(self):
        d = ScanDaemon(RULES, config=ServeConfig(workers=1)).start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                d.start()
        finally:
            d.stop()

    def test_submit_before_start_refused(self):
        d = ScanDaemon(RULES)
        with pytest.raises(RuntimeError, match="not running"):
            d.submit(key(0), b"x")
