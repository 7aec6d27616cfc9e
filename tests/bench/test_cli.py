"""CLI smoke tests (cheap commands only; figures run in benchmarks/)."""

import pytest

from repro.bench.cli import main


def reordered_capture(directory):
    """A two-segment flow whose second segment arrives first; reassembled,
    it carries C8's first rule across the segment boundary."""
    from repro.traffic import FiveTuple, Packet, write_pcap
    from repro.traffic.flows import PROTO_TCP

    key = FiveTuple(PROTO_TCP, "10.0.0.1", 2000, "192.168.0.1", 80)
    head = b"GET /cgi-bin/a"
    pcap = directory / "reordered.pcap"
    with open(pcap, "wb") as stream:
        tail = Packet(key=key, payload=b"/../", seq=len(head))
        write_pcap(stream, [tail, Packet(key=key, payload=head, seq=0)])
    return pcap


class TestCli:
    def test_compile_small_set(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["compile", "C8"]) == 0
        out = capsys.readouterr().out
        assert "mfa:" in out and "states" in out
        assert "splits:" in out

    def test_compile_requires_set(self):
        with pytest.raises(SystemExit):
            main(["compile"])

    def test_compile_unknown_set(self):
        with pytest.raises(SystemExit):
            main(["compile", "nope"])

    @pytest.mark.parametrize("flag", ["--shards", "--jobs"])
    def test_compile_rejects_a_count_below_one(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "C8", flag, "0"])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_table5_writes_results(self, capsys, monkeypatch, tmp_path):
        # table5 requires DFA builds for every set; keep it fast by slashing
        # the budgets so the explosive sets fail quickly (the table handles
        # failures as "-").
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        import repro.bench.harness as harness

        monkeypatch.setattr(harness, "STATE_BUDGET", 6000)
        monkeypatch.setattr(harness, "DFA_TIME_BUDGET", 3.0)
        harness.build_engine.cache_clear()
        try:
            assert main(["table5"]) == 0
            assert (tmp_path / "table5.txt").exists()
            out = capsys.readouterr().out
            assert "B217p" in out
        finally:
            harness.build_engine.cache_clear()


class TestScanCommand:
    def test_scan_capture(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.bench.harness import patterns_for
        from repro.traffic import TraceProfile, build_corpus

        paths = build_corpus(
            tmp_path,
            list(patterns_for("C8")),
            profiles=(TraceProfile("t", 5000, (0.6, 0.2, 0.1, 0.1), 0.4),),
            seed=5,
        )
        assert main(["scan", "C8", str(paths["t"])]) == 0
        out = capsys.readouterr().out
        assert "packets decoded" in out
        assert "alerts" in out

    def test_scan_needs_pcap(self):
        with pytest.raises(SystemExit):
            main(["scan", "C8"])

    @pytest.mark.parametrize("engine", ["mfa", "fastpath"])
    def test_scan_reassembles_a_reordered_capture(self, capsys, monkeypatch, tmp_path, engine):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        pcap = reordered_capture(tmp_path)
        assert main(["scan", "C8", str(pcap), "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert "2 packets decoded" in out
        assert "1 alerts across 1 flows" in out

    @pytest.mark.parametrize("engine", ["mfa", "fastpath"])
    def test_rscan_reassembles_a_reordered_capture(self, capsys, monkeypatch, tmp_path, engine):
        import repro.bench.harness as harness

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        pcap = reordered_capture(tmp_path)
        harness.build_resilient.cache_clear()
        try:
            assert main(["rscan", "C8", str(pcap), "--engine", engine]) == 0
        finally:
            harness.build_resilient.cache_clear()
        out = capsys.readouterr().out
        assert "engine: mfa" in out
        assert "packets: 2, flows: 1, alerts: 1" in out
        assert "clean scan: nothing dropped" in out


class TestCompressFlag:
    def test_compile_reports_compression(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["compile", "C8", "--compress"]) == 0
        out = capsys.readouterr().out
        assert "mfa compressed (depth<=4)" in out
        assert "x)" in out  # the bundle ratio

    def test_scan_roundtrips_compressed_artifact(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.bench.harness import patterns_for
        from repro.traffic import TraceProfile, build_corpus

        paths = build_corpus(
            tmp_path,
            list(patterns_for("C8")),
            profiles=(TraceProfile("t", 5000, (0.6, 0.2, 0.1, 0.1), 0.4),),
            seed=5,
        )
        assert main(["scan", "C8", str(paths["t"]), "--compress", "2"]) == 0
        out = capsys.readouterr().out
        assert "compressed artifact:" in out
        assert "alerts" in out

    def test_scan_compress_streams_match_dense(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.bench.harness import patterns_for
        from repro.traffic import TraceProfile, build_corpus

        paths = build_corpus(
            tmp_path,
            list(patterns_for("C8")),
            profiles=(TraceProfile("t", 5000, (0.6, 0.2, 0.1, 0.1), 0.4),),
            seed=5,
        )
        assert main(["scan", "C8", str(paths["t"])]) == 0
        dense_out = capsys.readouterr().out
        assert main(["scan", "C8", str(paths["t"]), "--compress"]) == 0
        compressed_out = capsys.readouterr().out
        dense_alerts = [ln for ln in dense_out.splitlines() if "alerts" in ln]
        compressed_alerts = [
            ln for ln in compressed_out.splitlines() if "alerts" in ln
        ]
        assert dense_alerts == compressed_alerts


class TestServeCommand:
    @pytest.mark.parametrize("flag", ["--shards", "--workers"])
    def test_serve_rejects_a_count_below_one(self, capsys, monkeypatch, flag):
        import repro.serve as serve

        def no_daemon(*args, **kwargs):
            raise AssertionError("started a daemon with a bad count")

        monkeypatch.setattr(serve, "ScanDaemon", no_daemon)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "C8", "--oneshot", flag, "0"])
        assert exc.value.code == 2
        assert "serve needs --shards and --workers of at least 1" in capsys.readouterr().err

    def test_daemon_uses_the_default_artifact_cache(self, monkeypatch, tmp_path):
        # Like rcompile/rscan, the daemon compiles through the default cache,
        # so a control-socket reload rebuilds only the changed shard;
        # REPRO_COMPILE_CACHE=0 turns it off.
        import repro.serve as serve

        class Built(Exception):
            pass

        seen = []

        def fake_daemon(rules, **kwargs):
            seen.append(kwargs["cache"])
            raise Built

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_COMPILE_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(serve, "ScanDaemon", fake_daemon)
        with pytest.raises(Built):
            main(["serve", "C8", "--oneshot"])
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        with pytest.raises(Built):
            main(["serve", "C8", "--oneshot"])
        assert seen[0].directory == tmp_path / "repro-mfa"
        assert seen[1] is None
