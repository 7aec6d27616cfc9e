"""CLI contract of the lint/audit gates and the runtime-oracle verify."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.harness import patterns_for
from repro.core import compile_mfa, dumps_mfa


@pytest.fixture(scope="module")
def bundle_bytes() -> bytes:
    return dumps_mfa(compile_mfa(patterns_for("C8")))


class TestLintCommand:
    def test_clean_ruleset_exits_zero(self, capsys):
        assert main(["lint", "C8"]) == 0
        out = capsys.readouterr().out
        assert "C8: 0 error(s)" in out

    def test_clean_bundle_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "c8.mfab"
        path.write_bytes(dumps_mfa(compile_mfa(patterns_for("C8"))))
        assert main(["lint", str(path)]) == 0

    def test_corrupt_bundle_exits_nonzero(self, tmp_path, capsys, bundle_bytes):
        blob = bytearray(bundle_bytes)
        blob[len(blob) // 2] ^= 0xFF  # one flipped bit in the table
        path = tmp_path / "corrupt.mfab"
        path.write_bytes(bytes(blob))
        assert main(["lint", str(path)]) == 1
        assert "ERROR" in capsys.readouterr().out

    def test_unknown_target_exits_two(self, capsys):
        assert main(["lint", "no-such-thing"]) == 2

    def test_missing_target_exits_two(self, capsys):
        assert main(["lint"]) == 2

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["lint", "C8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["C8"]["ok"] is True
        assert "findings" in payload["C8"]

    def test_json_output_is_deterministic(self, capsys):
        main(["lint", "C8", "--json"])
        first = capsys.readouterr().out
        main(["lint", "C8", "--json"])
        assert capsys.readouterr().out == first


class TestLintFailOn:
    def test_default_threshold_tolerates_warnings(self, monkeypatch, capsys):
        from repro.analyze import AnalysisReport
        from repro.analyze.report import WARNING

        warned = AnalysisReport()
        warned.add("FB110", WARNING, "filter", "dead bit", "bit 3")
        monkeypatch.setattr(
            "repro.bench.cli._lint_one_set", lambda name: warned
        )
        assert main(["lint", "C8"]) == 0
        assert main(["lint", "C8", "--fail-on", "error"]) == 0

    def test_warning_threshold_gates_warnings(self, monkeypatch, capsys):
        from repro.analyze import AnalysisReport
        from repro.analyze.report import WARNING

        warned = AnalysisReport()
        warned.add("FB110", WARNING, "filter", "dead bit", "bit 3")
        monkeypatch.setattr(
            "repro.bench.cli._lint_one_set", lambda name: warned
        )
        assert main(["lint", "C8", "--fail-on", "warning"]) == 1
        assert main(["lint", "C8", "--fail-on", "warning", "--json"]) == 1

    def test_warning_threshold_passes_clean_report(self, monkeypatch, capsys):
        from repro.analyze import AnalysisReport

        monkeypatch.setattr(
            "repro.bench.cli._lint_one_set", lambda name: AnalysisReport()
        )
        assert main(["lint", "C8", "--fail-on", "warning"]) == 0

    def test_unknown_threshold_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "C8", "--fail-on", "info"])


class TestAuditCommand:
    @pytest.fixture(scope="class")
    def audit_result(self):
        from repro.analyze import analyze_adversary

        mfa = compile_mfa(patterns_for("C8"))
        return analyze_adversary(mfa, replay=False)

    def test_static_audit_exits_zero(self, monkeypatch, audit_result, capsys):
        monkeypatch.setattr(
            "repro.bench.cli._audit_one_set",
            lambda name, replay: audit_result,
        )
        assert main(["audit", "C8", "--no-replay"]) == 0
        out = capsys.readouterr().out
        assert "witness prefilter-evasion" in out
        assert "AV130" in out

    def test_json_output_carries_witness_corpus(
        self, monkeypatch, audit_result, capsys
    ):
        monkeypatch.setattr(
            "repro.bench.cli._audit_one_set",
            lambda name, replay: audit_result,
        )
        assert main(["audit", "C8", "--no-replay", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        kinds = {w["kind"] for w in payload["C8"]["witnesses"]}
        assert {"prefilter-evasion", "filter-churn"} <= kinds
        for witness in payload["C8"]["witnesses"]:
            assert bytes.fromhex(witness["payload_hex"])

    def test_out_writes_corpus_file(
        self, monkeypatch, audit_result, tmp_path, capsys
    ):
        monkeypatch.setattr(
            "repro.bench.cli._audit_one_set",
            lambda name, replay: audit_result,
        )
        corpus = tmp_path / "witnesses.json"
        assert main(["audit", "C8", "--no-replay", "--out", str(corpus)]) == 0
        payload = json.loads(corpus.read_text())
        assert payload["C8"]["witnesses"]

    def test_error_findings_exit_one(self, monkeypatch, capsys):
        from repro.analyze import AnalysisReport
        from repro.analyze.adversary import AdversaryResult
        from repro.analyze.report import ERROR

        failed = AnalysisReport()
        failed.add("AV106", ERROR, "adversary", "stream diverged", "replay")
        monkeypatch.setattr(
            "repro.bench.cli._audit_one_set",
            lambda name, replay: AdversaryResult(failed),
        )
        assert main(["audit", "C8"]) == 1
        assert "AV106" in capsys.readouterr().out

    def test_unknown_target_exits_two(self, capsys):
        assert main(["audit", "no-such-thing"]) == 2

    def test_missing_target_exits_two(self, capsys):
        assert main(["audit"]) == 2

    def test_bundle_target_is_audited(self, tmp_path, bundle_bytes, capsys):
        path = tmp_path / "c8.mfab"
        path.write_bytes(bundle_bytes)
        assert main(["audit", str(path), "--no-replay"]) == 0
        assert "AV130" in capsys.readouterr().out


class TestVerifyCommand:
    def test_verify_clean_set_exits_zero(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["verify", "C8"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "DIVERGED" not in out

    def test_verify_requires_set(self):
        with pytest.raises(SystemExit):
            main(["verify"])

    def test_verify_unknown_set(self):
        with pytest.raises(SystemExit):
            main(["verify", "nope"])
