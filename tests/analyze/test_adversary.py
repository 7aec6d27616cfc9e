"""The adversarial worst-case auditor: witness synthesis, replay, scoping.

Witnesses are *claims* — "this byte stream costs the engine at least
this much more than clean traffic" — so the tests hold them to the same
standard the CLI gate does: the statically predicted cost must beat the
clean baseline, the payload must be deterministic and serializable, and
replaying it through the real engines must never change the confirmed
match stream (a witness that alters what the engine reports is an attack
on the test, not on the engine).
"""

import pytest

from repro.analyze import (
    REQUIRED_WITNESS_KINDS,
    AnalysisReport,
    analyze_adversary,
    analyze_engine_adversary,
)
from repro.bench.harness import patterns_for
from repro.core import compile_mfa, dumps_mfa, loads_mfa


@pytest.fixture(scope="module")
def c8():
    """C8 dense: a prefilter plan and filter programs, every channel live."""
    return compile_mfa(patterns_for("C8"))


@pytest.fixture(scope="module")
def audit_c8(c8):
    return analyze_adversary(c8, replay=False)


class TestWitnessSynthesis:
    def test_all_required_classes_present(self, audit_c8):
        kinds = {w.kind for w in audit_c8.witnesses}
        assert set(REQUIRED_WITNESS_KINDS) <= kinds

    def test_witnesses_predict_above_baseline(self, audit_c8):
        for witness in audit_c8.witnesses:
            assert witness.predicted_cost >= witness.baseline_cost, witness.kind
            assert witness.predicted_ratio >= 1.0, witness.kind

    def test_witness_codes_match_kinds(self, audit_c8):
        by_kind = {w.kind: w.code for w in audit_c8.witnesses}
        assert by_kind["prefilter-evasion"] == "AV102"
        assert by_kind["filter-churn"] == "AV104"

    def test_every_witness_has_a_finding(self, audit_c8):
        codes = {f.code for f in audit_c8.report}
        assert {w.code for w in audit_c8.witnesses} <= codes
        assert "AV130" in codes  # the census line

    def test_to_dict_round_trips_payload(self, audit_c8):
        for witness in audit_c8.witnesses:
            doc = witness.to_dict()
            assert bytes.fromhex(doc["payload_hex"]) == witness.payload
            assert doc["length"] == len(witness.payload)
            assert doc["digest"] == witness.digest

    def test_synthesis_is_deterministic(self, c8, audit_c8):
        again = analyze_adversary(c8, replay=False)
        assert [w.to_dict() for w in again.witnesses] == [
            w.to_dict() for w in audit_c8.witnesses
        ]
        assert again.report.to_json() == audit_c8.report.to_json()

    def test_zero_copy_load_audits_like_compiled(self, c8, audit_c8):
        # mmap=True leaves the transition rows as memoryviews over the blob.
        loaded = loads_mfa(dumps_mfa(c8), mmap=True)
        again = analyze_adversary(loaded, replay=False)
        assert [w.to_dict() for w in again.witnesses] == [
            w.to_dict() for w in audit_c8.witnesses
        ]
        assert again.report.to_json() == audit_c8.report.to_json()


class TestReplay:
    @pytest.fixture(scope="class")
    def replayed(self, c8):
        return analyze_adversary(
            c8, replay=True, replay_bytes=4096, best_of=1
        )

    def test_zero_stream_diffs(self, replayed):
        assert replayed.replays
        assert all(r.stream_diffs == 0 for r in replayed.replays)
        assert not any(f.code == "AV106" for f in replayed.report)

    def test_every_required_kind_replayed(self, replayed):
        replayed_kinds = {r.kind for r in replayed.replays}
        assert set(REQUIRED_WITNESS_KINDS) <= replayed_kinds

    def test_slowdown_is_max_over_engines(self, replayed):
        for kind in {r.kind for r in replayed.replays}:
            measured = [
                r.measured_slowdown for r in replayed.replays if r.kind == kind
            ]
            assert replayed.slowdown(kind) == pytest.approx(max(measured))

    def test_replay_timings_are_positive(self, replayed):
        for replay in replayed.replays:
            assert replay.witness_ns_per_byte > 0
            assert replay.clean_ns_per_byte > 0


class TestEngineScoping:
    def test_mfa_delegates(self, c8, audit_c8):
        result = analyze_engine_adversary(c8, replay=False)
        assert {w.kind for w in result.witnesses} == {
            w.kind for w in audit_c8.witnesses
        }

    def test_sharded_engine_relocates_findings(self, c8):
        class Sharded:
            shards = [c8]

        result = analyze_engine_adversary(Sharded(), replay=False)
        assert result.witnesses
        assert all(w.params["shard"] == 0 for w in result.witnesses)
        census = [f for f in result.report if f.code == "AV130"]
        assert census and all("shard 0" in f.location for f in census)

    def test_foreign_engine_is_out_of_scope(self):
        result = analyze_engine_adversary(object())
        assert not result.witnesses
        codes = [f.code for f in result.report]
        assert codes == ["AV120"]

    def test_external_report_is_extended(self, c8):
        report = AnalysisReport()
        result = analyze_adversary(c8, report, replay=False)
        assert result.report is report
        assert any(f.code == "AV130" for f in report)
