"""Compile escorts: one table, one loop, one crash rule.

Every escort in :data:`repro.analyze.ESCORTS` is held to the same
contract inside :class:`ResilientCompiler`: its findings land under its
name with a phase timing, a crash becomes its own ``XX100`` ERROR, and it
stays off unless selected.  ``compile_mfa(lint=, prove=)`` runs the same
escorts fail-closed.
"""

import pytest

import repro.analyze as analyze_mod
from repro.analyze import ESCORTS, AnalysisReport
from repro.bench.harness import patterns_for
from repro.core import LintError, ProofError, compile_mfa
from repro import config
from repro.robust import CompileLimits, ResilientCompiler

pytestmark = pytest.mark.faults

C8 = list(patterns_for("C8"))
REDUNDANT = [r".*\.exe", r".*cmd\.exe"]

# escort -> (crash code, rule set, a finding code it must report there)
CASES = {
    "audit": ("AU100", C8, None),
    "prove": ("EQ100", C8, "EQ130"),
    "adversary": ("AV100", C8, "AV130"),
    "ruleset": ("RS100", REDUNDANT, "RS102"),
}


def compile_with(escorts, rules=C8, **limits):
    return ResilientCompiler(CompileLimits(escorts=frozenset(escorts), **limits)).compile(
        rules
    )


def test_cases_cover_the_table():
    assert list(CASES) == list(ESCORTS)


@pytest.mark.parametrize("name", list(CASES))
class TestEveryEscort:
    def test_findings_land_under_its_name(self, name):
        _, rules, code = CASES[name]
        result = compile_with({name}, rules)
        report = result.report
        assert result.ok and list(report.findings) == [name]
        found = report.findings[name]
        assert not found.has_errors
        if code is not None:
            assert code in {f.code for f in found}
        assert name in report.phases
        assert report.to_dict()["findings"] == {name: found.to_dict()}
        assert any(line.startswith(f"{name}: 0 error(s)") for line in report.describe())

    def test_crash_becomes_its_own_error(self, name, monkeypatch):
        crash_code, rules, _ = CASES[name]

        def explode(engine, patterns, splitter_options):
            raise RuntimeError("seeded escort crash")

        monkeypatch.setitem(ESCORTS, name, (explode, ESCORTS[name][1]))
        result = compile_with({name}, rules)
        assert result.ok  # never fatal: the crash is itself a finding
        (finding,) = result.report.findings[name].findings
        assert (finding.code, finding.severity) == (crash_code, "error")
        assert "seeded escort crash" in finding.message

    def test_off_unless_selected(self, name):
        default = ResilientCompiler().compile(C8).report
        assert (name in default.findings) == (name == "audit")
        # Every other escort but the (slow) prover, which the default
        # compile already leaves out.
        others = compile_with(set(ESCORTS) - {name, "prove"}).report
        assert name not in others.findings and name not in others.phases
        assert name not in others.to_dict()["findings"]
        assert not any(line.startswith(f"{name}:") for line in others.describe())


def test_escorts_run_in_table_order():
    result = compile_with({"ruleset", "adversary", "audit"})
    assert list(result.report.findings) == ["audit", "adversary", "ruleset"]


def test_ruleset_runs_without_a_shipped_engine():
    result = compile_with(ESCORTS, REDUNDANT, budget_schedule=(4,), fallback_chain=("mfa",))
    assert not result.ok
    assert list(result.report.findings) == ["ruleset"]
    assert any(f.code == "RS102" for f in result.report.findings["ruleset"])


class TestSelection:
    @pytest.mark.parametrize(
        "environ, expected",
        [
            ({}, {"audit"}),
            ({"REPRO_COMPILE_ESCORTS": ""}, set()),
            ({"REPRO_COMPILE_ESCORTS": "audit,prove,adversary,ruleset"}, set(ESCORTS)),
            ({"REPRO_COMPILE_ESCORTS": " ruleset , prove "}, {"prove", "ruleset"}),
        ],
        ids=["unset", "empty", "all", "spaced"],
    )
    def test_env_spelling(self, environ, expected):
        assert config.compile_limits(environ).escorts == expected

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown escorts") as excinfo:
            CompileLimits(escorts=frozenset({"proof"}))
        assert all(name in str(excinfo.value) for name in ESCORTS)

    def test_unknown_env_name_rejected(self):
        with pytest.raises(ValueError, match=r"REPRO_COMPILE_ESCORTS=.*\['proof'\]"):
            config.compile_limits({"REPRO_COMPILE_ESCORTS": "audit,proof"})


def _seeded(code):
    def analyzer(engine, *args, **kwargs):
        report = AnalysisReport()
        report.add(code, "error", "seeded", "seeded error finding")
        return report

    return analyzer


def _crash(*args, **kwargs):
    raise RuntimeError("seeded analyzer crash")


class TestCompileMfaGates:
    def test_lint_true_returns_the_engine(self):
        engine = compile_mfa(C8, lint=True)
        assert engine.run(b"MAIL FROM:RCPT TO:")

    def test_lint_true_raises_on_error_findings(self, monkeypatch):
        monkeypatch.setattr(analyze_mod, "analyze_engine", _seeded("AU101"))
        with pytest.raises(LintError) as excinfo:
            compile_mfa(C8, lint=True)
        assert [f.code for f in excinfo.value.report.errors] == ["AU101"]

    def test_audit_crash_raises_lint_error(self, monkeypatch):
        monkeypatch.setattr(analyze_mod, "analyze_engine", _crash)
        with pytest.raises(LintError) as excinfo:
            compile_mfa(C8, lint=True)
        (finding,) = excinfo.value.report.errors
        assert finding.code == "AU100" and "seeded analyzer crash" in finding.message

    def test_prover_crash_raises_proof_error(self, monkeypatch):
        monkeypatch.setattr(analyze_mod, "analyze_engine_equivalence", _crash)
        with pytest.raises(ProofError) as excinfo:
            compile_mfa(C8, prove=True)
        (finding,) = excinfo.value.report.errors
        assert finding.code == "EQ100" and "seeded analyzer crash" in finding.message
        assert "EQ100" in str(excinfo.value)
