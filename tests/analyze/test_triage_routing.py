"""Triage-driven budget routing in the resilient compiler.

The explosion triager predicts post-decomposition state counts; the
fallback chain uses the prediction to skip scheduled budgets that cannot
possibly fit, instead of burning a full subset construction against each.
The last scheduled budget is always tried for real.
"""

from repro.analyze import RISK_HIGH, RISK_LOW, RISK_MEDIUM, triage_patterns
from repro.bench.harness import patterns_for
from repro.robust import CompileLimits, compile_resilient

# Decomposable: every separator splits off, so the component DFA is small
# but the *predicted* size still exceeds tiny budgets.
DECOMPOSABLE = [f".*w{a}{b}x.*y{b}{a}z" for a in "abcd" for b in "efgh"]


class TestTriagePredictions:
    def test_feasible_set_is_low_risk(self):
        triage = triage_patterns(patterns_for("C8"), state_budget=150_000)
        assert triage.risk == RISK_LOW
        assert triage.dfa_feasible and triage.mfa_feasible

    def test_b217p_dfa_infeasible_mfa_feasible(self):
        # The paper's headline set: "could not be constructed" as a DFA,
        # ships as an MFA.  The triage must predict both halves.
        triage = triage_patterns(patterns_for("B217p"), state_budget=150_000)
        assert triage.risk == RISK_MEDIUM
        assert not triage.dfa_feasible
        assert triage.mfa_feasible

    def test_undecomposable_set_is_high_risk(self):
        # Overlapping sides refuse the split, so the explosion survives
        # decomposition and even the MFA prediction blows the budget.
        from repro.regex import parse

        rules = [f".*{c}a{c}.*a{c}a" for c in "bcdefgh"]
        patterns = [parse(r, match_id=i + 1) for i, r in enumerate(rules)]
        triage = triage_patterns(patterns, state_budget=100)
        assert triage.risk == RISK_HIGH
        assert any(c.residual_factor > 1 for c in triage.census)

    def test_census_counts_separators(self):
        from repro.regex import parse

        triage = triage_patterns([parse(".*aaa.*bbb.{2,5}ccc", match_id=1)])
        (census,) = triage.census
        assert census.n_dot_star == 2
        assert census.n_counted == 1
        assert census.raw_factor > 1

    def test_anchored_patterns_do_not_interact(self):
        from repro.regex import parse

        triage = triage_patterns(
            [parse("^GET /index", match_id=1), parse("^HEAD /x", match_id=2)]
        )
        assert triage.risk == RISK_LOW
        assert all(c.raw_factor == 1 for c in triage.census)


class TestBudgetRouting:
    def test_hopeless_budget_skipped_not_burned(self):
        limits = CompileLimits(budget_schedule=(50, 50_000))
        result = compile_resilient(DECOMPOSABLE, limits=limits)
        assert result.ok and result.engine_name == "mfa"
        skipped = [a for a in result.report.attempts if a.skipped]
        assert [a.state_budget for a in skipped] == [50]
        assert skipped[0].engine == "mfa"
        # A skip is not a burned budget.
        assert result.report.budgets_consumed == []

    def test_last_budget_always_tried_for_real(self):
        # Even when the triage says 50 states cannot fit, a single-entry
        # schedule must be attempted: predictions are heuristics.
        limits = CompileLimits(budget_schedule=(50,), fallback_chain=("mfa", "nfa"))
        result = compile_resilient(DECOMPOSABLE, limits=limits)
        mfa_attempts = [a for a in result.report.attempts if a.engine == "mfa"]
        assert len(mfa_attempts) == 1
        assert not mfa_attempts[0].skipped

    def test_analyze_off_disables_triage_and_audit(self):
        limits = CompileLimits(budget_schedule=(50, 50_000), escorts=frozenset())
        result = compile_resilient(DECOMPOSABLE, limits=limits)
        assert result.report.triage is None
        assert "audit" not in result.report.findings
        assert not any(a.skipped for a in result.report.attempts)

    def test_triage_and_audit_land_on_report(self):
        result = compile_resilient(DECOMPOSABLE)
        report = result.report
        assert report.triage is not None
        assert not report.findings["audit"].has_errors
        assert "triage" in report.phases and "audit" in report.phases

    def test_report_dict_is_deterministic(self):
        result = compile_resilient(DECOMPOSABLE)
        data = result.report.to_dict()
        assert list(data["phases"]) == sorted(data["phases"])
        assert data["triage"]["risk"] in ("low", "medium", "high")
        assert data["findings"]["audit"]["ok"] is True

    def test_describe_mentions_skip_and_audit(self):
        limits = CompileLimits(budget_schedule=(50, 50_000))
        result = compile_resilient(DECOMPOSABLE, limits=limits)
        text = "\n".join(result.report.describe())
        assert "skipped: triage predicts" in text
        assert "audit:" in text
