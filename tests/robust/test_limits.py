"""CompileLimits/ScanLimits validation and environment parsing."""

import pytest

from repro.automata.dfa import DEFAULT_STATE_BUDGET
from repro.robust.limits import (
    DEFAULT_FALLBACK_CHAIN,
    CompileLimits,
    ScanLimits,
    compile_limits_from_env,
    scan_limits_from_env,
)
from repro.traffic.flows import FlowLimits

pytestmark = pytest.mark.faults



class TestCompileLimits:
    def test_defaults(self):
        limits = CompileLimits()
        assert limits.budget_schedule == (DEFAULT_STATE_BUDGET,)
        assert limits.time_budget is None
        assert limits.fallback_chain == DEFAULT_FALLBACK_CHAIN
        assert limits.escorts == {"audit"}

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="at least one budget"):
            CompileLimits(budget_schedule=())

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CompileLimits(budget_schedule=(100, 0))

    def test_decreasing_schedule_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CompileLimits(budget_schedule=(200, 100))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one engine"):
            CompileLimits(fallback_chain=())

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engines"):
            CompileLimits(fallback_chain=("mfa", "warp-drive"))

    def test_escalating_schedule(self):
        limits = CompileLimits.escalating(100, steps=3, factor=2)
        assert limits.budget_schedule == (100, 200, 400)

    def test_escalating_minimum_one_step(self):
        assert CompileLimits.escalating(50, steps=0).budget_schedule == (50,)


class TestCompileEnv:
    def test_empty_environment_gives_defaults(self):
        limits = compile_limits_from_env({})
        assert limits.budget_schedule[0] == DEFAULT_STATE_BUDGET
        assert limits.fallback_chain == DEFAULT_FALLBACK_CHAIN
        assert limits.time_budget is None

    def test_state_budget_seeds_geometric_schedule(self):
        limits = compile_limits_from_env({"REPRO_STATE_BUDGET": "1000"})
        assert limits.budget_schedule == (1000, 2000, 4000)

    def test_explicit_schedule_wins(self):
        limits = compile_limits_from_env(
            {"REPRO_STATE_BUDGET": "1000", "REPRO_BUDGET_SCHEDULE": "5, 10, 20"}
        )
        assert limits.budget_schedule == (5, 10, 20)

    def test_time_budget(self):
        limits = compile_limits_from_env({"REPRO_DFA_TIME_BUDGET": "2.5"})
        assert limits.time_budget == 2.5

    def test_fallback_chain(self):
        limits = compile_limits_from_env({"REPRO_FALLBACK_CHAIN": "dfa, nfa"})
        assert limits.fallback_chain == ("dfa", "nfa")

    def test_bad_chain_from_env_rejected(self):
        with pytest.raises(ValueError, match="unknown engines"):
            compile_limits_from_env({"REPRO_FALLBACK_CHAIN": "zfa"})


class TestScanEnv:
    def test_scan_limits_is_flow_limits(self):
        assert ScanLimits is FlowLimits

    def test_empty_environment_unbounded(self):
        limits = scan_limits_from_env({})
        assert limits == FlowLimits()

    def test_all_knobs(self):
        limits = scan_limits_from_env(
            {
                "REPRO_MAX_FLOWS": "128",
                "REPRO_MAX_FLOW_BYTES": "65536",
                "REPRO_MAX_FLOW_SEGS": "64",
            }
        )
        assert limits.max_flows == 128
        assert limits.max_flow_bytes == 65536
        assert limits.max_flow_segments == 64
