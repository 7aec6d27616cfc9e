"""Resilient compile-and-scan pipeline tests.

The end-to-end degradation scenario from the issue lives in
:class:`TestEndToEndDegradation`: one unparseable rule + one
explosion-prone rule still yield a working engine with both incidents in
the report, and a fault-injected capture scans to completion with
identical matches on the unaffected flows.
"""

import itertools
from io import BytesIO
from types import SimpleNamespace

import pytest

import repro.fastcompile.bitset as bitset_module
from repro.core import compile_mfa
from repro.regex import parse
from repro.robust import (
    CompileLimits,
    ScanLimits,
    compile_resilient,
    corrupt_record_length,
    resilient_scan,
    xflood_packets,
)
from repro.robust.pipeline import ResilientCompiler
from repro.robust.report import COMPILED, QUARANTINED
from repro.traffic.flows import FiveTuple, PROTO_TCP, Packet, dispatch_flows
from repro.traffic.pcap import write_pcap

pytestmark = pytest.mark.faults


# A set whose combined component DFA trips small state budgets but builds
# comfortably under a few thousand states.
EXPLOSIVE = [f".*w{a}{b}x.*y{b}{a}z" for a in "abcd" for b in "efgh"]


def key(i):
    return FiveTuple(PROTO_TCP, f"10.0.0.{i + 1}", 1000 + i, "192.168.0.1", 80)


class TestQuarantine:
    def test_bad_rule_quarantined_good_rules_survive(self):
        result = compile_resilient(["ab", "((((", "cd"])
        assert result.ok
        report = result.report
        assert [r.status for r in report.rules] == [COMPILED, QUARANTINED, COMPILED]
        (bad,) = report.quarantined
        assert bad.match_id == 2
        assert bad.source == "(((("
        assert "RegexSyntaxError" in bad.error

    def test_match_ids_stay_positional(self):
        # Rule 3 must still alert as match-id 3 after rule 2 is quarantined.
        result = compile_resilient(["ab", "((((", "cd"])
        ids = {event.match_id for event in result.engine.run(b"xx ab .. cd")}
        assert ids == {1, 3}

    def test_pattern_objects_renumbered(self):
        rules = [parse("ab", match_id=7), "(((", parse("cd", match_id=1)]
        result = compile_resilient(rules)
        assert [p.match_id for p in result.patterns] == [1, 3]

    def test_all_rules_quarantined_yields_inert_engine(self):
        result = compile_resilient(["((((", "[[["])
        assert result.ok
        assert result.engine_name == "nfa"
        assert result.report.n_compiled == 0
        assert list(result.engine.run(b"anything at all")) == []

    def test_empty_ruleset(self):
        result = compile_resilient([])
        assert result.ok
        assert list(result.engine.run(b"x")) == []


class TestFallbackChain:
    def test_budget_escalation_recovers(self):
        # No escorts, so no triage: the chain actually burns the 50-state
        # budget instead of skipping it; the skip path has its own
        # coverage in tests/analyze/test_triage_routing.py.
        limits = CompileLimits(budget_schedule=(50, 50_000), escorts=frozenset())
        result = compile_resilient(EXPLOSIVE, limits=limits)
        assert result.ok
        assert result.engine_name == "mfa"
        attempts = result.report.attempts
        assert [a.ok for a in attempts] == [False, True]
        assert attempts[0].state_budget == 50
        assert "exceeded 50 states" in attempts[0].error
        assert result.report.budgets_consumed == [50]

    def test_chain_bottoms_out_at_nfa(self):
        # A budget no engine's DFA head can meet: every DFA-backed stage
        # fails and the NFA — which never explodes — ships.
        limits = CompileLimits(budget_schedule=(4,))
        result = compile_resilient(EXPLOSIVE, limits=limits)
        assert result.ok
        assert result.engine_name == "nfa"
        engines_tried = [a.engine for a in result.report.attempts]
        assert engines_tried == ["mfa", "hybridfa", "nfa"]
        assert [a.ok for a in result.report.attempts] == [False, False, True]

    def test_fallback_preserves_semantics(self):
        # The NFA fallback must find exactly what a healthy MFA finds.
        limits = CompileLimits(budget_schedule=(4,))
        degraded = compile_resilient(EXPLOSIVE, limits=limits)
        healthy = compile_mfa(EXPLOSIVE)
        data = b"..waex..yeaz..wbfx..yfbz.."
        assert sorted(degraded.engine.run(data)) == sorted(healthy.run(data))

    def test_time_budget_trip_recorded(self):
        limits = CompileLimits(budget_schedule=(10**9,), time_budget=0.0)
        result = compile_resilient(EXPLOSIVE, limits=limits)
        assert result.ok
        assert result.engine_name == "nfa"
        mfa_attempt = result.report.attempts[0]
        assert mfa_attempt.engine == "mfa"
        assert not mfa_attempt.ok
        assert "seconds" in mfa_attempt.error

    def test_fractional_time_budget_recorded(self, monkeypatch):
        # One simulated second per clock read: the walk's first deadline
        # check trips the half-second budget, which the attempt reports
        # as given, not truncated to 0.
        clock = SimpleNamespace(perf_counter=itertools.count(1.0).__next__)
        monkeypatch.setattr(bitset_module, "time", clock)
        limits = CompileLimits(budget_schedule=(10**9,), time_budget=0.5)
        result = compile_resilient(EXPLOSIVE, limits=limits)
        assert result.report.attempts[0].error == "exceeded 0.5 seconds"

    def test_custom_chain_respected(self):
        limits = CompileLimits(budget_schedule=(50_000,), fallback_chain=("dfa",))
        result = compile_resilient(["ab", "cd"], limits=limits)
        assert result.engine_name == "dfa"

    def test_exhausted_chain_reports_failure(self):
        limits = CompileLimits(budget_schedule=(4,), fallback_chain=("mfa",))
        result = compile_resilient(EXPLOSIVE, limits=limits)
        assert not result.ok
        assert result.engine_name is None
        assert not result.report.ok


class TestCompileReport:
    def test_describe_tells_the_whole_story(self):
        limits = CompileLimits(budget_schedule=(50, 50_000))
        result = compile_resilient(EXPLOSIVE + ["(((("], limits=limits)
        text = "\n".join(result.report.describe())
        assert "quarantined" in text
        assert "budget=50" in text
        assert "engine: mfa" in text

    def test_to_dict_round_trips_counts(self):
        result = compile_resilient(["ab", "(((("])
        data = result.report.to_dict()
        assert data["engine"] == result.engine_name
        assert len(data["rules"]) == 2
        assert data["rules"][1]["status"] == QUARANTINED
        assert all("seconds" in a or "engine" in a for a in data["attempts"])

    def test_total_seconds_accumulates(self):
        result = compile_resilient(["ab"])
        assert result.report.total_seconds >= 0.0
        assert len(result.report.attempts) == 1


class _Tripwire:
    """Engine wrapper that blows up on payloads containing a marker."""

    def __init__(self, inner, marker):
        self.inner = inner
        self.marker = marker

    def run(self, payload):
        if self.marker in payload:
            raise RuntimeError("tripwire payload")
        return self.inner.run(payload)


class _BatchTripwire(_Tripwire):
    """A tripwire with a batch entry point; records each batch's size."""

    def __init__(self, inner, marker):
        super().__init__(inner, marker)
        self.batches = []

    def run_batch(self, payloads):
        self.batches.append(len(payloads))
        return [self.run(payload) for payload in payloads]


class TestResilientScan:
    RULES = [".*alpha.*omega"]

    def flows(self):
        return [
            (key(0), b"alpha leads to omega"),
            (key(1), b"nothing to see here.."),
            (key(2), b"alpha but never the end"),
            (key(3), b"more alpha then omega"),
            (key(4), b"padding padding padding"),
            (key(5), b"alpha omega"),
        ]

    def packets(self):
        return [Packet(key=k, payload=data, seq=0) for k, data in self.flows()]

    def blob(self):
        buffer = BytesIO()
        write_pcap(buffer, self.packets())
        return buffer.getvalue()

    def test_clean_scan_equals_dispatch(self):
        mfa = compile_mfa(self.RULES)
        alerts, report = resilient_scan(mfa, self.blob())
        expected = list(dispatch_flows(mfa, self.packets()))
        assert sorted(alerts, key=repr) == sorted(expected, key=repr)
        assert not report.degraded
        assert report.n_packets == 6
        assert "clean scan" in "\n".join(report.describe())

    def test_capture_forms_equivalent(self, tmp_path):
        mfa = compile_mfa(self.RULES)
        blob = self.blob()
        path = tmp_path / "clean.pcap"
        path.write_bytes(blob)
        from_bytes, _ = resilient_scan(mfa, blob)
        from_stream, _ = resilient_scan(mfa, BytesIO(blob))
        from_path, _ = resilient_scan(mfa, path)
        from_packets, _ = resilient_scan(mfa, self.packets())
        assert from_bytes == from_stream == from_path == from_packets

    def test_corrupt_record_costs_one_flow(self):
        mfa = compile_mfa(self.RULES)
        clean_alerts, _ = resilient_scan(mfa, self.blob())
        # Record 3 is flow key(3)'s only packet: smash it.
        damaged = corrupt_record_length(self.blob(), index=3)
        alerts, report = resilient_scan(mfa, damaged)
        assert report.degraded
        assert report.pcap.corrupt_records >= 1
        survivors = [a for a in clean_alerts if a.key != key(3)]
        assert sorted(alerts, key=repr) == sorted(survivors, key=repr)

    def test_engine_failure_poisons_one_flow(self):
        engine = _Tripwire(compile_mfa(self.RULES), marker=b"never the end")
        alerts, report = resilient_scan(engine, self.blob())
        assert report.dispatch.flows_poisoned == 1
        (poisoned_key, reason), = report.dispatch.errors
        assert poisoned_key == key(2)
        assert "engine error" in reason
        clean_alerts, _ = resilient_scan(compile_mfa(self.RULES), self.blob())
        assert sorted(alerts, key=repr) == sorted(
            [a for a in clean_alerts if a.key != key(2)], key=repr
        )

    def test_failing_batch_is_rescanned_flow_by_flow(self):
        engine = _BatchTripwire(compile_mfa(self.RULES), marker=b"never the end")
        alerts, report = resilient_scan(engine, self.blob(), batch_size=4)
        # Flows 0-3 fail as one batch (flow 2 trips), are rescanned alone,
        # and flows 4-5 make the last, shorter batch.
        assert engine.batches == [4, 1, 1, 1, 1, 2]
        assert report.n_flows == 6
        assert report.dispatch.flows_poisoned == 1
        (poisoned_key, reason), = report.dispatch.errors
        assert poisoned_key == key(2)
        assert reason == "engine error: tripwire payload"
        clean_alerts, _ = resilient_scan(compile_mfa(self.RULES), self.blob())
        assert sorted(alerts, key=repr) == sorted(
            [a for a in clean_alerts if a.key != key(2)], key=repr
        )
        assert len(alerts) == 3

    def test_eviction_scans_rather_than_drops(self):
        mfa = compile_mfa(self.RULES)
        unlimited, _ = resilient_scan(mfa, self.blob())
        limited, report = resilient_scan(mfa, self.blob(), limits=ScanLimits(max_flows=2))
        assert report.assembler.flows_evicted >= 1
        # Evicted flows were scanned on the way out: same alerts overall.
        assert sorted(limited, key=repr) == sorted(unlimited, key=repr)

    def test_byte_cap_accounted(self):
        mfa = compile_mfa(self.RULES)
        _, report = resilient_scan(
            mfa, self.blob(), limits=ScanLimits(max_flow_bytes=8)
        )
        assert report.assembler.bytes_dropped > 0
        assert report.degraded


class TestEndToEndDegradation:
    """The issue's acceptance scenario, end to end."""

    GOOD_RULE = ".*alpha.*omega"

    def ruleset(self):
        # GOOD_RULE is rule 1, rule 2 is unparseable, the rest are the
        # explosion-prone set.
        return [self.GOOD_RULE, "(((("] + EXPLOSIVE

    def test_compile_survives_both_incidents(self):
        limits = CompileLimits(budget_schedule=(50, 50_000))
        result = compile_resilient(self.ruleset(), limits=limits)
        assert result.ok
        report = result.report
        # Incident 1: the unparseable rule, quarantined with its parse error.
        (bad,) = report.quarantined
        assert bad.match_id == 2 and "RegexSyntaxError" in bad.error
        # Incident 2: the explosion — either burned for real or predicted
        # and skipped by the triage — recorded before the escalated
        # budget shipped.
        assert any(
            not a.ok and ("exceeded" in a.error or "skipped" in a.error)
            for a in report.attempts
        )
        assert report.engine_name is not None
        # The surviving good rule still matches under its original id.
        events = result.engine.run(b".. alpha then omega ..")
        assert 1 in {event.match_id for event in events}

    def test_fault_injected_scan_preserves_unaffected_flows(self):
        limits = CompileLimits(budget_schedule=(50, 50_000))
        engine = compile_resilient(self.ruleset(), limits=limits).engine

        benign = [
            Packet(key=key(i), payload=payload, seq=0)
            for i, payload in enumerate(
                [b"alpha leads to omega", b"plain noise", b"alpha ... omega!"]
            )
        ]
        hostile = xflood_packets(key(9), segment_size=1460, repeats=200)
        packets = benign + hostile
        buffer = BytesIO()
        write_pcap(buffer, packets)
        blob = buffer.getvalue()

        clean_alerts, clean_report = resilient_scan(engine, blob)
        assert not clean_report.degraded

        # Corrupt the noise flow's record; hostile flood stays intact.
        damaged = corrupt_record_length(blob, index=1)
        alerts, report = resilient_scan(engine, damaged)
        assert report.degraded
        assert report.pcap.corrupt_records >= 1
        assert report.pcap.resync_bytes > 0
        # Scan ran to completion over the flood and every unaffected flow
        # matches identically.
        survivors = [a for a in clean_alerts if a.key != key(1)]
        assert sorted(alerts, key=repr) == sorted(survivors, key=repr)
        assert report.n_flows == clean_report.n_flows - 1


class TestCompilerConfiguration:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ResilientCompiler(shards=0), "shards must be >= 1, got 0"),
            (lambda: ResilientCompiler(jobs=-1), "jobs must be >= 1, got -1"),
            (lambda: compile_resilient(["abc", "x.*y"], jobs=-1), "jobs must be >= 1, got -1"),
            (lambda: compile_resilient(["abc", "x.*y"], shards=0), "shards must be >= 1, got 0"),
        ],
        ids=["compiler-shards", "compiler-jobs", "compile_resilient-jobs", "compile_resilient-shards"],
    )
    def test_bad_counts_raise_before_compiling(self, monkeypatch, build, message):
        import repro.robust.pipeline as pipeline

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled with a bad shard or job count")

        monkeypatch.setattr(pipeline, "compile_shards", no_compile)
        with pytest.raises(ValueError, match=message):
            build()

    def test_default_limits_used(self):
        compiler = ResilientCompiler()
        assert compiler.limits == CompileLimits()

    def test_splitter_options_forwarded(self):
        from repro.core.splitter import SplitterOptions

        compiler = ResilientCompiler(splitter_options=SplitterOptions(enable_dot_star=False))
        result = compiler.compile([".*aa.*bb"])
        assert result.ok

    def test_parser_options_forwarded(self):
        from repro.regex import ParserOptions

        compiler = ResilientCompiler(parser_options=ParserOptions(ignore_case=True))
        result = compiler.compile(["AB"])
        assert result.engine.run(b"ab")
