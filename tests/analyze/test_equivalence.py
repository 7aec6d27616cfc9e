"""The equivalence prover: full proofs, bounded mode, counterexamples.

The prover is the static half of the paper's correctness theorem — these
tests check both directions: every shipped artifact *proves* equivalent
(not merely samples equivalent), and every seeded semantic defect yields
a shortest distinguishing input that the real engines genuinely disagree
on when replayed.
"""

from dataclasses import replace

import pytest

from repro.analyze import (
    DEFAULT_PRODUCT_BUDGET,
    AnalysisReport,
    analyze_engine_equivalence,
    analyze_equivalence,
    prove_mfa,
    prove_patterns,
)
from repro.automata.nfa import build_nfa
from repro.bench.harness import patterns_for
from repro.core import ProofError, SplitterOptions, compile_mfa
from repro.core.filters import NONE, FilterProgram
from repro.core.mfa import MFA, build_mfa
from repro.regex import parse_many

RESCUE = SplitterOptions(offset_overlap_rescue=True)


def mutate_report(mfa: MFA) -> MFA:
    """Retarget the first reporting action to a different final id."""
    prog = mfa.program
    actions = dict(prog.actions)
    for mid in sorted(actions):
        action = actions[mid]
        if action.report != NONE:
            other = next(i for i in sorted(prog.final_ids) if i != action.report)
            actions[mid] = replace(action, report=other)
            break
    else:
        raise AssertionError("no reporting action to mutate")
    return MFA(
        mfa.dfa, FilterProgram(actions, prog.width, prog.n_registers, prog.final_ids)
    )


class TestFullProofs:
    def test_c8_whole_set_proves_equivalent(self):
        patterns = patterns_for("C8")
        result = prove_mfa(build_mfa(patterns), patterns)
        assert result.equivalent and not result.bounded
        assert result.counterexample is None
        assert result.states > 0 and result.verified_depth > 0

    def test_every_tracked_set_proves_per_pattern(self):
        # The acceptance bar of the prover issue: every pattern of every
        # tracked set gets a full (non-bounded) proof at the default
        # budget — including B217p, whose *combined* un-decomposed
        # automaton is exactly the explosion the paper is about.
        for set_name in ("C8", "C7p", "C10", "S24", "S31p", "S34", "B217p"):
            report = prove_patterns(patterns_for(set_name))
            codes = {f.code for f in report}
            assert codes == {"EQ130"}, (
                f"{set_name}: expected only proved-equivalent findings, "
                f"got {[f.describe() for f in report if f.code != 'EQ130']}"
            )

    def test_register_rescue_patterns_prove_equivalent(self):
        # Offset-register artifacts walk the register-quotient path: the
        # product stays finite because only the exact low window and the
        # oldest above-window bit are observable.
        for source in (".*abc.*bcd", ".*b.*abc"):
            patterns = parse_many([source])
            mfa = build_mfa(patterns, RESCUE)
            assert mfa.program.n_registers >= 1
            result = prove_mfa(mfa, patterns)
            assert result.equivalent and not result.bounded, (source, result)

    def test_quotient_folds_unobservable_register_state(self):
        # Hypothesis-found blowups, pinned: a bounded-only register's
        # above-window bits and sticky bit are unobservable and must be
        # dropped, and an open-tested register's oldest bit folds into
        # sticky once it reaches every open lo.  Without those folds both
        # sets exhaust a 50k budget; with them the product is tiny.
        for rules in (["a.{1,4}aaa"], ["cc.*a.*a.{2,}a", "a.*a.{3}cbbb.*a"]):
            patterns = parse_many(rules)
            result = prove_mfa(build_mfa(patterns), patterns)
            assert result.equivalent and not result.bounded, (rules, result)
            assert result.states < 10_000

    def test_counted_gap_patterns_prove_equivalent(self):
        for source in (".*abc.{2,5}def", ".*foo.{3,}bar"):
            patterns = parse_many([source])
            mfa = build_mfa(patterns)
            assert mfa.program.n_registers >= 1
            result = prove_mfa(mfa, patterns)
            assert result.equivalent and not result.bounded, (source, result)


class TestCounterexamples:
    def test_divergence_yields_shortest_replay_confirmed_input(self):
        patterns = patterns_for("C8")
        bad = mutate_report(build_mfa(patterns))
        result = prove_mfa(bad, patterns)
        assert not result.equivalent and not result.bounded
        assert result.kind == "mid-stream"
        assert result.replay_confirmed is True
        data = result.counterexample
        assert data is not None and len(data) >= 1
        # Replay through the real engines: the streams must disagree.
        reference = build_nfa(patterns)
        got = {(e.pos, e.match_id) for e in bad.run(data)}
        want = {(e.pos, e.match_id) for e in reference.run(data)}
        assert got != want
        # Shortest: every proper prefix must still agree.
        for cut in range(len(data)):
            prefix = data[:cut]
            got_p = {(e.pos, e.match_id) for e in bad.run(prefix)}
            want_p = {(e.pos, e.match_id) for e in reference.run(prefix)}
            assert got_p == want_p, f"prefix {prefix!r} already diverges"

    def test_divergence_emits_eq101_with_input_and_id_sets(self):
        patterns = patterns_for("C8")
        report = analyze_equivalence(mutate_report(build_mfa(patterns)), patterns)
        assert report.has_errors
        (finding,) = report.errors
        assert finding.code == "EQ101"
        assert "shortest input" in finding.message
        assert "replay-confirmed" in finding.message

    def test_proved_set_emits_eq130_census(self):
        patterns = patterns_for("C8")
        report = analyze_equivalence(build_mfa(patterns), patterns)
        assert not report.has_errors
        (finding,) = report.findings
        assert finding.code == "EQ130"
        assert "proved equivalent" in finding.message


class TestBoundedMode:
    def test_budget_exhaustion_is_reported_never_silent(self):
        patterns = patterns_for("C8")
        result = prove_mfa(build_mfa(patterns), patterns, state_budget=50)
        assert result.bounded and not result.equivalent
        assert result.states == 50
        assert result.counterexample is None
        assert 0 < result.verified_depth

        report = AnalysisReport()
        analyze_equivalence(
            build_mfa(patterns), patterns, report, state_budget=50
        )
        assert not report.has_errors
        (finding,) = report.warnings
        assert finding.code == "EQ110"
        assert "EQ-BOUNDED" in finding.message

    def test_bounded_depth_is_honest(self):
        # Everything at or below the verified depth really was checked:
        # a mutant whose divergence needs a longer input than the
        # verified depth must NOT be reported equivalent, only bounded.
        patterns = patterns_for("C8")
        bad = mutate_report(build_mfa(patterns))
        full = prove_mfa(bad, patterns)
        assert full.counterexample is not None
        tiny = prove_mfa(bad, patterns, state_budget=10)
        if tiny.counterexample is None:
            assert tiny.bounded
            assert tiny.verified_depth < len(full.counterexample)


class TestDrivers:
    def test_parallel_proofs_match_serial(self):
        patterns = patterns_for("S24")
        serial = prove_patterns(patterns, jobs=1)
        parallel = prove_patterns(patterns, jobs=4)
        assert serial.to_json() == parallel.to_json()

    def test_sharded_engine_proves_per_shard(self):
        patterns = patterns_for("S24")
        engine = compile_mfa(patterns, shards=3, jobs=1)
        report = analyze_engine_equivalence(engine, patterns)
        assert not report.has_errors
        locations = {f.location for f in report}
        assert any(loc.startswith("shard ") for loc in locations)

    def test_shard_attribution_mismatch_is_an_error(self):
        patterns = patterns_for("S24")
        engine = compile_mfa(patterns, shards=2, jobs=1)
        # Hand the prover the wrong pattern list: ids cannot be matched
        # to the shard programs, which must surface, not pass silently.
        report = analyze_engine_equivalence(engine, patterns[:3])
        assert report.has_errors
        assert any(f.code == "EQ100" for f in report.errors)

    def test_non_mfa_engine_is_out_of_scope_info(self):
        patterns = parse_many(["abc"])
        reference = build_nfa(patterns)
        report = analyze_engine_equivalence(reference, patterns)
        assert not report.has_errors
        (finding,) = report.findings
        assert finding.code == "EQ120"


class TestCompileWiring:
    def test_compile_mfa_prove_true_passes_on_clean_set(self):
        engine = compile_mfa(patterns_for("C8"), prove=True)
        assert engine.run(b"MAIL FROM:RCPT TO:")

    def test_compile_mfa_prove_true_raises_on_divergence(self, monkeypatch):
        import repro.analyze as analyze_mod

        def fake_prove(engine, patterns, report=None, **kwargs):
            failing = AnalysisReport()
            failing.add("EQ101", "error", "equivalence", "seeded divergence")
            return failing

        monkeypatch.setattr(analyze_mod, "analyze_engine_equivalence", fake_prove)
        with pytest.raises(ProofError) as excinfo:
            compile_mfa(patterns_for("C8"), prove=True)
        assert "EQ101" in str(excinfo.value)
        assert excinfo.value.report.has_errors


class TestProveCli:
    def test_prove_set_exits_zero(self, capsys):
        from repro.bench.cli import main

        assert main(["prove", "C8"]) == 0
        out = capsys.readouterr().out
        assert "proved" in out

    def test_prove_bundle_requires_patterns(self, tmp_path, capsys):
        from repro.bench.cli import main
        from repro.core import dumps_mfa

        bundle = tmp_path / "c8.mfab"
        bundle.write_bytes(dumps_mfa(compile_mfa(patterns_for("C8"))))
        assert main(["prove", str(bundle)]) == 1
        assert main(["prove", str(bundle), "--patterns", "C8"]) == 0
        out = capsys.readouterr().out
        assert "proved" in out

    def test_prove_json_is_machine_readable(self, capsys):
        import json

        from repro.bench.cli import main

        assert main(["prove", "C8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["C8"]["counts"]["error"] == 0
