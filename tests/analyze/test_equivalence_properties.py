"""Property tests for the equivalence prover (hypothesis).

Both directions of the prover's verdict, over randomly generated rule
sets on the oracle suite's deliberately tiny alphabet (segments overlap
often, so every splitter safety condition and register window shape gets
exercised):

* soundness of *equivalent*: any decomposable rule set that compiles
  proves fully equivalent — the prover never invents a counterexample
  for a correct artifact;
* soundness of *inequivalent*: a random, structurally valid single-field
  bytecode mutation either leaves the semantics untouched (the prover
  says equivalent) or yields a counterexample the scalar MFA and the
  reference NFA genuinely disagree on when replayed through both.
"""

from dataclasses import replace

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.analyze import prove_mfa
from repro.automata.nfa import build_nfa
from repro.core.filters import NONE, FilterProgram
from repro.core.mfa import MFA, build_mfa
from repro.regex import parse_many

# Same strategy shape as tests/core/test_mfa_oracle.py: tiny alphabet,
# separators spanning dot-star, negated classes and counted gaps.
_words = st.text(alphabet="abc", min_size=1, max_size=4)
_separators = st.sampled_from(
    [".*", "[^x]*", "[^\\n]*", ".{1,4}", ".{0,2}", ".{3}", ".+", ".{2,}"]
)


@st.composite
def decomposable_rule(draw):
    n_segments = draw(st.integers(2, 4))
    parts = [draw(_words)]
    for _ in range(n_segments - 1):
        parts.append(draw(_separators))
        parts.append(draw(_words))
    prefix = draw(st.sampled_from(["", ".*", "^"]))
    return prefix + "".join(parts)


def _build(rules):
    """Parse and compile, skipping rule sets the splitter refuses."""
    patterns = parse_many(rules)
    try:
        return patterns, build_mfa(patterns)
    except Exception:
        assume(False)
        raise AssertionError("unreachable")


@given(st.lists(decomposable_rule(), min_size=1, max_size=3))
# A draw whose proof needs 274,083 product states: it closes only with the
# budget below, so every run (a fresh checkout included) checks it.
@example(["bca.*b.{1,4}c.*c", "c.{0,2}caaa.*ba.{1,4}bbaa", r"^ab[^\n]*c.{1,4}ccac.+c"])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_compiling_rule_sets_prove_equivalent(rules):
    patterns, mfa = _build(rules)
    # The claim is "decomposable sets prove *fully*", not "within the
    # default budget": hypothesis can draw counted-gap sets whose product
    # legitimately tops 50k states (the pinned example needs ~274k), so
    # give the walk headroom rather than flaking.
    result = prove_mfa(mfa, patterns, state_budget=400_000)
    assert result.equivalent and not result.bounded, (rules, result)
    assert result.counterexample is None


def _valid_mutations(prog):
    """Every structurally valid single-field rewrite of one action.

    Validity means the mutated program still passes ``FilterAction``'s
    own invariants and only references existing bits / final ids — the
    mutation space a corrupted-but-loadable artifact lives in.
    """
    options = []
    for mid in sorted(prog.actions):
        action = prog.actions[mid]
        if action.report != NONE:
            for target in sorted(prog.final_ids):
                if target != action.report:
                    options.append(("report", mid, target))
        if action.test != NONE or action.distance is not None:
            options.append(("drop-guard", mid, None))
        if action.set != NONE:
            for bit in range(prog.width):
                if bit != action.set and bit != action.clear:
                    options.append(("set", mid, bit))
    return options


@given(st.lists(decomposable_rule(), min_size=1, max_size=3), st.data())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_random_mutation_counterexamples_replay_confirm(rules, data):
    patterns, mfa = _build(rules)
    prog = mfa.program
    options = _valid_mutations(prog)
    assume(options)
    kind, mid, arg = data.draw(st.sampled_from(options), label="mutation")
    action = prog.actions[mid]
    if kind == "report":
        mutated = replace(action, report=arg)
    elif kind == "drop-guard":
        mutated = replace(action, test=NONE, distance=None)
    else:
        mutated = replace(action, set=arg)
    actions = dict(prog.actions)
    actions[mid] = mutated
    bad = MFA(
        mfa.dfa, FilterProgram(actions, prog.width, prog.n_registers, prog.final_ids)
    )

    result = prove_mfa(bad, patterns)
    assume(not result.bounded)
    if result.equivalent:
        # A semantically neutral mutation (dead bit, unreachable guard) —
        # the prover's claim is checked by the other property direction.
        return
    cx = result.counterexample
    assert cx is not None
    assert result.replay_confirmed is True, (rules, kind, result)
    reference = build_nfa(patterns)
    got = {(e.pos, e.match_id) for e in bad.run(cx)}
    want = {(e.pos, e.match_id) for e in reference.run(cx)}
    assert got != want, (rules, kind, cx)
