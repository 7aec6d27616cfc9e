"""Static verifier & lint suite for MFA artifacts, bytecode, and rule sets.

Seven analyzers, one report type, zero traffic:

* :mod:`~repro.analyze.bytecode` — proves invariants of the
  ``(test, set, clear, report)`` filter programs: references, liveness,
  guard-chain connectivity;
* :mod:`~repro.analyze.automaton` — transition-table completeness,
  reachability, match-id referential integrity, serialize fixpoints for
  DFA / MFA / ShardedMFA;
* :mod:`~repro.analyze.safety` — re-derives the splitter's decomposition
  safety conditions independently and flags any split it cannot prove;
* :mod:`~repro.analyze.explosion` — predicts state-explosion risk from a
  static census, the signal :class:`~repro.robust.pipeline.ResilientCompiler`
  uses to skip hopeless compile attempts;
* :mod:`~repro.analyze.equivalence` — *proves* the paper's correctness
  theorem per artifact: product-automaton bisimulation of the compiled
  MFA against a reference automaton built from the un-decomposed pattern
  ASTs, with shortest-counterexample extraction on inequivalence;
* :mod:`~repro.analyze.adversary` — worst-case cost audit: synthesizes
  replay-confirmed witness traces for every data-dependent slow path an
  artifact carries (prefilter evasion, filter bit-churn) with statically
  predicted slowdown bounds;
* :mod:`~repro.analyze.ruleset` — cross-rule interaction analysis:
  exact duplicate/subsumption/shadowing proofs via product-automaton
  walks with replay-confirmed witnesses, a predicted-cost interaction
  graph, and the interaction-aware shard planner behind
  ``compile_mfa(shard_plan="interaction")``.

:mod:`~repro.analyze.escorts` is the one table through which compiles
run four of them as *escorts* (``audit``, ``prove``, ``adversary``,
``ruleset``): advisory findings filed beside the engine, a crash
recorded as a finding.

:mod:`~repro.analyze.bundle` applies the first two tolerantly to
serialized bundles, so a corrupt artifact yields findings instead of one
load exception.  The runtime counterpart — diffing match streams against
an oracle — lives in :mod:`repro.core.verify`; this package is the
compile-time half of the same correctness argument.
"""

from .adversary import (
    REQUIRED_WITNESS_KINDS,
    AdversaryResult,
    ReplayOutcome,
    WitnessTrace,
    analyze_adversary,
    analyze_engine_adversary,
    replay_witness,
)
from .automaton import analyze_dfa, analyze_engine, analyze_mfa
from .bundle import analyze_bundle
from .bytecode import analyze_program, dead_bits, strip_dead_bits
from .equivalence import (
    DEFAULT_PRODUCT_BUDGET,
    EquivalenceResult,
    analyze_engine_equivalence,
    analyze_equivalence,
    prove_mfa,
    prove_patterns,
)
from .escorts import ESCORTS, run_escort
from .explosion import (
    RISK_HIGH,
    RISK_LOW,
    RISK_MEDIUM,
    PatternCensus,
    TriageResult,
    triage_patterns,
)
from .report import ERROR, INFO, SEVERITIES, WARNING, AnalysisReport, Finding
from .ruleset import (
    Containment,
    InteractionEdge,
    RulesetResult,
    ShardPlan,
    SubsumptionWitness,
    analyze_ruleset,
    pattern_contains,
    plan_shards,
    prune_patterns,
)
from .safety import audit_split

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITIES",
    "Finding",
    "AnalysisReport",
    "analyze_program",
    "dead_bits",
    "strip_dead_bits",
    "analyze_dfa",
    "analyze_mfa",
    "analyze_engine",
    "analyze_bundle",
    "audit_split",
    "DEFAULT_PRODUCT_BUDGET",
    "EquivalenceResult",
    "prove_mfa",
    "prove_patterns",
    "analyze_equivalence",
    "analyze_engine_equivalence",
    "triage_patterns",
    "TriageResult",
    "PatternCensus",
    "RISK_LOW",
    "RISK_MEDIUM",
    "RISK_HIGH",
    "REQUIRED_WITNESS_KINDS",
    "AdversaryResult",
    "ReplayOutcome",
    "WitnessTrace",
    "analyze_adversary",
    "analyze_engine_adversary",
    "replay_witness",
    "Containment",
    "InteractionEdge",
    "RulesetResult",
    "ShardPlan",
    "SubsumptionWitness",
    "analyze_ruleset",
    "pattern_contains",
    "plan_shards",
    "prune_patterns",
    "ESCORTS",
    "run_escort",
]
