"""Cross-rule interaction analyzer: subsumption, shadowing, shard planning.

Every other analyzer audits one compiled artifact; this one audits the
*relationships between rules* before they reach the compiler.  Real
Snort/Suricata-scale rule sets accumulate exact duplicates, rules whose
language is strictly contained in another rule's (so they can never add
an alert the broader rule would not raise at the same byte), and pairs
of non-decomposable patterns whose co-location in one shard multiplies
the compiled state space.  Three products come out of one pass:

* **RS1xx findings** — RS101 duplicate / RS102 subsumed pairs proved by
  an exact product-automaton walk over the per-rule NFAs (the same
  int-mask machinery as :mod:`repro.fastcompile.bitset`), each carrying
  a replay-confirmed witness byte stream on which *both* rules fire at
  the same position through the real engine; RS103 for rules shadowed
  by the union of their literal-head cluster; RS110 when a pair or
  product budget bounded the walk; RS130 census.
* **an interaction graph** — edges between rules whose predicted
  combined-DFA cost (the EX1xx triage model: sizes times surviving
  separator factors, discounted to zero for disjoint alphabets) says
  co-locating them is expensive.
* **a shard plan** — :func:`plan_shards` spreads explosive rules across
  shards (the state product is multiplicative, so two explosive rules
  in one shard cost more than one each in two) while keeping
  literal-head clusters together for prefix sharing.  It plugs into
  ``compile_mfa(shard_plan="interaction")``; contiguous stays the
  cache-friendly default.

Containment here is **event containment**: rule A contains rule B iff at
every byte position where B reports a match on any input, A reports one
too.  Because unanchored patterns compile with an implicit ``.*`` prefix,
this is exactly language containment of the prefixed NFAs, checked
per-position during one BFS over the determinized product — which also
yields the *shortest* witness accepted by B, with lowest-byte tie-breaks,
so witnesses are deterministic across runs and hosts.

Pruning (``prune_patterns``) drops RS101/RS102 losers and returns the
kept rules (original match ids intact) plus an alias map from each
dropped id to its surviving subsumer, so a match stream from the pruned
compile can be checked event-for-event against the unpruned one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..automata.dfa import DfaExplosionError
from ..automata.nfa import NFA, build_nfa
from ..core.splitter import SplitterOptions
from ..fastcompile.bitset import move_masks
from ..regex.analysis import alphabet, last_class, min_length, required_chains
from ..regex.ast import Pattern
from .explosion import _PRODUCT_CAP, PatternCensus, _census_one
from .report import ERROR, INFO, WARNING, AnalysisReport

__all__ = [
    "Containment",
    "InteractionEdge",
    "RulesetResult",
    "ShardPlan",
    "SubsumptionWitness",
    "analyze_ruleset",
    "pattern_contains",
    "plan_shards",
    "prune_patterns",
]

COMPONENT = "ruleset"

# Product-walk budget per rule pair.  Per-rule NFAs are small (one rule
# each), so real pairs determinize in well under a thousand product
# states; the budget exists for pathological counted forms.
DEFAULT_PAIR_BUDGET = 20_000

# How many full product walks one analysis may spend.  The cheap
# necessary-condition screens (min length, last byte class, anchor
# shape) reject the vast majority of the O(n^2) pairs first; this caps
# the survivors on adversarial sets, surfacing as RS110.
DEFAULT_MAX_PAIRS = 2_000

# Largest cluster the RS103 union-shadowing check will build a union NFA
# for; beyond this the check is skipped (census still reports the
# cluster).
_MAX_UNION_CLUSTER = 8

# Witness replay compiles the two-rule (or cluster) MFA under this state
# budget before falling back to the reference NFA.
_REPLAY_STATE_BUDGET = 20_000

# Literal-head clustering key length: rules whose required literal heads
# share this many leading bytes land in one cluster.
_HEAD_KEY_BYTES = 3


# -- per-rule automaton ----------------------------------------------------


@dataclass(slots=True)
class _RuleAutomaton:
    """One rule's NFA packed into int masks for subset walks."""

    group_of: Sequence[int]  # byte -> alphabet group
    moves: list[list[int]]  # state -> group -> successor mask
    initial: int  # initial state mask
    mid: int  # states that report a (mid-stream) match
    end: int  # states that report only at end of input


def _prepare(patterns: Sequence[Pattern]) -> _RuleAutomaton:
    """Pack the NFA of ``patterns`` (ids ignored) into subset-walk masks."""
    nfa: NFA = build_nfa([p.with_id(1) for p in patterns])
    group_of, representatives = nfa.alphabet_groups()
    moves = move_masks(nfa, representatives)
    initial = 0
    for q in nfa.initial:
        initial |= 1 << q
    mid = 0
    end = 0
    for q in range(nfa.n_states):
        if nfa.accepts[q]:
            mid |= 1 << q
        if nfa.accepts_end[q]:
            end |= 1 << q
    return _RuleAutomaton(group_of, moves, initial, mid, end)


def _successor(auto: _RuleAutomaton, mask: int, group: int) -> int:
    out = 0
    moves = auto.moves
    rest = mask
    while rest:
        low = rest & -rest
        out |= moves[low.bit_length() - 1][group]
        rest ^= low
    return out


# -- the containment oracle ------------------------------------------------


@dataclass(frozen=True, slots=True)
class Containment:
    """Result of one event-containment walk (does A fire wherever B does?)."""

    contains: bool
    bounded: bool  # budget hit before the walk closed; ``contains`` unproven
    states: int  # product states explored
    witness: Optional[bytes]  # shortest input on which B fires
    refutation: Optional[bytes]  # shortest input where B fires and A does not


def _contains(
    auto_a: _RuleAutomaton,
    auto_b: _RuleAutomaton,
    budget: int,
) -> Containment:
    """BFS the determinized product of two packed NFAs.

    Checks, at every reachable non-initial product state: if B reports a
    mid-stream match, A must too (same position); if B reports at end of
    input, A must report mid or at end.  The BFS explores symbols in
    byte order (joint alphabet groups are discovered lowest-byte-first),
    so the recorded witness — the shortest input B accepts — and any
    refutation are deterministic.
    """
    # Joint alphabet: one representative byte per (group_a, group_b) pair,
    # discovered in byte order so representatives are the lowest bytes.
    seen_pairs: dict[tuple[int, int], int] = {}
    symbols: list[int] = []
    for byte in range(256):
        key = (auto_a.group_of[byte], auto_b.group_of[byte])
        if key not in seen_pairs:
            seen_pairs[key] = len(symbols)
            symbols.append(byte)

    start = (auto_a.initial, auto_b.initial)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {start: None}
    order: list[tuple[int, int]] = [start]
    witness: Optional[bytes] = None

    def path_to(node: tuple[int, int]) -> bytes:
        out: list[int] = []
        while True:
            link = parent[node]
            if link is None:
                break
            node, byte = link[0], link[1]
            out.append(byte)
        return bytes(reversed(out))

    head = 0
    while head < len(order):
        a, b = order[head]
        head += 1
        if head > 1:  # non-initial states are reached by >= 1 byte
            b_mid = b & auto_b.mid
            b_end = b & auto_b.end
            a_mid = a & auto_a.mid
            a_any = a & (auto_a.mid | auto_a.end)
            if b_mid and not a_mid:
                payload = path_to((a, b))
                if a & auto_a.end:
                    # A still end-accepts here, so the bare path is no
                    # counterexample if the input stops at this position;
                    # one more byte pushes the position mid-stream (B's
                    # mid event only depends on the prefix).
                    payload += bytes([symbols[0]])
                return Containment(False, False, len(order), witness, payload)
            if b_end and not a_any:
                return Containment(False, False, len(order), witness, path_to((a, b)))
            if witness is None and (b_mid or b_end):
                witness = path_to((a, b))
        for byte in symbols:
            nxt = (
                _successor(auto_a, a, auto_a.group_of[byte]),
                _successor(auto_b, b, auto_b.group_of[byte]),
            )
            if nxt not in parent:
                if len(parent) >= budget:
                    return Containment(True, True, len(order), witness, None)
                parent[nxt] = ((a, b), byte)
                order.append(nxt)
    return Containment(True, False, len(order), witness, None)


def pattern_contains(
    a: Pattern,
    b: Pattern,
    *,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> Containment:
    """Does rule ``a`` fire at every position rule ``b`` fires, on any input?

    Exact (up to ``budget`` product states): both rules are compiled to
    NFAs exactly as the real pipeline compiles them (unanchored rules
    get the implicit ``.*`` prefix), and the determinized product is
    walked checking per-position event containment.
    """
    return _contains(_prepare([a]), _prepare([b]), budget)


def _shortest_match(auto: _RuleAutomaton, budget: int) -> Optional[bytes]:
    """Shortest non-empty input the packed NFA reports a match on."""
    trivially = _contains(auto, auto, budget)
    return trivially.witness


# -- pairwise screens ------------------------------------------------------


@dataclass(slots=True)
class _RuleFacts:
    """Cheap per-rule facts backing the necessary-condition screens."""

    index: int
    pattern: Pattern
    min_len: int
    last_bits: int  # CharClass bitmap of possible final match bytes
    alpha_bits: int  # CharClass bitmap of the rule alphabet
    head: bytes  # required literal head ("" when none)
    census: PatternCensus


def _head_literal(pattern: Pattern) -> bytes:
    """The rule's leading required literal bytes (empty when none).

    Uses the prefilter's required-chain cover: the first chain's
    single-byte classes give the literal head that drives prefix
    sharing in a combined DFA.
    """
    chains = required_chains(pattern.root)
    if not chains:
        return b""
    head: list[int] = []
    for cls in chains[0].classes:
        bits = cls.bits
        if bits == 0 or bits & (bits - 1):  # empty or more than one byte
            break
        head.append(bits.bit_length() - 1)
    return bytes(head)


def _facts(
    index: int,
    pattern: Pattern,
    splitter_options: Optional[SplitterOptions],
) -> _RuleFacts:
    return _RuleFacts(
        index=index,
        pattern=pattern,
        min_len=min_length(pattern.root),
        last_bits=last_class(pattern.root).bits,
        alpha_bits=alphabet(pattern.root).bits,
        head=_head_literal(pattern),
        census=_census_one(pattern, splitter_options),
    )


def _may_contain(a: _RuleFacts, b: _RuleFacts) -> bool:
    """Necessary conditions for ``a`` to event-contain ``b`` (sound screen).

    * B's earliest possible fire is at position ``min_len(B) - 1``; A can
      only fire there if some A-word of length <= min_len(B) exists.
    * Every fire of B ends on a byte in B's last class; unless A can
      match the empty word, A's fire at the same position ends on a byte
      in A's last class — so B's last class must be a subset.
    * An end-anchored A reports only at the final byte; it cannot cover a
      B that reports mid-stream.
    """
    if a.min_len > b.min_len:
        return False
    if a.min_len > 0 and b.last_bits & ~a.last_bits:
        return False
    if a.pattern.end_anchored and not b.pattern.end_anchored:
        return False
    return True


# -- witnesses -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SubsumptionWitness:
    """A replayed byte stream proving keeper and dropped both fire."""

    keeper_id: int
    dropped_id: int
    kind: str  # "duplicate" | "subsumed" | "shadowed"
    payload: bytes
    engine: str  # "mfa" | "nfa" — which real engine replayed it
    confirmed: bool

    def to_dict(self) -> dict[str, object]:
        return {
            "keeper_id": self.keeper_id,
            "dropped_id": self.dropped_id,
            "kind": self.kind,
            "payload_hex": self.payload.hex(),
            "engine": self.engine,
            "confirmed": self.confirmed,
        }


def _render_payload(payload: bytes, limit: int = 24) -> str:
    shown = payload[:limit].hex()
    suffix = "…" if len(payload) > limit else ""
    return f"{len(payload)}B:{shown}{suffix}"


def _replay_pair(
    keeper: Pattern,
    dropped: Pattern,
    payload: bytes,
) -> tuple[bool, str]:
    """Replay ``payload`` through a real engine compiled from both rules.

    Confirms the containment proof end to end: the dropped rule fires at
    least once, and at every position it fires the keeper fires too.
    Tries the real MFA pipeline first, falling back to the reference NFA
    when the pair alone explodes the subset construction.
    """
    pair = [keeper.with_id(1), dropped.with_id(2)]
    from ..core.mfa import build_mfa  # lazy: core imports are heavy

    engine_name = "mfa"
    try:
        events = build_mfa(pair, state_budget=_REPLAY_STATE_BUDGET).run(payload)
    except DfaExplosionError:
        engine_name = "nfa"
        events = build_nfa(pair).run(payload)
    dropped_at = {e.pos for e in events if e.match_id == 2}
    keeper_at = {e.pos for e in events if e.match_id == 1}
    confirmed = bool(dropped_at) and dropped_at <= keeper_at
    return confirmed, engine_name


def _replay_cluster(
    member: Pattern,
    others: Sequence[Pattern],
    payload: bytes,
) -> tuple[bool, str]:
    """Replay a shadowing witness: the member and >= 1 cluster peer fire."""
    rules = [member.with_id(1)] + [p.with_id(i + 2) for i, p in enumerate(others)]
    events = build_nfa(rules).run(payload)
    member_at = {e.pos for e in events if e.match_id == 1}
    union_at = {e.pos for e in events if e.match_id != 1}
    confirmed = bool(member_at) and member_at <= union_at
    return confirmed, "nfa"


# -- interaction graph and shard planning ----------------------------------


@dataclass(frozen=True, slots=True)
class InteractionEdge:
    """Predicted cost of co-locating two rules in one shard."""

    a: int  # match id
    b: int  # match id
    cost: int  # predicted combined-DFA state product (capped)
    reason: str  # "explosive-overlap" | "prefix-cluster"

    def to_dict(self) -> dict[str, object]:
        return {"a": self.a, "b": self.b, "cost": self.cost, "reason": self.reason}


@dataclass(slots=True)
class ShardPlan:
    """An assignment of rule indices (into the input order) to shards."""

    strategy: str
    assignments: list[list[int]]
    predicted_peaks: list[int]

    @property
    def peak(self) -> int:
        return max(self.predicted_peaks, default=0)

    def to_dict(self) -> dict[str, object]:
        return {
            "strategy": self.strategy,
            "assignments": self.assignments,
            "predicted_peaks": self.predicted_peaks,
            "peak": self.peak,
        }


def _predicted_shard_cost(sizes: Sequence[int], factors: Sequence[int]) -> int:
    """EX1xx-style predicted states of one shard: base size times the
    product of the members' surviving separator factors."""
    base = 1 + sum(sizes)
    product = 1
    for factor in factors:
        product *= max(1, factor)
        if product >= _PRODUCT_CAP:
            return _PRODUCT_CAP
    return min(_PRODUCT_CAP, base * product)


def _cluster_indices(facts: Sequence[_RuleFacts]) -> list[list[int]]:
    """Group rule indices by shared literal-head prefix (>= 1 byte head)."""
    by_key: dict[bytes, list[int]] = {}
    for f in facts:
        if f.head:
            by_key.setdefault(f.head[:_HEAD_KEY_BYTES], []).append(f.index)
    return [members for _, members in sorted(by_key.items()) if len(members) > 1]


def _interaction_edges(facts: Sequence[_RuleFacts], clusters: Sequence[Sequence[int]]) -> list[InteractionEdge]:
    edges: list[InteractionEdge] = []
    explosive = [f for f in facts if f.census.residual_factor > 1]
    for i, fa in enumerate(explosive):
        for fb in explosive[i + 1 :]:
            if not fa.alpha_bits & fb.alpha_bits:
                continue  # disjoint alphabets cannot co-activate
            cost = min(
                _PRODUCT_CAP,
                (fa.census.size + fb.census.size)
                * fa.census.residual_factor
                * fb.census.residual_factor,
            )
            edges.append(
                InteractionEdge(
                    fa.pattern.match_id, fb.pattern.match_id, cost, "explosive-overlap"
                )
            )
    for members in clusters:
        for i, ia in enumerate(members):
            for ib in members[i + 1 :]:
                edges.append(
                    InteractionEdge(
                        facts[ia].pattern.match_id,
                        facts[ib].pattern.match_id,
                        facts[ia].census.size + facts[ib].census.size,
                        "prefix-cluster",
                    )
                )
    edges.sort(key=lambda e: (-e.cost, e.a, e.b))
    return edges


def plan_shards(
    patterns: Sequence[Pattern],
    shards: int,
    *,
    splitter_options: Optional[SplitterOptions] = None,
) -> ShardPlan:
    """Interaction-aware shard assignment for ``compile_mfa(shard_plan="interaction")``.

    Contiguous partitioning is cache-friendly but oblivious: rule sets
    grow by appending, so correlated explosive rules land in the same
    chunk and the subset construction pays their *product*.  This
    planner spreads rules with surviving separator factors across
    shards (greedy: each unit goes to the shard whose predicted cost
    grows least) while keeping literal-head clusters together so their
    shared prefixes still share states.  Deterministic: ties break to
    the lowest shard index, units order by weight, size, then position.

    The returned assignments are a permutation partition of
    ``range(len(patterns))`` — match ids are assigned globally before
    partitioning, so any plan preserves the merged match stream.
    """
    n = len(patterns)
    if n == 0:
        return ShardPlan("interaction", [], [])
    shards = max(1, min(shards, n))
    facts = [_facts(i, p, splitter_options) for i, p in enumerate(patterns)]
    clusters = _cluster_indices(facts)

    # Units: explosive rules ride alone (isolating them is the point);
    # remaining cluster members stay together; the rest are singletons.
    in_cluster: set[int] = set()
    units: list[list[int]] = []
    for members in clusters:
        calm = [i for i in members if facts[i].census.residual_factor <= 1]
        if len(calm) > 1:
            units.append(calm)
            in_cluster.update(calm)
    for f in facts:
        if f.index not in in_cluster:
            units.append([f.index])

    def unit_key(unit: list[int]) -> tuple[int, int, int]:
        weight = 1
        for i in unit:
            weight *= max(1, facts[i].census.residual_factor)
        size = sum(facts[i].census.size for i in unit)
        return (-weight, -size, min(unit))

    units.sort(key=unit_key)

    shard_sizes: list[list[int]] = [[] for _ in range(shards)]
    shard_factors: list[list[int]] = [[] for _ in range(shards)]
    assignments: list[list[int]] = [[] for _ in range(shards)]
    for unit in units:
        sizes = [facts[i].census.size for i in unit]
        factors = [facts[i].census.residual_factor for i in unit]
        best = 0
        best_cost = -1
        for s in range(shards):
            cost = _predicted_shard_cost(shard_sizes[s] + sizes, shard_factors[s] + factors)
            if best_cost < 0 or cost < best_cost or (
                cost == best_cost and len(assignments[s]) < len(assignments[best])
            ):
                best = s
                best_cost = cost
        assignments[best].extend(unit)
        shard_sizes[best].extend(sizes)
        shard_factors[best].extend(factors)

    for chunk in assignments:
        chunk.sort()
    populated = [(chunk, _predicted_shard_cost(
        [facts[i].census.size for i in chunk],
        [facts[i].census.residual_factor for i in chunk],
    )) for chunk in assignments if chunk]
    return ShardPlan(
        "interaction",
        [chunk for chunk, _ in populated],
        [peak for _, peak in populated],
    )


def contiguous_plan(
    patterns: Sequence[Pattern],
    shards: int,
    *,
    splitter_options: Optional[SplitterOptions] = None,
) -> ShardPlan:
    """The default contiguous partition, scored with the same cost model."""
    n = len(patterns)
    if n == 0:
        return ShardPlan("contiguous", [], [])
    shards = max(1, min(shards, n))
    facts = [_facts(i, p, splitter_options) for i, p in enumerate(patterns)]
    base = n // shards
    extra = n % shards
    assignments = []
    start = 0
    for s in range(shards):
        size = base + (1 if s < extra else 0)
        assignments.append(list(range(start, start + size)))
        start += size
    peaks = [
        _predicted_shard_cost(
            [facts[i].census.size for i in chunk],
            [facts[i].census.residual_factor for i in chunk],
        )
        for chunk in assignments
    ]
    return ShardPlan("contiguous", assignments, peaks)


# -- the analysis ----------------------------------------------------------


@dataclass(slots=True)
class RulesetResult:
    """Everything one cross-rule analysis pass proved."""

    patterns: tuple[Pattern, ...]
    report: AnalysisReport
    duplicates: list[tuple[int, int]] = field(default_factory=list)  # (keeper, dropped) ids
    subsumed: list[tuple[int, int]] = field(default_factory=list)  # (keeper, dropped) ids
    shadowed: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    witnesses: list[SubsumptionWitness] = field(default_factory=list)
    clusters: list[list[int]] = field(default_factory=list)  # rule indices
    edges: list[InteractionEdge] = field(default_factory=list)
    pairs_walked: int = 0
    pairs_screened: int = 0
    pairs_skipped: int = 0

    @property
    def alias(self) -> dict[int, int]:
        """Dropped match id -> surviving keeper id, chains resolved."""
        raw: dict[int, int] = {}
        for keeper, dropped in self.duplicates + self.subsumed:
            raw.setdefault(dropped, keeper)
        resolved: dict[int, int] = {}
        for dropped in raw:
            keeper = raw[dropped]
            hops = 0
            while keeper in raw and hops <= len(raw):
                keeper = raw[keeper]
                hops += 1
            resolved[dropped] = keeper
        return resolved

    def to_dict(self) -> dict[str, object]:
        return {
            "n_rules": len(self.patterns),
            "report": self.report.to_dict(),
            "duplicates": [list(pair) for pair in self.duplicates],
            "subsumed": [list(pair) for pair in self.subsumed],
            "shadowed": [[rule, list(others)] for rule, others in self.shadowed],
            "witnesses": [w.to_dict() for w in self.witnesses],
            "clusters": self.clusters,
            "edges": [e.to_dict() for e in self.edges],
            "alias": {str(k): v for k, v in sorted(self.alias.items())},
            "pairs": {
                "walked": self.pairs_walked,
                "screened_out": self.pairs_screened,
                "skipped": self.pairs_skipped,
            },
        }


def _label(pattern: Pattern) -> str:
    return f"rule {pattern.match_id}"


def analyze_ruleset(
    patterns: Sequence[Pattern],
    *,
    splitter_options: Optional[SplitterOptions] = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    replay: bool = True,
    report: Optional[AnalysisReport] = None,
) -> RulesetResult:
    """Run the full cross-rule pass: subsumption, shadowing, interaction.

    Never raises on analysis trouble — walk budgets surface as RS110
    findings.  ``replay=False`` skips engine replay of witnesses (the
    walk proof stands alone); the CLI and lint sweeps keep it on so
    every RS101/RS102 on tracked sets is replay-confirmed.
    """
    if report is None:
        report = AnalysisReport()
    result = RulesetResult(tuple(patterns), report)
    n = len(patterns)
    if n == 0:
        report.add("RS130", INFO, COMPONENT, "empty rule set: nothing to analyze")
        return result

    facts = [_facts(i, p, splitter_options) for i, p in enumerate(patterns)]
    autos: list[Optional[_RuleAutomaton]] = [None] * n

    def auto_of(i: int) -> _RuleAutomaton:
        cached = autos[i]
        if cached is None:
            cached = _prepare([patterns[i]])
            autos[i] = cached
        return cached

    # Pass 1: exact structural duplicates (cheap, no walks needed).
    by_shape: dict[tuple[object, bool, bool], int] = {}
    duplicate_of: dict[int, int] = {}  # index -> keeper index
    for i, p in enumerate(patterns):
        shape = (p.root, p.anchored, p.end_anchored)
        keeper = by_shape.setdefault(shape, i)
        if keeper != i:
            duplicate_of[i] = keeper

    # Pass 2: pairwise containment walks behind the screens.
    contained_by: dict[int, int] = {}  # subsumed index -> keeper index
    walks = 0
    budget_hit = False

    def walk(ka: int, kb: int) -> Optional[Containment]:
        """One budgeted product walk, or None once the pair budget is gone."""
        nonlocal walks, budget_hit
        if walks >= max_pairs:
            result.pairs_skipped += 1
            budget_hit = True
            return None
        walks += 1
        verdict = _contains(auto_of(ka), auto_of(kb), pair_budget)
        if verdict.bounded:
            budget_hit = True
        return verdict

    for i in range(n):
        if i in duplicate_of or i in contained_by:
            continue
        for j in range(i + 1, n):
            if j in duplicate_of or j in contained_by:
                continue
            fwd_ok = _may_contain(facts[i], facts[j])
            rev_ok = _may_contain(facts[j], facts[i])
            if not fwd_ok and not rev_ok:
                result.pairs_screened += 1
                continue
            fwd = walk(i, j) if fwd_ok else None
            if fwd is not None and fwd.contains and not fwd.bounded:
                rev = walk(j, i) if rev_ok else None
                if rev is not None and rev.contains and not rev.bounded:
                    duplicate_of[j] = i  # semantic duplicate, lower id keeps
                else:
                    contained_by[j] = i
                continue
            if rev_ok:
                rev = walk(j, i)
                if rev is not None and rev.contains and not rev.bounded:
                    contained_by[i] = j
                    break  # i is gone; stop scanning its row
    result.pairs_walked = walks

    # Pass 3: clusters, union shadowing, interaction graph.
    clusters = _cluster_indices(facts)
    result.clusters = clusters
    redundant = set(duplicate_of) | set(contained_by)
    shadowed: dict[int, tuple[int, ...]] = {}
    for members in clusters:
        if len(members) < 3 or len(members) > _MAX_UNION_CLUSTER:
            continue
        for idx in members:
            if idx in redundant or idx in shadowed:
                continue
            others = [m for m in members if m != idx and m not in redundant]
            if len(others) < 2:
                continue
            union = _prepare([patterns[m] for m in others])
            verdict = _contains(union, auto_of(idx), pair_budget)
            if verdict.bounded:
                budget_hit = True
            elif verdict.contains:
                shadowed[idx] = tuple(others)
    result.edges = _interaction_edges(facts, clusters)

    # Findings + witnesses.
    for dropped_idx in sorted(duplicate_of):
        keeper_idx = duplicate_of[dropped_idx]
        keeper, dropped = patterns[keeper_idx], patterns[dropped_idx]
        payload = _shortest_match(auto_of(dropped_idx), pair_budget)
        if _emit_pair(
            result,
            "RS101",
            "duplicate",
            keeper,
            dropped,
            payload,
            replay,
            f"duplicate of {_label(keeper)} ({keeper.source!r}): "
            f"identical match events on every input",
        ):
            result.duplicates.append((keeper.match_id, dropped.match_id))
    for dropped_idx in sorted(contained_by):
        keeper_idx = contained_by[dropped_idx]
        keeper, dropped = patterns[keeper_idx], patterns[dropped_idx]
        payload = _shortest_match(auto_of(dropped_idx), pair_budget)
        if _emit_pair(
            result,
            "RS102",
            "subsumed",
            keeper,
            dropped,
            payload,
            replay,
            f"subsumed by {_label(keeper)} ({keeper.source!r}): wherever this "
            f"rule fires, {_label(keeper)} fires at the same position",
        ):
            result.subsumed.append((keeper.match_id, dropped.match_id))
    for idx in sorted(shadowed):
        others = shadowed[idx]
        member = patterns[idx]
        payload = _shortest_match(auto_of(idx), pair_budget)
        other_ids = tuple(patterns[m].match_id for m in others)
        confirmed, engine = (False, "none")
        if payload is not None and replay:
            confirmed, engine = _replay_cluster(
                member, [patterns[m] for m in others], payload
            )
            result.witnesses.append(
                SubsumptionWitness(
                    other_ids[0], member.match_id, "shadowed", payload, engine, confirmed
                )
            )
        report.add(
            "RS103",
            WARNING,
            COMPONENT,
            f"shadowed by the union of its literal-head cluster "
            f"(rules {', '.join(str(i) for i in other_ids)}): every match "
            f"position is already reported by a cluster peer"
            + (f"; witness {_render_payload(payload)}" if payload else ""),
            _label(member),
        )
        result.shadowed.append((member.match_id, other_ids))

    if budget_hit or result.pairs_skipped:
        report.add(
            "RS110",
            WARNING,
            COMPONENT,
            f"analysis bounded: {walks} pair walk(s) run, "
            f"{result.pairs_skipped} pair(s) skipped at the "
            f"{max_pairs}-pair budget; unchecked pairs may hide "
            f"duplicates or subsumption",
        )
    n_explosive = sum(1 for f in facts if f.census.residual_factor > 1)
    report.add(
        "RS130",
        INFO,
        COMPONENT,
        f"{n} rule(s): {len(result.duplicates)} duplicate, "
        f"{len(result.subsumed)} subsumed, {len(result.shadowed)} shadowed, "
        f"{len(clusters)} literal-head cluster(s), {n_explosive} rule(s) "
        f"with surviving separator factors, {len(result.edges)} interaction "
        f"edge(s); {walks} pair walk(s), {result.pairs_screened} pair(s) "
        f"screened out",
    )
    return result


def _emit_pair(
    result: RulesetResult,
    code: str,
    kind: str,
    keeper: Pattern,
    dropped: Pattern,
    payload: Optional[bytes],
    replay: bool,
    message: str,
) -> bool:
    """Emit one RS101/RS102 finding; False when replay refuted the proof."""
    suffix = ""
    if payload is not None:
        if replay:
            confirmed, engine = _replay_pair(keeper, dropped, payload)
            result.witnesses.append(
                SubsumptionWitness(
                    keeper.match_id, dropped.match_id, kind, payload, engine, confirmed
                )
            )
            if not confirmed:
                result.report.add(
                    "RS100",
                    ERROR,
                    COMPONENT,
                    f"witness replay through the {engine} engine failed to "
                    f"confirm the containment proof against {_label(keeper)} "
                    f"on {_render_payload(payload)} — analyzer/engine drift",
                    _label(dropped),
                )
                return False
            suffix = f"; replay-confirmed witness {_render_payload(payload)} ({engine})"
        else:
            suffix = f"; witness {_render_payload(payload)}"
    result.report.add(code, WARNING, COMPONENT, message + suffix, _label(dropped))
    return True


# -- pruning ---------------------------------------------------------------


def prune_patterns(
    patterns: Sequence[Pattern],
    result: RulesetResult,
) -> tuple[list[Pattern], dict[int, int]]:
    """Drop RS101/RS102 losers; keep original match ids on survivors.

    Returns the kept rules and the alias map (dropped id -> surviving
    keeper id).  Because containment was proved per-position, the
    unpruned stream maps onto the pruned one exactly: kept-id events are
    identical, and every dropped-id event at position ``p`` implies a
    kept ``(p, alias[id])`` event.
    """
    alias = result.alias
    kept = [p for p in patterns if p.match_id not in alias]
    return kept, alias


def map_stream(
    events: Sequence[object],
    alias: dict[int, int],
) -> set[tuple[int, int]]:
    """Project an unpruned match stream into pruned-id space.

    Each event must expose ``pos`` and ``match_id`` (``MatchEvent``
    does).  Dropped ids map to their keeper; duplicates collapse.
    """
    out: set[tuple[int, int]] = set()
    for event in events:
        pos = int(getattr(event, "pos"))
        match_id = int(getattr(event, "match_id"))
        out.add((pos, alias.get(match_id, match_id)))
    return out
