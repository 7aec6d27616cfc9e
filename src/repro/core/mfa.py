"""The Match Filtering Automaton (paper §III).

An MFA is the paper's 9-tuple ``(Q, Σ, δ, q0, D_i, D_q, w, D, f)``: a plain
DFA over the *decomposed* component patterns, whose raw match stream is
post-processed by the stateful :class:`~repro.core.filters.FilterEngine`.
The DFA half carries no filter knowledge; the composition lives here.

Per-flow parsing state is exactly a ``(q, m)`` pair — DFA state plus filter
memory — which is what makes the scheme practical for the many simultaneous
flows of a network security middlebox; :class:`FlowContext` packages it.

Decision sets are re-ordered at construction time by action priority
(clears before sets before tests) so that multi-match positions behave
deterministically and correctly; see ``FilterProgram.action_priority``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from ..automata.dfa import DFA, DEFAULT_STATE_BUDGET, build_dfa
from ..automata.nfa import MatchEvent
from ..regex.ast import Pattern
from .filters import NONE, FilterEngine, FilterProgram, FilterState
from .splitter import SplitResult, SplitStats, SplitterOptions, split_patterns

__all__ = ["MFA", "FlowContext", "build_mfa"]


class FlowContext:
    """The per-flow ``(q, m)`` pair the paper multiplexes flows with."""

    __slots__ = ("state", "memory", "offset")

    def __init__(self, mfa: "MFA"):
        self.state = mfa.dfa.start
        self.memory: FilterState = mfa.engine.new_state()
        # Absolute payload offset of the next byte; keeps the offset
        # registers meaningful across packet boundaries.
        self.offset = 0


class MFA:
    """A compiled match-filtering automaton.

    ``dfa`` matches the decomposed components; ``program``/``engine`` filter
    the raw component matches down to original-pattern matches.
    """

    def __init__(self, dfa: DFA, program: FilterProgram, split: SplitResult | None = None):
        self.dfa = dfa
        self.program = program
        # ``split`` carries provenance (components, stats); a deserialised
        # MFA runs fine without it.
        self.split = split if split is not None else SplitResult(
            components=[], program=program, component_ids={}, stats=SplitStats()
        )
        # Optional required-literal prefilter plan (a plain JSON-able dict,
        # see repro.fastpath.prefilter) — attached by build_mfa, carried
        # through serialization, consumed by the fastpath engine.
        self.prefilter: Optional[dict] = None
        # Optional default-transition forest (repro.automata.compress
        # CompressedDFA) — attached by build_mfa(compress=...) or by a
        # compressed-bundle load.  When present, serialization writes the
        # compressed artifact tier instead of the dense table.
        self.compressed: Optional[object] = None
        self.engine = FilterEngine(program)
        # Pre-compile every decision set into an op tuple, ordered by action
        # priority (clears < sets < tests).  Ops for plain bit-plane actions
        # are executed inline in the hot loop — a handful of integer
        # operations, the software equivalent of the paper's "few CPU
        # instructions" — while register-plane actions defer to the engine.
        self._ops: list[object] = [
            self._compile_ops(acc) for acc in dfa.accepts
        ]
        self._ordered_accepts_end: list[tuple[int, ...]] = [
            tuple(sorted(acc, key=lambda i: (program.action_priority(i), i)))
            for acc in dfa.accepts_end
        ]
        # Hot-loop accelerators: one (row, ops) pair per state so the
        # per-byte loop resolves the next state's row and decision ops with
        # a single list index, plus an engine-wide early-out flag for the
        # degenerate all-``None`` ops table (no state ever acts mid-stream).
        self._steps: list[tuple[object, object]] = list(zip(dfa.rows, self._ops))
        self._has_ops = any(op is not None for op in self._ops)

    def _compile_ops(self, decisions: tuple[int, ...]):
        """Decision set -> ordered ops (id, test, set_mask, clear_mask,
        report, needs_engine); a two-element [or_mask, and_mask] list for
        pure unconditional set/clear states; None when the set is empty."""
        if not decisions:
            return None
        program = self.program
        ordered = sorted(decisions, key=lambda i: (program.action_priority(i), i))
        ops = []
        for match_id in ordered:
            action = program.actions.get(match_id)
            if action is None:
                if match_id in program.final_ids:
                    ops.append((match_id, NONE, 0, 0, match_id, False))
                continue
            needs_engine = action.record != NONE or action.distance is not None
            set_mask = 0 if action.set == NONE else 1 << action.set
            clear_mask = 0 if action.clear == NONE else 1 << action.clear
            ops.append(
                (match_id, action.test, set_mask, clear_mask, action.report, needs_engine)
            )
        if not ops:
            return None
        # Fast path: a state whose actions are all unconditional sets/clears
        # (the clear-flood case) collapses to one AND/OR mask pair — this is
        # what "a few CPU instructions" looks like from Python.
        if all(
            op[1] == NONE and op[4] == NONE and not op[5] for op in ops
        ):
            or_mask = 0
            clear_mask_all = 0
            for op in ops:
                or_mask |= op[2]
                clear_mask_all |= op[3]
            return [or_mask, ~clear_mask_all]
        return tuple(ops)

    # -- introspection -------------------------------------------------------

    @property
    def n_states(self) -> int:
        """The "MFA Qs" count of Table V: states of the component DFA."""
        return self.dfa.n_states

    @property
    def width(self) -> int:
        """w — filter memory bits per flow."""
        return self.program.width

    def memory_bytes(self) -> int:
        """Modelled image size: the component DFA plus the filter table.

        The paper reports filters averaging below 0.2% of the MFA image;
        ``filter_bytes`` exposes the breakdown for that claim.
        """
        return self.dfa.memory_bytes() + self.program.memory_bytes()

    def filter_bytes(self) -> int:
        return self.program.memory_bytes()

    def stats(self) -> SplitStats:
        return self.split.stats

    # -- matching ------------------------------------------------------------

    def new_context(self) -> FlowContext:
        return FlowContext(self)

    def run(self, data: bytes) -> list[MatchEvent]:
        """Match a complete payload; returns confirmed original-pattern
        matches only (the raw component matches are filtered internally)."""
        context = self.new_context()
        matches = list(self.feed(context, data))
        matches.extend(self.finish(context))
        return matches

    def feed(self, context: FlowContext, data: bytes) -> Iterator[MatchEvent]:
        """Streaming interface: process one payload chunk of a flow.

        The DFA advances byte-by-byte; whenever the new state's decision set
        is non-empty the filter engine processes each raw match in priority
        order and confirmed matches are yielded with flow-absolute offsets.
        """
        state = context.state
        base = context.offset
        if not self._has_ops:
            # All-None ops table: no state ever acts mid-stream, so the walk
            # degenerates to the pure DFA scan (finish() still handles any
            # end-anchored decisions).
            context.state = self.dfa.scan(data, state)
            context.offset = base + len(data)
            return
        steps = self._steps
        engine_process = self.engine.process
        memory = context.memory
        row, ops = steps[state]
        for pos, byte in enumerate(data):
            state = row[byte]
            row, ops = steps[state]
            if ops is not None:
                if type(ops) is list:
                    memory.bits = memory.bits & ops[1] | ops[0]
                    continue
                absolute = base + pos
                for match_id, test, set_mask, clear_mask, report, needs_engine in ops:
                    if needs_engine:
                        confirmed = engine_process(memory, absolute, match_id)
                        if confirmed != NONE:
                            yield MatchEvent(absolute, confirmed)
                        continue
                    bits = memory.bits
                    if test >= 0 and not bits >> test & 1:
                        continue
                    if set_mask or clear_mask:
                        memory.bits = (bits & ~clear_mask) | set_mask
                    if report >= 0:
                        yield MatchEvent(absolute, report)
        context.state = state
        context.offset = base + len(data)

    def finish(self, context: FlowContext) -> Iterator[MatchEvent]:
        """Emit end-anchored matches once a flow is complete."""
        raw = self._ordered_accepts_end[context.state]
        if not raw or context.offset == 0:
            return
        final_pos = context.offset - 1
        for match_id in raw:
            confirmed = self.engine.process(context.memory, final_pos, match_id)
            if confirmed != NONE:
                yield MatchEvent(final_pos, confirmed)

    def first_match(self, data: bytes) -> MatchEvent | None:
        """Early-exit matching: stop at the first confirmed match.

        Inline prevention (IPS) drops a flow on its first alert, so the
        engine need not finish the payload; on benign traffic this is the
        same cost as :meth:`run`, on hostile traffic it exits early.
        """
        context = self.new_context()
        for event in self.feed(context, data):
            return event
        for event in self.finish(context):
            return event
        return None

    def matches(self, data: bytes) -> bool:
        """True when any original pattern matches anywhere in ``data``."""
        return self.first_match(data) is not None

    def raw_matches(self, data: bytes) -> list[MatchEvent]:
        """The unfiltered component match stream (diagnostics, Table IV)."""
        return self.dfa.run(data)

    def scan(self, data: bytes) -> int:
        """Benchmark loop without match collection; returns final state."""
        return self.dfa.scan(data)


def build_mfa(
    patterns: Sequence[Pattern],
    splitter_options: SplitterOptions | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
    minimize: bool = False,
    time_budget: float | None = None,
    phases: dict[str, float] | None = None,
    prefilter: bool = True,
    compress: "bool | int | None" = None,
) -> MFA:
    """Split a rule set and compile the component DFA (paper Figure 1).

    ``minimize`` runs Hopcroft minimization on the component DFA; the
    paper's reported MFA state counts are unminimized, so this defaults
    off (the ablation benchmark measures the residual savings).
    ``time_budget`` bounds the subset construction's wall time in seconds
    (see :func:`~repro.automata.dfa.build_dfa_from_nfa`).

    ``phases`` is an out-parameter: pass a dict and the wall time of each
    compile phase (``split``, ``determinize``, ``minimize``,
    ``filter-gen``, ``prefilter``) is *added* to it, so repeated/sharded
    builds accumulate into one breakdown.

    ``prefilter`` attaches a required-literal prefilter plan (pure-Python
    AST analysis, a few microseconds per rule) when the component set
    supports one; the plan rides the bundle and is purely a scan-time
    accelerator — disabling it never changes match semantics.

    ``compress`` attaches a default-transition forest
    (:func:`repro.automata.compress.compress_dfa`) so the bundle
    serialises in the compressed artifact tier: ``True`` uses the default
    chain-depth bound, an integer sets the bound, ``None``/``False``
    keep it dense.  Purely a storage tier — the in-memory
    engine keeps its dense table and match semantics are untouched.
    """
    import time as _time

    def _mark(phase: str, since: float) -> float:
        now = _time.perf_counter()
        if phases is not None:
            phases[phase] = phases.get(phase, 0.0) + (now - since)
        return now

    tick = _time.perf_counter()
    split = split_patterns(patterns, splitter_options)
    tick = _mark("split", tick)
    dfa = build_dfa(split.components, state_budget=state_budget, time_budget=time_budget)
    tick = _mark("determinize", tick)
    if minimize:
        from ..automata.minimize import minimize_dfa

        dfa = minimize_dfa(dfa)
        tick = _mark("minimize", tick)
    mfa = MFA(dfa, split.program, split)
    tick = _mark("filter-gen", tick)
    if prefilter:
        # Imported lazily: the plan builder lives with the engine that
        # consumes it, and core must not depend on fastpath at import time.
        from ..fastpath.prefilter import build_prefilter

        mfa.prefilter = build_prefilter(mfa)
        tick = _mark("prefilter", tick)
    from ..automata.compress import ARTIFACT_WINDOW, compress_dfa, resolve_compress_option

    depth = resolve_compress_option(compress)
    if depth:
        mfa.compressed = compress_dfa(dfa, window=ARTIFACT_WINDOW, max_depth=depth)
        _mark("compress", tick)
    return mfa
