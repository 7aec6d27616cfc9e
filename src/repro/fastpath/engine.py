"""The batch lockstep scan engine.

The per-flow parsing state of an MFA is a ``(q, m)`` pair, and the DFA half
``q`` advances independently of the filter memory ``m`` (§III-B's queue
observation: raw matches may be collected first and filtered later).  That
decoupling is what makes the data-parallel layout work:

1. *Lockstep phase* — N lanes step through their payload segments in
   lockstep: one vectorized table gather per byte position advances every
   lane at once, and the per-position state vector is recorded into a
   history matrix.
2. *Filter phase* — accepting positions are detected from the history with
   whole-matrix comparisons, and only those sparse positions run the scalar
   filter ops, threading each flow's filter memory in payload order —
   byte-identical to the scalar ``MFA.feed`` stream (property-tested).

Lanes are not just flows.  Each flow's payload is cut into fixed-size
segments and every segment gets its own lane; segments after the first
start from the *speculated* DFA start state and a scalar stitch pass
re-steps only the (typically tiny) diverged prefix afterwards.  IDS-style
``.*``-prefixed rule DFAs converge within a handful of bytes on benign
traffic, so speculation is almost always free — and when it is not, the
fixup is bounded by the segment length, never wrong.  This turns even a
single long flow into data-parallel work.

Several table-layout tricks keep the per-byte numpy overhead down:

* the transition matrix is stored byte-class compressed — one column per
  alphabet group (``DFA.group_of_byte``), with payload bytes translated
  to group ids once per batch;
* next-state entries are stored *premultiplied* by the column count, so
  the lockstep step is ``flat.take(states + column)`` — a flat ``take``
  into a preallocated history row instead of 2-D fancy indexing (roughly
  half the per-call cost);
* states are renumbered into three tiers — plain, mask-only ops,
  full decision ops — so accept detection over the whole history is one
  ``>= threshold`` comparison, and runs of *idempotent* mask-only ops
  (``bits & clear | set`` applied twice is the same as once) are collapsed
  to their first hit before the scalar replay loop ever sees them.
"""

from __future__ import annotations

from math import sqrt
from typing import Iterator, Sequence

import numpy as _np

from ..automata.nfa import MatchEvent
from ..core.filters import NONE
from ..core.mfa import MFA, FlowContext
from .prefilter import PrefilterRuntime, build_prefilter

__all__ = ["FastPathMFA", "build_fastpath"]

# Segment-length clamps for the auto sizing rule L ~ sqrt(batch_bytes / 8):
# short segments mean more lanes (cheap, vectorized) and fewer lockstep
# positions (expensive, one numpy call each), but every extra lane adds a
# little scalar stitch bookkeeping, so L grows with the batch.
_MIN_SEGMENT = 128
_MAX_SEGMENT = 8192

# Prefiltered batches fall back to the classic lockstep walk when the
# candidate windows cover more than this fraction of the payload (both
# paths are exact; past this density the windowed walk stops winning) or
# when the window history matrix would outgrow the cache-friendly range.
_DENSITY_FALLBACK_NUM = 3
_DENSITY_FALLBACK_DEN = 8
_HIST_CELL_CAP = 1 << 22

PREFILTER_MODES = ("auto", "off")


def _apply_ops(ops, memory, absolute: int, engine_process, append) -> None:
    """Run one state's decision ops against a flow's filter memory.

    This is the exact scalar block from ``MFA.feed`` (clear-flood mask
    pair, inline bit-plane actions, engine deferral for register-plane
    actions), factored out so the lockstep engine's sparse filter phase
    cannot drift from the reference semantics.
    """
    if type(ops) is list:
        memory.bits = memory.bits & ops[1] | ops[0]
        return
    for match_id, test, set_mask, clear_mask, report, needs_engine in ops:
        if needs_engine:
            confirmed = engine_process(memory, absolute, match_id)
            if confirmed != NONE:
                append(MatchEvent(absolute, confirmed))
            continue
        bits = memory.bits
        if test >= 0 and not bits >> test & 1:
            continue
        if set_mask or clear_mask:
            memory.bits = (bits & ~clear_mask) | set_mask
        if report >= 0:
            append(MatchEvent(absolute, report))


class FastPathMFA:
    """A batch scan engine over a compiled :class:`~repro.core.mfa.MFA`.

    Drop-in for the scalar streaming trio (``new_context``/``feed``/
    ``finish``) plus the batch entry points ``feed_batch`` and
    ``run_batch``.  Contexts are plain :class:`FlowContext` objects, so
    scalar and batch processing of the same flow can be freely mixed.

    ``segment_bytes`` pins the lane segment length (mostly for tests);
    by default it is sized per batch from the total payload.  Without
    numpy every batch call degrades to the scalar engine, semantics
    unchanged.

    ``prefilter`` selects the required-literal prefilter stage: ``"auto"``
    (the default) uses the compiled plan when one exists (building it
    from split provenance on the fly if the MFA carries none), ``"off"``
    always scans every byte.  The prefiltered path is byte-identical to
    the classic one — it only changes which bytes the automaton walks.
    """

    # How many flows callers should aim to hand feed_batch/run_batch at
    # once; advisory (any batch size works).
    batch_hint = 64

    def __init__(
        self,
        mfa: MFA,
        segment_bytes: int | None = None,
        prefilter: str = "auto",
    ):
        if segment_bytes is not None and segment_bytes < 1:
            raise ValueError("segment_bytes must be positive")
        self.mfa = mfa
        self.segment_bytes = segment_bytes
        if prefilter not in PREFILTER_MODES:
            raise ValueError(f"prefilter must be one of {PREFILTER_MODES}, got {prefilter!r}")
        self.prefilter_mode = prefilter
        self._prefilter_runtime: PrefilterRuntime | None = None
        self._vector_ready = False
        self._build_tables()
        if prefilter != "off" and self._vector_ready:
            plan = mfa.prefilter
            if plan is None:
                plan = build_prefilter(mfa)
            if plan is not None:
                self._prefilter_runtime = PrefilterRuntime(plan)

    @property
    def prefilter_active(self) -> bool:
        """True when batches actually route through the prefilter stage."""
        return self._prefilter_runtime is not None

    # -- build ---------------------------------------------------------------

    def _build_tables(self) -> None:
        dfa = self.mfa.dfa
        n = dfa.n_states
        if n == 0:
            return
        # Byte-class compression: keep one column per alphabet group and a
        # 256-entry byte -> group map applied to payloads once per batch.
        # The dense (n, 256) table is a temporary: only its group columns
        # are kept, and it is freed before the flat table is made.
        dense = _np.array(dfa.rows, dtype=_np.int32)
        if dfa.group_of_byte is not None and dfa.n_groups and dfa.n_groups < 256:
            groups = _np.frombuffer(dfa.group_of_byte.tobytes(), dtype=_np.int32)
            ncols = int(groups.max()) + 1
            _, representatives = _np.unique(groups, return_index=True)
            grouped = dense[:, representatives]
        else:
            groups = _np.arange(256, dtype=_np.int32)
            ncols = 256
            grouped = dense
        del dense
        # Three-tier renumbering: [no ops | mask-only ops | full ops].  With
        # every accepting state at the top of the id space, accept detection
        # over the whole history matrix is one comparison; the middle tier
        # marks states whose ops are an idempotent mask pair, so repeated
        # consecutive hits collapse to one application in the filter phase.
        ops_table = self.mfa._ops
        tier = _np.zeros(n, dtype=_np.int8)
        for q, ops in enumerate(ops_table):
            if ops is not None:
                tier[q] = 1 if type(ops) is list else 2
        order = _np.concatenate(
            [_np.nonzero(tier == 0)[0], _np.nonzero(tier == 1)[0], _np.nonzero(tier == 2)[0]]
        ).astype(_np.int64)
        perm = _np.empty(n, dtype=_np.int64)
        perm[order] = _np.arange(n, dtype=_np.int64)
        # Premultiplied layout: stored ids are renumbered-state * ncols, so
        # the lockstep step indexes the flat table with a single add.  Every
        # id fits ``dtype``, so the gather yields the flat table directly.
        dtype = _np.int16 if n * ncols <= 0x7FFF else _np.int32
        perm_p = perm * ncols  # original -> premultiplied
        ordered = grouped[order]
        del grouped
        flat = perm_p.astype(dtype)[ordered].ravel()
        del ordered
        self._flat = _np.ascontiguousarray(flat)
        self._byte_map = groups.astype(dtype)
        self._ncols = ncols
        self._dtype = dtype
        n_plain = int((tier == 0).sum())
        n_mask = int((tier == 1).sum())
        self._thr_any = n_plain * ncols  # premultiplied ids >= this accept
        self._thr_full = (n_plain + n_mask) * ncols  # >= this: non-idempotent ops
        self._perm_p = perm_p.tolist()
        self._inv = order.tolist()  # renumbered -> original
        self._ops_by_rid = [ops_table[q] for q in self._inv]
        self._start_p = int(perm[dfa.start]) * ncols
        # byte -> group id as a str.translate table: C-speed payload
        # translation instead of a per-byte numpy gather.
        self._translate = bytes(groups.astype(_np.uint8)) if ncols < 256 else None
        self._scratch_key: tuple[int, int] | None = None
        self._vector_ready = True

    def _scratch(self, segment: int, m: int):
        """Reusable per-shape work arrays (steady batches alloc nothing)."""
        if self._scratch_key != (segment, m):
            dtype = self._dtype
            self._scratch_key = (segment, m)
            self._cols = _np.empty((segment, m), dtype=dtype)
            self._hist = _np.empty((segment, m), dtype=dtype)
            self._mask = _np.empty((segment, m), dtype=bool)
            self._idx = _np.empty(m, dtype=dtype)
            self._state_buf = _np.empty(m, dtype=dtype)
        return self._cols, self._hist, self._mask, self._idx, self._state_buf

    # -- introspection -------------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.mfa.n_states

    def memory_bytes(self) -> int:
        """The scalar MFA image plus the flattened lockstep table."""
        extra = 0
        if self._vector_ready:
            extra = self._flat.nbytes + self._byte_map.nbytes
        return self.mfa.memory_bytes() + extra

    def filter_bytes(self) -> int:
        return self.mfa.filter_bytes()

    # -- scalar streaming trio (drop-in for dispatch/replay drivers) ---------

    def new_context(self) -> FlowContext:
        return self.mfa.new_context()

    def feed(self, context: FlowContext, data: bytes) -> Iterator[MatchEvent]:
        return self.mfa.feed(context, data)

    def finish(self, context: FlowContext) -> Iterator[MatchEvent]:
        return self.mfa.finish(context)

    # -- batch interface -----------------------------------------------------

    def run(self, data: bytes) -> list[MatchEvent]:
        """Match one complete payload (segmented internally for parallelism)."""
        return self.run_batch([data])[0]

    def run_batch(self, payloads: Sequence[bytes]) -> list[list[MatchEvent]]:
        """Match N complete payloads; returns one confirmed-event list each."""
        contexts = [self.new_context() for _ in payloads]
        results = self.feed_batch(contexts, payloads)
        for context, events in zip(contexts, results):
            events.extend(self.finish(context))
        return results

    def feed_batch(
        self, contexts: Sequence[FlowContext], payloads: Sequence[bytes]
    ) -> list[list[MatchEvent]]:
        """Advance N flows by one payload chunk each, in lockstep.

        Event streams and final ``(q, m)`` contexts are byte-identical to
        feeding each chunk through the scalar ``MFA.feed``.
        """
        if len(contexts) != len(payloads):
            raise ValueError("contexts and payloads must pair up")
        total = sum(len(p) for p in payloads)
        if not self._vector_ready or total == 0:
            return self._feed_scalar(contexts, payloads)
        if self._prefilter_runtime is not None:
            results = self._feed_prefiltered(contexts, payloads, total)
            if results is not None:
                return results
        return self._feed_lockstep(contexts, payloads, total)

    def _feed_lockstep(
        self, contexts: Sequence[FlowContext], payloads: Sequence[bytes], total: int
    ) -> list[list[MatchEvent]]:
        """The classic every-byte lockstep walk (also the density fallback)."""
        segment = self.segment_bytes
        if segment is None:
            segment = max(_MIN_SEGMENT, min(_MAX_SEGMENT, int(sqrt(total / 4))))

        # -- lane layout: each flow contributes ceil(len/L) padded segments.
        n_flows = len(payloads)
        lengths = _np.fromiter(
            (len(p) for p in payloads), dtype=_np.int64, count=n_flows
        )
        n_lanes_per = -(-lengths // segment)
        starts = _np.concatenate(([0], _np.cumsum(n_lanes_per)))  # flow -> lane 0
        m = int(starts[-1])
        pieces: list[bytes] = []
        for payload in payloads:
            if not payload:
                continue
            pieces.append(payload)
            pad = -len(payload) % segment
            if pad:
                pieces.append(b"\x00" * pad)
        buf = b"".join(pieces)
        lane_flow = _np.repeat(_np.arange(n_flows, dtype=_np.int64), n_lanes_per)
        lane_off = _np.arange(m, dtype=_np.int64) - starts[lane_flow]
        lane_off *= segment  # lane -> first byte's offset within its flow chunk
        lane_len_arr = _np.minimum(segment, lengths[lane_flow] - lane_off)

        # Payload bytes -> table columns (C-speed bytes.translate), laid out
        # transposed so each lockstep position reads one contiguous row.
        cols, hist, mask, idx, states = self._scratch(segment, m)
        if self._translate is not None:
            buf = buf.translate(self._translate)
        _np.copyto(cols, _np.frombuffer(buf, dtype=_np.uint8).reshape(m, segment).T)

        perm_p = self._perm_p
        states.fill(self._start_p)
        for f in range(n_flows):
            if n_lanes_per[f]:  # lane 0 starts from the flow's true state
                states[starts[f]] = perm_p[contexts[f].state]

        # -- lockstep phase: one flat gather per position across every lane.
        flat = self._flat
        for crow, hrow in zip(list(cols), list(hist)):
            _np.add(states, crow, out=idx)
            # Indices are valid by construction; 'clip' skips bounds checks.
            flat.take(idx, out=hrow, mode="clip")
            states = hrow

        ends = hist[lane_len_arr - 1, _np.arange(m)].tolist()

        # -- stitch phase: fix up speculative lane starts, flow by flow.
        rows = self.mfa.dfa.rows
        start_p = self._start_p
        ncols = self._ncols
        inv = self._inv
        lane_len = lane_len_arr.tolist()
        finals: list[int] = [0] * n_flows
        for f in range(n_flows):
            first, last = int(starts[f]), int(starts[f + 1])
            if first == last:
                continue
            state = contexts[f].state  # original ids
            payload = payloads[f]
            for lane in range(first, last):
                if lane > first and perm_p[state] != start_p:
                    # Speculation missed: re-step scalarly until the true
                    # trajectory meets the speculated one, patching history.
                    base = (lane - first) * segment
                    converged = False
                    for p in range(lane_len[lane]):
                        state = rows[state][payload[base + p]]
                        repositioned = perm_p[state]
                        if repositioned == hist[p, lane]:
                            converged = True
                            break
                        hist[p, lane] = repositioned
                    if not converged:
                        continue  # `state` already the lane's true end
                state = inv[ends[lane] // ncols]
            finals[f] = state

        # -- filter phase: sparse accepting positions through the scalar ops.
        results: list[list[MatchEvent]] = [[] for _ in payloads]
        if self._thr_any < self.n_states * ncols:  # some state has ops
            _np.greater_equal(hist, self._thr_any, out=mask)
            hot_pos, hot_lane = _np.nonzero(mask)
            if hot_pos.size:
                # Padded tail bytes can wander into accepting states; they
                # are not part of any flow, so drop them before collapsing.
                valid = hot_pos < lane_len_arr[hot_lane]
                if not valid.all():
                    hot_pos = hot_pos[valid]
                    hot_lane = hot_lane[valid]
            if hot_pos.size:
                # nonzero() walks position-major; reorder to per-flow payload
                # order (lane-major) so ops replay exactly as the scalar feed.
                order = _np.argsort(hot_lane * segment + hot_pos)
                hot_pos = hot_pos[order]
                hot_lane = hot_lane[order]
                sids = hist[hot_pos, hot_lane]
                flows = lane_flow[hot_lane]
                # Run-collapse: a mask-pair op is idempotent, so a hit whose
                # immediate predecessor (same flow, payload order) is the
                # same state is a no-op and never reaches the Python loop.
                keep = _np.empty(hot_lane.size, dtype=bool)
                keep[0] = True
                _np.not_equal(sids[1:], sids[:-1], out=keep[1:])
                keep[1:] |= sids[1:] >= self._thr_full
                keep[1:] |= flows[1:] != flows[:-1]
                offs = lane_off[hot_lane] + hot_pos
                flows_l = flows[keep].tolist()
                offs_l = offs[keep].tolist()
                sids_l = sids[keep].tolist()
                ops_by_rid = self._ops_by_rid
                engine_process = self.mfa.engine.process
                thr_full = self._thr_full
                current = -1
                memory = None
                bits = 0
                base = 0
                append = None
                for f, off, sid in zip(flows_l, offs_l, sids_l):
                    if f != current:
                        if memory is not None:
                            memory.bits = bits
                        current = f
                        memory = contexts[f].memory
                        bits = memory.bits
                        base = contexts[f].offset
                        append = results[f].append
                    ops = ops_by_rid[sid // ncols]
                    if sid < thr_full:  # mask pair, inlined for the hot case
                        bits = bits & ops[1] | ops[0]
                    else:
                        memory.bits = bits
                        _apply_ops(ops, memory, base + off, engine_process, append)
                        bits = memory.bits
                if memory is not None:
                    memory.bits = bits

        for f, context in enumerate(contexts):
            if n_lanes_per[f]:
                context.state = finals[f]
            context.offset += len(payloads[f])
        return results

    # -- prefiltered path ----------------------------------------------------

    def _feed_prefiltered(
        self, contexts: Sequence[FlowContext], payloads: Sequence[bytes], total: int
    ) -> list[list[MatchEvent]] | None:
        """Scan only candidate windows; ``None`` defers to the classic walk.

        Stage one scans the concatenated batch buffer for required-chain
        occurrences and clear-spec fires (all whole-buffer numpy table
        lookups).  Stage two turns occurrences into merged per-flow record
        intervals — always including byte 0 (exact entering-state walk), a
        small horizon prefix (chunk-boundary-straddling occurrences), the
        anchored head, and the last byte (exact final state).  Stage three
        walks one warm-started lane per interval in lockstep, lanes sorted
        by length so dead lanes compact off the active prefix, then
        replays the sparse accepting positions through the scalar filter
        ops with gap clear summaries applied between windows.
        """
        runtime = self._prefilter_runtime
        assert runtime is not None
        warm = runtime.warmup
        n_flows = len(payloads)
        joined = b"".join(payloads)
        buf = _np.frombuffer(joined, dtype=_np.uint8)
        lengths = _np.fromiter(
            (len(p) for p in payloads), dtype=_np.int64, count=n_flows
        )
        flow_starts = _np.concatenate(([0], _np.cumsum(lengths)))

        res = runtime.scan(buf)
        ends = res.ends

        # Chain occurrences -> per-flow candidate spans, flow-clipped.
        # Occurrences whose predicted accepts fall past the chunk end are
        # dropped: the next chunk's horizon prefix covers them.
        if ends.size:
            flow_of = _np.searchsorted(flow_starts, ends, side="right") - 1
            rel = ends - flow_starts[flow_of]
            span_lo = rel + res.tail_min
            span_hi = rel + res.tail_max
            flen = lengths[flow_of]
            keep = span_lo < flen
            if not keep.all():
                flow_of = flow_of[keep]
                span_lo = span_lo[keep]
                span_hi = span_hi[keep]
                flen = flen[keep]
            _np.minimum(span_hi, flen - 1, out=span_hi)
        else:
            flow_of = span_lo = span_hi = ends  # all empty int64

        # Merge head/chain/tail spans into record windows, fully vectorized:
        # spans sorted by (flow, lo), a running max of span ends, and a
        # window break wherever the next span starts more than warm+1 past
        # everything seen so far (any closer and the walk would re-cover
        # the gap anyway).  This guarantees every non-first window's warm
        # start stays inside the chunk and every gap between windows is
        # non-empty and past byte 0.  Every non-empty flow contributes a
        # head span (byte 0, the horizon prefix, and the anchored-head
        # range) and a tail span (the last byte: exact final state).
        horizon = runtime.horizon
        a_max = runtime.a_max
        perm_p = self._perm_p
        nz = _np.flatnonzero(lengths)
        head_hi = _np.full(nz.size, horizon - 1, dtype=_np.int64)
        if a_max:
            offs = _np.fromiter(
                (contexts[f].offset for f in nz.tolist()),
                dtype=_np.int64,
                count=nz.size,
            )
            _np.maximum(head_hi, a_max - 1 - offs, out=head_hi)
        _np.minimum(head_hi, lengths[nz] - 1, out=head_hi)
        tail_lo = lengths[nz] - 1
        all_flow = _np.concatenate((nz, flow_of, nz))
        all_lo = _np.concatenate(
            (_np.zeros(nz.size, dtype=_np.int64), span_lo, tail_lo)
        )
        all_hi = _np.concatenate((head_hi, span_hi, tail_lo))
        order = _np.lexsort((all_lo, all_flow))
        all_flow = all_flow.take(order)
        all_lo = all_lo.take(order)
        all_hi = all_hi.take(order)
        # Offsetting spans by flow * stride makes the running max per-flow
        # for free: a flow boundary always breaks (stride >> any length).
        stride = _np.int64(1) << 40
        key_lo = all_lo + all_flow * stride
        run_hi = _np.maximum.accumulate(all_hi + all_flow * stride)
        n_spans = all_lo.size
        new_win = _np.empty(n_spans, dtype=bool)
        new_win[0] = True
        _np.greater(key_lo[1:], run_hi[:-1] + (1 + warm), out=new_win[1:])
        sidx = _np.flatnonzero(new_win)
        n_win = sidx.size
        w_flow = all_flow.take(sidx)
        w_lo = all_lo.take(sidx)
        last_idx = _np.empty(n_win, dtype=_np.int64)
        last_idx[:-1] = sidx[1:] - 1
        last_idx[-1] = n_spans - 1
        w_hi = run_hi.take(last_idx) - w_flow * stride
        # First window of a flow records from byte 0 with the entering
        # state; later windows warm up from `warm` bytes earlier (the
        # break condition keeps w_lo - warm >= 2).
        w_walk = w_lo - warm
        _np.maximum(w_walk, 0, out=w_walk)
        wf_start = flow_starts.take(w_flow)
        win_start = wf_start + w_walk  # absolute walk start in the buffer
        win_len = w_hi - w_walk + 1
        win_rec = w_lo - w_walk  # record offset within the walk (0 or warm)
        recorded_cost = int(win_len.sum())
        max_len = int(win_len.max())
        if (
            recorded_cost * _DENSITY_FALLBACK_DEN > total * _DENSITY_FALLBACK_NUM
            or max_len * n_win > _HIST_CELL_CAP
        ):
            return None
        first_of = _np.empty(n_win, dtype=bool)
        first_of[0] = True
        _np.not_equal(w_flow[1:], w_flow[:-1], out=first_of[1:])
        entering = _np.fromiter(
            (perm_p[c.state] for c in contexts), dtype=_np.int64, count=n_flows
        )
        win_init = _np.where(first_of, entering.take(w_flow), self._start_p)
        flow_last = _np.full(n_flows, -1, dtype=_np.int64)
        flow_last[w_flow] = _np.arange(n_win, dtype=_np.int64)
        gap_win = _np.flatnonzero(~first_of)  # windows preceded by a gap

        # Lockstep walk over the windows, longest first: the active lane
        # set is always the prefix [:n_active], so lanes compact away as
        # they die and each step gathers only live lanes.
        dtype = self._dtype
        sort_order = _np.argsort(-win_len, kind="stable")
        wlen_s = win_len.take(sort_order)
        wstart_s = win_start.take(sort_order)
        rec_s = win_rec.take(sort_order)
        steps = _np.arange(max_len, dtype=_np.int64)
        n_active = _np.searchsorted(-wlen_s, -steps, side="left")
        # Window bytes as one (max_len, n_win) block gathered straight from
        # the raw buffer — windows cover a few percent of the batch, so
        # per-window gathers beat a whole-buffer translate pass.  Positions
        # past a window's end clip to the buffer tail; those cells are
        # masked out of accept detection below and never read otherwise.
        wbytes = buf.take(wstart_s[None, :] + steps[:, None], mode="clip")
        cols2d = self._byte_map.take(wbytes)
        hist = _np.empty((max_len, n_win), dtype=dtype)
        flat = self._flat
        na_list = n_active.tolist()
        prev = win_init.take(sort_order).astype(dtype)
        for t in range(max_len):
            na = na_list[t]
            row = hist[t]
            flat.take(prev[:na] + cols2d[t, :na], out=row[:na], mode="clip")
            prev = row

        final_by_win = _np.empty(n_win, dtype=_np.int64)
        final_by_win[sort_order] = hist[wlen_s - 1, _np.arange(n_win)]

        # Sparse accepting positions inside record ranges, in flow order
        # (buffer positions are already flow-major), with the idempotent
        # mask-pair run collapse restricted to within one window — a gap's
        # clear summary may separate two windows of the same flow.
        ncols = self._ncols
        results: list[list[MatchEvent]] = [[] for _ in payloads]
        wins_list: list[int] = []
        pos_list: list[int] = []
        sids_list: list[int] = []
        if self._thr_any < self.n_states * ncols:
            stepcol = steps[:, None]
            valid = (stepcol >= rec_s[None, :]) & (stepcol < wlen_s[None, :])
            valid &= hist >= self._thr_any
            hot_t, hot_i = _np.nonzero(valid)
            if hot_t.size:
                pos_abs = wstart_s[hot_i] + hot_t
                reorder = _np.argsort(pos_abs, kind="stable")
                hot_t = hot_t[reorder]
                hot_i = hot_i[reorder]
                pos_abs = pos_abs[reorder]
                sids = hist[hot_t, hot_i]
                wins = sort_order[hot_i]
                keep = _np.empty(sids.size, dtype=bool)
                keep[0] = True
                _np.not_equal(sids[1:], sids[:-1], out=keep[1:])
                keep[1:] |= sids[1:] >= self._thr_full
                keep[1:] |= wins[1:] != wins[:-1]
                wins_list = wins[keep].tolist()
                pos_list = pos_abs[keep].tolist()
                sids_list = sids[keep].tolist()

        # Gap clear summaries, batched and lazy: a clear can only change a
        # nonzero bit plane, and the plane is nonzero in some gap only if
        # a flow entered the chunk with bits set or some window produced
        # hits — so clean traffic never pays for them.  When triggered,
        # every gap is answered in one vectorized pass over the scan's
        # gram-bit row, and each group's fires become a cumulative count
        # by window: "did this group fire anywhere in windows (a, b]" is
        # then one subtraction, so the replay below never has to visit
        # hitless windows at all.
        cnt_groups: list[tuple[list[int], int]] | None = None
        if runtime.has_clears and gap_win.size:
            if wins_list or any(c.memory.bits for c in contexts):
                gs = wf_start.take(gap_win)
                gap_lo = gs + w_hi.take(gap_win - 1) + 1
                gap_hi = gs + w_lo.take(gap_win) - 1
                cnt_groups = []
                for fired, and_mask in res.gap_fired_groups(gap_lo, gap_hi):
                    marks = _np.zeros(n_win + 1, dtype=_np.int64)
                    marks[gap_win[fired] + 1] = 1
                    cnt_groups.append((_np.cumsum(marks).tolist(), and_mask))

        # Replay: per flow, hits in window order through the exact scalar
        # ops, threading the bit plane locally like the classic path.  Gap
        # clear summaries between consecutive hits commute (pure ANDs), so
        # the group counts fold any stretch of hitless windows into at
        # most one AND per group — and a zero bit plane skips even that.
        ops_by_rid = self._ops_by_rid
        engine_process = self.mfa.engine.process
        thr_full = self._thr_full
        inv = self._inv
        flow_last_l = flow_last.tolist()
        n_hits = len(wins_list)
        hit = 0
        win = 0
        for f in range(n_flows):
            length = int(lengths[f])
            if length == 0:
                continue
            context = contexts[f]
            memory = context.memory
            bits = memory.bits
            base = context.offset - int(flow_starts[f])
            append = results[f].append
            last_win = flow_last_l[f]
            prev = win  # flow's first window; never preceded by a gap
            while hit < n_hits and wins_list[hit] <= last_win:
                w = wins_list[hit]
                if bits and cnt_groups is not None and w > prev:
                    for cnt, and_mask in cnt_groups:
                        if cnt[w + 1] > cnt[prev + 1]:
                            bits &= and_mask
                prev = w
                sid = sids_list[hit]
                ops = ops_by_rid[sid // ncols]
                if sid < thr_full:  # mask pair, inlined for the hot case
                    bits = bits & ops[1] | ops[0]
                else:
                    memory.bits = bits
                    _apply_ops(ops, memory, base + pos_list[hit], engine_process, append)
                    bits = memory.bits
                hit += 1
            if bits and cnt_groups is not None and last_win > prev:
                for cnt, and_mask in cnt_groups:
                    if cnt[last_win + 1] > cnt[prev + 1]:
                        bits &= and_mask
            memory.bits = bits
            context.state = inv[int(final_by_win[last_win]) // ncols]
            context.offset += length
            win = last_win + 1
        return results

    # -- scalar fallback -----------------------------------------------------

    def _feed_scalar(
        self, contexts: Sequence[FlowContext], payloads: Sequence[bytes]
    ) -> list[list[MatchEvent]]:
        feed = self.mfa.feed
        return [list(feed(ctx, payload)) for ctx, payload in zip(contexts, payloads)]


def build_fastpath(
    mfa: MFA,
    segment_bytes: int | None = None,
    prefilter: str = "auto",
) -> FastPathMFA:
    """Wrap a compiled MFA in the lockstep batch engine."""
    return FastPathMFA(mfa, segment_bytes=segment_bytes, prefilter=prefilter)
