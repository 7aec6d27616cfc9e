"""Flow and packet model with TCP-style reassembly.

The paper's traces are raw ``.pcap`` files "with packet-level details and
not pre-assembled flows", so the harness must do what a middlebox does:
group packets into flows by 5-tuple, order TCP segments by sequence
number, and feed each flow's payload stream to the matching engine while
keeping one ``(q, m)`` context per flow.  This module is that data path.

Resource discipline: an unbounded assembler is a memory DoS vector (a
hostile trace can open millions of flows or stuff one flow forever), so
:class:`FlowAssembler` optionally takes :class:`FlowLimits` — a cap on
concurrent flows (LRU eviction), and per-flow byte/segment caps — with
every drop accounted in :class:`AssemblerStats`.  Likewise
:func:`dispatch_flows` can isolate per-flow failures instead of letting
one poisoned flow abort a multiplexed scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

from ..automata.nfa import MatchEvent

__all__ = [
    "FiveTuple",
    "Packet",
    "Flow",
    "FlowLimits",
    "AssemblerStats",
    "DispatchStats",
    "FlowAssembler",
    "FlowMatch",
    "dispatch_flows",
]

PROTO_TCP = 6
PROTO_UDP = 17

_SEQ_MOD = 1 << 32
_SEQ_HALF = 1 << 31


class FiveTuple(NamedTuple):
    """Flow key: protocol plus both endpoints.

    A tuple, so the several dict operations each packet costs hash and
    compare it in C; it sorts field by field and compares equal to the
    plain tuple of its fields.
    """

    proto: int
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int


@dataclass(frozen=True, slots=True)
class Packet:
    """One captured packet's payload with enough headers to key a flow."""

    key: FiveTuple
    payload: bytes
    seq: int = 0
    timestamp: float = 0.0


@dataclass(slots=True)
class Flow:
    """A reassembled unidirectional flow."""

    key: FiveTuple
    payload: bytes

    def __len__(self) -> int:
        return len(self.payload)


@dataclass(frozen=True, slots=True)
class FlowLimits:
    """Resource caps for :class:`FlowAssembler` (``None`` = unbounded).

    ``max_flows`` bounds concurrent flows (least-recently-updated flows
    are evicted first); ``max_flow_bytes``/``max_flow_segments`` bound
    what a single flow may buffer.  A cap must be at least 1.
    """

    max_flows: int | None = None
    max_flow_bytes: int | None = None
    max_flow_segments: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_flows", "max_flow_bytes", "max_flow_segments"):
            cap = getattr(self, name)
            if cap is not None and cap < 1:
                raise ValueError(f"{name} must be at least 1, not {cap!r}")


@dataclass(slots=True)
class AssemblerStats:
    """Counters for everything :class:`FlowAssembler` refused to buffer."""

    flows_evicted: int = 0
    bytes_evicted: int = 0
    segments_dropped: int = 0
    bytes_dropped: int = 0

    def any_dropped(self) -> bool:
        return bool(self.flows_evicted or self.segments_dropped or self.bytes_dropped)


@dataclass(slots=True)
class DispatchStats:
    """Per-flow isolation counters for :func:`dispatch_flows`."""

    flows_poisoned: int = 0
    packets_skipped: int = 0
    errors: list[tuple[FiveTuple, str]] = field(default_factory=list)


class FlowAssembler:
    """Groups packets by 5-tuple and reassembles TCP payload in seq order.

    Out-of-order segments are buffered; duplicate and overlapping bytes are
    dropped in favour of the first copy seen (the common IDS policy).  UDP
    and unknown protocols are concatenated in arrival order.

    Most TCP flows arrive in order: each stored segment starts where the
    one before it ended, within 2^31 bytes of the first (the RFC 1982
    half-window).  Such a flow is finalized with one join in arrival
    order; only a flow that saw a segment elsewhere is re-keyed and
    sorted by :meth:`_reassemble_tcp`.

    With ``limits`` set the assembler is safe against hostile traffic:
    opening a flow past ``max_flows`` evicts the least-recently-updated
    flow (handed to ``on_evict`` when given, so a caller can scan-and-
    release rather than lose it), and per-flow caps drop or truncate
    excess segments.  All refusals are counted in :attr:`stats`.
    """

    def __init__(
        self,
        limits: FlowLimits | None = None,
        on_evict: Callable[[Flow], None] | None = None,
    ) -> None:
        self._tcp: dict[FiveTuple, dict[int, bytes]] = {}
        self._other: dict[FiveTuple, list[bytes]] = {}
        # Insertion-ordered key sets: _order preserves first-seen order for
        # flows(); _lru is re-inserted on every add so its first key is
        # always the least-recently-updated flow.
        self._order: dict[FiveTuple, None] = {}
        self._lru: dict[FiveTuple, None] = {}
        self._bytes: dict[FiveTuple, int] = {}
        self.limits = limits or FlowLimits()
        self.on_evict = on_evict
        self.stats = AssemblerStats()

    def __len__(self) -> int:
        return len(self._order)

    def add(self, packet: Packet) -> None:
        if not packet.payload:
            return
        key = packet.key
        limits = self.limits
        new_flow = key not in self._order
        if new_flow and limits.max_flows is not None:
            while len(self._order) >= limits.max_flows:
                self._evict_lru()
        payload = packet.payload
        buffered = self._bytes.get(key, 0)
        if limits.max_flow_bytes is not None:
            room = limits.max_flow_bytes - buffered
            if room <= 0:
                self.stats.segments_dropped += 1
                self.stats.bytes_dropped += len(payload)
                self._touch(key, new_flow)
                return
            if len(payload) > room:
                self.stats.bytes_dropped += len(payload) - room
                payload = payload[:room]
        if key.proto == PROTO_TCP:
            segments = self._tcp.get(key)
            if segments is None:
                segments = {}
                self._tcp[key] = segments
            if (
                limits.max_flow_segments is not None
                and len(segments) >= limits.max_flow_segments
                and packet.seq not in segments
            ):
                self.stats.segments_dropped += 1
                self.stats.bytes_dropped += len(payload)
                self._touch(key, new_flow)
                return
            # First copy wins on exact duplicates.
            if packet.seq not in segments:
                segments[packet.seq] = payload
                self._bytes[key] = buffered + len(payload)
        else:
            chunks = self._other.get(key)
            if chunks is None:
                chunks = []
                self._other[key] = chunks
            if (
                limits.max_flow_segments is not None
                and len(chunks) >= limits.max_flow_segments
            ):
                self.stats.segments_dropped += 1
                self.stats.bytes_dropped += len(payload)
                self._touch(key, new_flow)
                return
            chunks.append(payload)
            self._bytes[key] = buffered + len(payload)
        self._touch(key, new_flow)

    def _touch(self, key: FiveTuple, new_flow: bool) -> None:
        if new_flow:
            self._order[key] = None
        elif key in self._lru:
            del self._lru[key]
        self._lru[key] = None

    def _evict_lru(self) -> None:
        victim = next(iter(self._lru))
        flow = self._finalize(victim)
        del self._lru[victim]
        del self._order[victim]
        self._tcp.pop(victim, None)
        self._other.pop(victim, None)
        self._bytes.pop(victim, None)
        self.stats.flows_evicted += 1
        self.stats.bytes_evicted += len(flow.payload)
        if self.on_evict is not None:
            self.on_evict(flow)

    def _finalize(self, key: FiveTuple) -> Flow:
        if key.proto == PROTO_TCP:
            segments = self._tcp.get(key, {})
            if len(segments) < 2 or self._in_order(segments):
                return Flow(key, b"".join(segments.values()))
            return Flow(key, self._reassemble_tcp(segments))
        return Flow(key, b"".join(self._other.get(key, [])))

    def add_all(self, packets: Iterable[Packet]) -> None:
        for packet in packets:
            self.add(packet)

    def flows(self) -> list[Flow]:
        """Reassembled flows in first-seen order (evicted flows excluded)."""
        return [self._finalize(key) for key in self._order]

    @staticmethod
    def _in_order(segments: dict[int, bytes]) -> bool:
        """Whether each segment, in arrival order, starts where the one
        before it ended, less than 2^31 bytes past the first: then arrival
        order is the order :meth:`_reassemble_tcp` would sort them into."""
        expected = next(iter(segments), None)
        offset = 0
        for seq, data in segments.items():
            if seq != expected or offset >= _SEQ_HALF:
                return False
            offset += len(data)
            expected = (seq + len(data)) % _SEQ_MOD
        return True

    @staticmethod
    def _reassemble_tcp(segments: dict[int, bytes]) -> bytes:
        if not segments:
            return b""
        # TCP sequence numbers live in a 32-bit ring; a long flow crosses
        # 2^32 and its raw seqs sort wrapped-first.  Re-key every segment
        # by its serial-number distance (RFC 1982 style) from the first
        # seen seq, centred so up to 2^31 bytes either side of the first
        # segment order correctly, then reassemble on that line.
        base = next(iter(segments))
        rel = {
            (seq - base + _SEQ_HALF) % _SEQ_MOD: data
            for seq, data in segments.items()
        }
        parts: list[bytes] = []
        position: int | None = None
        for seq in sorted(rel):
            data = rel[seq]
            if position is None:
                position = seq
            if seq > position:
                # Gap: missing segment — splice what we have (IDS engines
                # typically flush across holes rather than stall).
                position = seq
            elif seq < position:
                overlap = position - seq
                if overlap >= len(data):
                    continue
                data = data[overlap:]
            parts.append(data)
            position += len(data)
        return b"".join(parts)


@dataclass(frozen=True, slots=True)
class FlowMatch:
    """A confirmed match attributed to its flow."""

    key: FiveTuple
    event: MatchEvent


def dispatch_flows(
    engine,
    packets: Iterable[Packet],
    context_factory: Callable[[], object] | None = None,
    errors: str = "raise",
    stats: DispatchStats | None = None,
) -> Iterator[FlowMatch]:
    """Run an MFA over *interleaved* packets, one context per flow.

    This is the paper's multiplexed-flow mode: packets arrive in capture
    order, each flow keeps its own ``(q, m)`` pair, and payload bytes are
    fed strictly in per-flow order.  Requires in-order packets per flow
    (use :class:`FlowAssembler` first when the capture may reorder).

    ``errors="isolate"`` quarantines a flow on its first failure — an
    out-of-order segment or an engine exception — instead of raising, so
    one poisoned flow cannot kill a multiplexed scan; pass a
    :class:`DispatchStats` to account the quarantined flows.
    """
    if errors not in ("raise", "isolate"):
        raise ValueError(f"errors must be 'raise' or 'isolate', not {errors!r}")
    isolate = errors == "isolate"
    if stats is None:
        stats = DispatchStats()
    contexts: dict[FiveTuple, object] = {}
    expected_seq: dict[FiveTuple, int] = {}
    poisoned: set[FiveTuple] = set()

    def poison(key: FiveTuple, reason: str) -> None:
        poisoned.add(key)
        contexts.pop(key, None)
        expected_seq.pop(key, None)
        stats.flows_poisoned += 1
        stats.errors.append((key, reason))

    for packet in packets:
        if not packet.payload:
            continue
        key = packet.key
        if key in poisoned:
            stats.packets_skipped += 1
            continue
        context = contexts.get(key)
        if context is None:
            context = engine.new_context()
            contexts[key] = context
            if key.proto == PROTO_TCP:
                expected_seq[key] = packet.seq
        if key.proto == PROTO_TCP:
            expected = expected_seq[key]
            if packet.seq != expected:
                message = (
                    f"out-of-order packet for {key} "
                    f"(seq {packet.seq}, expected {expected}); reassemble first"
                )
                if not isolate:
                    raise ValueError(message)
                poison(key, message)
                stats.packets_skipped += 1
                continue
            expected_seq[key] = (packet.seq + len(packet.payload)) % _SEQ_MOD
        if isolate:
            try:
                events = list(engine.feed(context, packet.payload))
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                poison(key, f"engine error: {exc}")
                continue
            for event in events:
                yield FlowMatch(key, event)
        else:
            for event in engine.feed(context, packet.payload):
                yield FlowMatch(key, event)
    for key, context in contexts.items():
        if isolate:
            try:
                events = list(engine.finish(context))
            except Exception as exc:  # noqa: BLE001
                stats.flows_poisoned += 1
                stats.errors.append((key, f"engine error at finish: {exc}"))
                continue
            for event in events:
                yield FlowMatch(key, event)
        else:
            for event in engine.finish(context):
                yield FlowMatch(key, event)
