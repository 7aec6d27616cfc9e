"""Minimal libpcap file reader/writer with Ethernet/IPv4/TCP/UDP framing.

The paper evaluates on raw ``.pcap`` captures (DARPA, CDX, Nitroba).  Those
corpora are not redistributable here, so the harness *writes* synthetic
captures in the genuine classic-pcap format and reads them back through
this decoder — exercising the same file → packet → flow pipeline a real
deployment uses.  Only what DPI needs is implemented: classic pcap
(magic ``0xa1b2c3d4``, microsecond timestamps), Ethernet II, IPv4 without
options handling beyond the header length field, TCP and UDP.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from io import BytesIO
from os import PathLike
from typing import BinaryIO, Callable, Iterable, Iterator

from .flows import (
    PROTO_TCP,
    PROTO_UDP,
    AssemblerStats,
    FiveTuple,
    Flow,
    FlowAssembler,
    FlowLimits,
    Packet,
)

__all__ = [
    "PcapError",
    "PcapStats",
    "write_pcap",
    "read_pcap",
    "ingest_flows",
    "encode_packet",
    "decode_frame",
]

_PCAP_MAGIC = 0xA1B2C3D4
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_ETH_HEADER = struct.Struct("!6s6sH")
_IPV4_HEADER = struct.Struct("!BBHHHBBH4s4s")
_TCP_HEADER = struct.Struct("!HHIIBBHHH")
_UDP_HEADER = struct.Struct("!HHHH")

# The common frame, Ethernet II + IPv4 without options + TCP, in one
# unpack: ethertype, version/IHL, total length, protocol, both addresses,
# both ports, seq and the TCP data-offset byte.
_ETH_IPV4_TCP = struct.Struct("!12xHBxH4xxB2x4s4sHHI4xB7x")

_ETHERTYPE_IPV4 = 0x0800
_LINKTYPE_ETHERNET = 1
_IPV4_NO_OPTIONS = 0x45  # version 4, IHL 5 words
_L4_OFFSET = _ETH_HEADER.size + _IPV4_HEADER.size  # TCP header of that frame
_WINDOW_CHUNK = 65536  # bytes a record-walk refill reads at least
# Formatted addresses kept before the memo starts over: a bound, because
# hostile traffic can present any number of distinct addresses.
_IP_CACHE_LIMIT = 65536


class PcapError(ValueError):
    """Malformed capture file."""


@dataclass(slots=True)
class PcapStats:
    """What a (tolerant) :func:`read_pcap` pass saw and skipped.

    ``records_read`` counts record headers consumed; ``packets_decoded``
    the frames that decoded into packets; ``undecodable_frames`` those
    that did not (non-IPv4, truncated or corrupt headers);
    ``corrupt_records`` the records abandoned during resynchronization,
    with ``resync_bytes`` the raw bytes scanned past; ``truncated_tail``
    flags a capture that ended mid-record.
    """

    records_read: int = 0
    packets_decoded: int = 0
    undecodable_frames: int = 0
    corrupt_records: int = 0
    resync_bytes: int = 0
    truncated_tail: bool = False

    def describe(self) -> str:
        return (
            f"records {self.records_read}, decoded {self.packets_decoded}, "
            f"undecodable {self.undecodable_frames}, "
            f"corrupt {self.corrupt_records} (+{self.resync_bytes} B resync)"
            + (", truncated tail" if self.truncated_tail else "")
        )


def _checksum(data: bytes) -> int:
    """RFC 1071 internet checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _ip_bytes(dotted: str) -> bytes:
    parts = [int(p) for p in dotted.split(".")]
    if len(parts) != 4 or any(not 0 <= p <= 255 for p in parts):
        raise ValueError(f"bad IPv4 address: {dotted!r}")
    return bytes(parts)


_ip_cache: dict[bytes, str] = {}


def _ip_str(raw: bytes) -> str:
    """Dotted form of a 4-byte address, memoized up to ``_IP_CACHE_LIMIT``.

    Every reader in the process shares the memo; it caches a pure
    function, so sharing it changes no result."""
    text = _ip_cache.get(raw)
    if text is None:
        if len(_ip_cache) >= _IP_CACHE_LIMIT:
            _ip_cache.clear()
        text = _ip_cache[raw] = "%d.%d.%d.%d" % tuple(raw)
    return text


def encode_packet(packet: Packet) -> bytes:
    """Frame one packet as Ethernet/IPv4/TCP-or-UDP bytes."""
    key = packet.key
    if key.proto == PROTO_TCP:
        l4 = _TCP_HEADER.pack(
            key.src_port,
            key.dst_port,
            packet.seq,
            0,              # ack
            5 << 4,         # data offset: 5 words
            0x18,           # PSH|ACK
            65535,          # window
            0,              # checksum (filled below)
            0,              # urgent
        )
    elif key.proto == PROTO_UDP:
        l4 = _UDP_HEADER.pack(
            key.src_port, key.dst_port, _UDP_HEADER.size + len(packet.payload), 0
        )
    else:
        raise ValueError(f"unsupported protocol {key.proto}")

    total_len = _IPV4_HEADER.size + len(l4) + len(packet.payload)
    src = _ip_bytes(key.src_ip)
    dst = _ip_bytes(key.dst_ip)
    ip = _IPV4_HEADER.pack(
        0x45, 0, total_len, 0, 0, 64, key.proto, 0, src, dst
    )
    ip = ip[:10] + struct.pack("!H", _checksum(ip)) + ip[12:]

    # Transport checksum over the IPv4 pseudo-header.
    pseudo = src + dst + struct.pack("!BBH", 0, key.proto, len(l4) + len(packet.payload))
    csum = _checksum(pseudo + l4 + packet.payload)
    if key.proto == PROTO_TCP:
        l4 = l4[:16] + struct.pack("!H", csum) + l4[18:]
    else:
        l4 = l4[:6] + struct.pack("!H", csum)

    eth = _ETH_HEADER.pack(b"\x02" * 6, b"\x04" * 6, _ETHERTYPE_IPV4)
    return eth + ip + l4 + packet.payload


def decode_frame(frame: bytes) -> Packet | None:
    """Decode an Ethernet frame; returns None for non-IPv4/TCP/UDP frames."""
    return _decode_frame(frame, 0.0)


def _decode_frame(frame: bytes, timestamp: float) -> Packet | None:
    """The general decoder: any header layout, every hardening check."""
    if len(frame) < _ETH_HEADER.size:
        return None
    _dst, _src, ethertype = _ETH_HEADER.unpack_from(frame)
    if ethertype != _ETHERTYPE_IPV4:
        return None
    offset = _ETH_HEADER.size
    if len(frame) < offset + _IPV4_HEADER.size:
        return None
    (
        ver_ihl,
        _tos,
        total_len,
        _ident,
        _flags,
        _ttl,
        proto,
        _csum,
        src,
        dst,
    ) = _IPV4_HEADER.unpack_from(frame, offset)
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0xF) * 4
    if ihl < _IPV4_HEADER.size or total_len < ihl:
        # A header-length below the fixed header or a total_len smaller
        # than the header itself is corruption; slicing would silently
        # produce empty or wrong payloads, so refuse the frame instead.
        return None
    l4_offset = offset + ihl
    end = offset + total_len
    if end > len(frame):
        end = len(frame)
    seq = 0
    if proto == PROTO_TCP:
        if end < l4_offset + _TCP_HEADER.size:
            return None
        fields = _TCP_HEADER.unpack_from(frame, l4_offset)
        src_port, dst_port, seq = fields[0], fields[1], fields[2]
        data_offset = (fields[4] >> 4) * 4
        payload_start = l4_offset + data_offset
        if data_offset < _TCP_HEADER.size or payload_start > end:
            # data_offset below the fixed TCP header or pointing past the
            # IP datagram: corrupt framing, not an empty payload.
            return None
        payload = frame[payload_start:end]
    elif proto == PROTO_UDP:
        if end < l4_offset + _UDP_HEADER.size:
            return None
        src_port, dst_port, _length, _csum2 = _UDP_HEADER.unpack_from(frame, l4_offset)
        payload = frame[l4_offset + _UDP_HEADER.size : end]
    else:
        return None
    key = FiveTuple(proto, _ip_str(src), src_port, _ip_str(dst), dst_port)
    return Packet(key, payload, seq, timestamp)


def write_pcap(stream: BinaryIO, packets: Iterable[Packet], snaplen: int = 65535) -> int:
    """Write packets as a classic pcap capture; returns packet count."""
    stream.write(_GLOBAL_HEADER.pack(_PCAP_MAGIC, 2, 4, 0, 0, snaplen, _LINKTYPE_ETHERNET))
    count = 0
    for packet in packets:
        frame = encode_packet(packet)
        ts_sec = int(packet.timestamp)
        ts_usec = int((packet.timestamp - ts_sec) * 1e6)
        stream.write(_RECORD_HEADER.pack(ts_sec, ts_usec, len(frame), len(frame)))
        stream.write(frame)
        count += 1
    return count


def read_pcap(
    stream: BinaryIO,
    errors: str = "raise",
    stats: PcapStats | None = None,
) -> Iterator[Packet]:
    """Read a classic pcap capture, yielding decodable packets.

    ``errors="raise"`` (the default) fail-stops with :class:`PcapError`
    on any structural damage — the historical behaviour.

    ``errors="skip"`` is the middlebox mode: a record whose header is
    implausible (length beyond the snaplen, sub-second field overflowing)
    is abandoned and the reader *resynchronizes* by scanning forward for
    the next plausible record header; a capture ending mid-record stops
    the iteration instead of raising.  Everything skipped is accounted in
    ``stats`` (a :class:`PcapStats`, freshly created when not supplied),
    so one corrupt record costs bytes, not the whole trace.
    """
    if errors not in ("raise", "skip"):
        raise ValueError(f"errors must be 'raise' or 'skip', not {errors!r}")
    if stats is None:
        stats = PcapStats()
    header = stream.read(_GLOBAL_HEADER.size)
    if len(header) < _GLOBAL_HEADER.size:
        raise PcapError("truncated pcap global header")
    magic = struct.unpack_from("<I", header)[0]
    if magic != _PCAP_MAGIC:
        raise PcapError(f"unsupported pcap magic {magic:#x}")
    fields = _GLOBAL_HEADER.unpack(header)
    snaplen, linktype = fields[5], fields[6]
    if linktype != _LINKTYPE_ETHERNET:
        raise PcapError(f"unsupported linktype {linktype}")
    yield from _walk_records(stream, max(snaplen, 65535), stats, errors == "raise")


def ingest_flows(
    capture: BinaryIO | bytes | str | PathLike | Iterable[Packet],
    on_flows: Callable[[list[Flow]], None],
    limits: FlowLimits | None = None,
    batch_size: int = 1,
    stats: PcapStats | None = None,
) -> tuple[int, AssemblerStats]:
    """Decode and reassemble a capture, handing its flows on in groups.

    The ingest half of every capture scan.  ``capture`` is a path, pcap
    bytes, an open binary stream (read with ``errors="skip"``, damage
    counted in ``stats``) or an iterable of decoded :class:`Packet`.
    Packets reassemble under ``limits``.  Each non-empty flow joins the
    open group: an evicted flow when it is evicted, the others after the
    last packet, in first-seen order.  ``on_flows`` receives each group
    when it reaches ``batch_size`` flows, and then the last, shorter one.
    Returns the packet count and the assembler's counters.
    """
    if isinstance(capture, (str, PathLike)):
        with open(capture, "rb") as stream:
            return ingest_flows(stream, on_flows, limits, batch_size, stats)
    if isinstance(capture, bytes):
        capture = BytesIO(capture)
    if hasattr(capture, "read"):
        packets: Iterable[Packet] = read_pcap(capture, errors="skip", stats=stats)
    else:
        packets = capture
    group: list[Flow] = []

    def take(flow: Flow) -> None:
        if flow.payload:
            group.append(flow)
            if len(group) >= batch_size:
                on_flows(group[:])
                group.clear()

    assembler = FlowAssembler(limits=limits, on_evict=take)
    n_packets = 0
    for packet in packets:
        n_packets += 1
        assembler.add(packet)
    for flow in assembler.flows():
        take(flow)
    if group:
        on_flows(group)
    return n_packets, assembler.stats


def _walk_records(
    stream: BinaryIO, max_len: int, stats: PcapStats, strict: bool
) -> Iterator[Packet]:
    """The record walk of both modes, over one window of buffered bytes.

    ``buf[pos:]`` is the unread part of the window; it is refilled, and
    compacted, only when the next record header or frame runs past its end.
    Each frame is decoded where it lies into one :class:`Packet`: the
    common Ethernet/IPv4/TCP frame with one unpack, any other through
    the general decoder.  Damage takes the exception branches: strict
    mode raises :class:`PcapError`, tolerant mode resynchronizes past an
    implausible header and stops at a truncated tail.
    """
    record_header = _RECORD_HEADER.unpack_from
    frame_header = _ETH_IPV4_TCP.unpack_from
    ip = _ip_cache.get
    buf, pos = b"", 0
    while True:
        if pos + _RECORD_HEADER.size > len(buf):
            buf, pos = _refill(stream, buf, pos, _RECORD_HEADER.size)
            if pos + _RECORD_HEADER.size > len(buf):
                if pos < len(buf):
                    if strict:
                        raise PcapError("truncated pcap record header")
                    stats.truncated_tail = True
                return
        header = record_header(buf, pos)
        if not strict and not _plausible(header, max_len):
            stats.corrupt_records += 1
            buf, pos, skipped = _resync(stream, buf, pos, max_len)
            stats.resync_bytes += skipped
            if pos < 0:
                stats.truncated_tail = True
                return
            header = record_header(buf, pos)
        ts_sec, ts_usec, incl_len, _orig_len = header
        end = pos + _RECORD_HEADER.size + incl_len
        if end > len(buf):
            buf, pos = _refill(stream, buf, pos, _RECORD_HEADER.size + incl_len)
            end = pos + _RECORD_HEADER.size + incl_len
            if end > len(buf):
                if strict:
                    raise PcapError("truncated pcap frame")
                stats.truncated_tail = True
                return
        start = pos + _RECORD_HEADER.size
        pos = end
        stats.records_read += 1
        timestamp = ts_sec + ts_usec / 1e6
        packet = None
        if incl_len >= _ETH_IPV4_TCP.size:
            (
                ethertype, ver_ihl, total_len, proto,
                src, dst, src_port, dst_port, seq, data_offset,
            ) = frame_header(buf, start)
            if ethertype == _ETHERTYPE_IPV4 and ver_ihl == _IPV4_NO_OPTIONS and proto == PROTO_TCP:
                # decode_frame's checks for this layout: the payload starts
                # past the fixed TCP header and within the datagram clamped
                # to the frame (which therefore holds that header).
                ip_end = min(_ETH_HEADER.size + total_len, incl_len)
                payload_start = _L4_OFFSET + (data_offset >> 4) * 4
                if _ETH_IPV4_TCP.size <= payload_start <= ip_end:
                    key = FiveTuple(
                        PROTO_TCP, ip(src) or _ip_str(src), src_port,
                        ip(dst) or _ip_str(dst), dst_port,
                    )
                    payload = buf[start + payload_start : start + ip_end]
                    packet = Packet(key, payload, seq, timestamp)
        if packet is None:
            # Any other frame, and a damaged common one: the general decoder.
            packet = _decode_frame(buf[start:end], timestamp)
            if packet is None:
                stats.undecodable_frames += 1
                continue
        stats.packets_decoded += 1
        yield packet


def _refill(stream: BinaryIO, buf: bytes, pos: int, need: int) -> tuple[bytes, int]:
    """Read until the unread window ``buf[pos:]`` holds ``need`` bytes or
    the stream ends.  Returns the window and the position of ``buf[pos]``
    in it.

    The window is compacted only when a read brought bytes, and each read
    asks for as many bytes as the window keeps (at least
    ``_WINDOW_CHUNK``), never for a length a record header claims.  On a
    stream whose reads come back full until its end (a file, a BytesIO)
    compaction thus copies at most twice the bytes read, plus the window
    once at the end: a resync whose candidates keep claiming records past
    the end of the capture stays linear.
    """
    have = len(buf) - pos
    step = max(_WINDOW_CHUNK, have)
    chunks = []
    while have < need:
        chunk = stream.read(step)
        if not chunk:
            break
        chunks.append(chunk)
        have += len(chunk)
    if not chunks:
        return buf, pos
    return b"".join([memoryview(buf)[pos:], *chunks]), 0


def _plausible(header: tuple[int, int, int, int], max_len: int) -> bool:
    """Heuristic validity of an unpacked record header."""
    _ts_sec, ts_usec, incl_len, orig_len = header
    return (
        0 < incl_len <= max_len
        and incl_len <= orig_len <= max_len
        and ts_usec < 1_000_000
    )


def _resync(
    stream: BinaryIO, buf: bytes, pos: int, max_len: int
) -> tuple[bytes, int, int]:
    """Scan forward one byte at a time from the corrupt header at ``pos``
    for the next plausible one.  Returns the window, the new record's
    position (``-1`` when the capture ended first) and the bytes skipped.

    A candidate is accepted only when another plausible header follows
    it, or when it ends exactly at the end of the capture: a chain check
    against false positives.
    """
    skipped = 0
    while True:
        pos += 1
        skipped += 1
        if pos + _RECORD_HEADER.size > len(buf):
            buf, pos = _refill(stream, buf, pos, _RECORD_HEADER.size)
            if pos + _RECORD_HEADER.size > len(buf):
                return buf, -1, skipped
        header = _RECORD_HEADER.unpack_from(buf, pos)
        if not _plausible(header, max_len):
            continue
        record_end = _RECORD_HEADER.size + header[2]
        need = record_end + _RECORD_HEADER.size
        if pos + need > len(buf):
            buf, pos = _refill(stream, buf, pos, need)
        if pos + need <= len(buf):
            if _plausible(_RECORD_HEADER.unpack_from(buf, pos + record_end), max_len):
                return buf, pos, skipped
        elif len(buf) - pos == record_end:
            return buf, pos, skipped
