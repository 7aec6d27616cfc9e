"""Ingest fidelity: the one-unpack frame path, the buffered record walk and
join-once reassembly against their references.

The general decoder (``decode_frame``) is the reference for the common
Ethernet/IPv4/TCP path of the record walk, ``FlowAssembler._reassemble_tcp``
for join-once reassembly, and digests pinned from the reader and assembler
before the walk and the in-order rule existed for everything end to end.
"""

import hashlib
import io
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patterns import ruleset
from repro.regex import parse_many
from repro.robust.faults import (
    corrupt_record_length,
    duplicate_packets,
    record_offsets,
    reorder_packets,
    wrap_tcp_sequences,
)
from repro.traffic import PROFILES, corpus_packets
from repro.traffic.flows import PROTO_TCP, PROTO_UDP, FiveTuple, FlowAssembler, Packet
from repro.traffic.pcap import (
    _GLOBAL_HEADER,
    _RECORD_HEADER,
    _WINDOW_CHUNK,
    PcapError,
    PcapStats,
    decode_frame,
    encode_packet,
    read_pcap,
    write_pcap,
)

_SEQ_MOD = 1 << 32


def capture(packets) -> bytes:
    out = io.BytesIO()
    write_pcap(out, packets)
    return out.getvalue()


def stats_tuple(stats: PcapStats) -> tuple:
    return (
        stats.records_read,
        stats.packets_decoded,
        stats.undecodable_frames,
        stats.corrupt_records,
        stats.resync_bytes,
        stats.truncated_tail,
    )


def flows_digest(flows) -> str:
    """sha256 over each flow's key fields and payload, in flow order."""
    digest = hashlib.sha256()
    for flow in flows:
        k = flow.key
        digest.update(repr((k.proto, k.src_ip, k.src_port, k.dst_ip, k.dst_port)).encode())
        digest.update(len(flow.payload).to_bytes(4, "big"))
        digest.update(flow.payload)
    return digest.hexdigest()


def packets_digest(packets) -> str:
    """sha256 over each packet's key fields, seq, timestamp and payload."""
    digest = hashlib.sha256()
    for p in packets:
        k = p.key
        fields = (k.proto, k.src_ip, k.src_port, k.dst_ip, k.dst_port, p.seq, p.timestamp)
        digest.update(repr(fields).encode())
        digest.update(len(p.payload).to_bytes(4, "big"))
        digest.update(p.payload)
    return digest.hexdigest()


# -- the one-unpack frame path against the general decoder ---------------------


SENTINEL = Packet(FiveTuple(PROTO_UDP, "10.9.9.9", 53, "10.9.9.8", 53), b"sentinel", 0, 1.5)


def record_then_sentinel(frame: bytes, ts_sec: int, ts_usec: int) -> bytes:
    """A capture of ``frame`` followed by one more record, so that a read
    past the frame's end would show in its payload."""
    sentinel = encode_packet(SENTINEL)
    return b"".join(
        (
            _GLOBAL_HEADER.pack(0xA1B2C3D4, 2, 4, 0, 0, 65535, 1),
            _RECORD_HEADER.pack(ts_sec, ts_usec, len(frame), len(frame)),
            frame,
            _RECORD_HEADER.pack(1, 500_000, len(sentinel), len(sentinel)),
            sentinel,
        )
    )


@st.composite
def mutated_frames(draw):
    """``encode_packet`` frames with the fields the fast path tests mutated."""
    proto = draw(st.sampled_from([PROTO_TCP, PROTO_TCP, PROTO_UDP]))
    key = FiveTuple(
        proto,
        ".".join(str(draw(st.integers(0, 255))) for _ in range(4)),
        draw(st.integers(0, 65535)),
        ".".join(str(draw(st.integers(0, 255))) for _ in range(4)),
        draw(st.integers(0, 65535)),
    )
    payload = draw(st.binary(max_size=40))
    seq = draw(st.integers(0, _SEQ_MOD - 1))
    frame = bytearray(encode_packet(Packet(key, payload, seq)))
    if draw(st.booleans()):
        frame[12:14] = struct.pack("!H", draw(st.sampled_from([0x0800, 0x86DD, 0x0806, 0])))
    if draw(st.booleans()):
        frame[14] = draw(st.sampled_from([0x45, 0x44, 0x46, 0x4F, 0x65, 0x40]) | st.integers(0, 255))
    if draw(st.booleans()):
        total = draw(st.sampled_from([0, 19, 20, 39, 40, 41, len(frame) - 14, 0xFFFF]) | st.integers(0, 0xFFFF))
        frame[16:18] = struct.pack("!H", total)
    if draw(st.booleans()):
        frame[23] = draw(st.sampled_from([PROTO_TCP, PROTO_UDP, 1, 47]))
    if len(frame) > 46 and draw(st.booleans()):
        frame[46] = draw(st.integers(0, 255))  # TCP data offset (UDP payload)
    return bytes(frame)


@given(
    frame=mutated_frames(),
    ts_sec=st.integers(0, 2**32 - 1),
    ts_usec=st.integers(0, 999_999),
)
@settings(max_examples=150, deadline=None)
def test_walk_decodes_like_the_general_decoder(frame, ts_sec, ts_usec):
    """At every truncation length, the record walk yields exactly what
    ``decode_frame`` does for the frame, with the record's timestamp."""
    timestamp = ts_sec + ts_usec / 1e6
    for length in range(len(frame) + 1):
        cut = frame[:length]
        reference = decode_frame(cut)
        want = [] if reference is None else [Packet(reference.key, reference.payload, reference.seq, timestamp)]
        blob = record_then_sentinel(cut, ts_sec, ts_usec)
        assert list(read_pcap(io.BytesIO(blob))) == want + [SENTINEL]
        if length:  # a zero-length record is implausible to the tolerant reader
            assert list(read_pcap(io.BytesIO(blob), errors="skip")) == want + [SENTINEL]


# -- the record walk over captures of several windows ---------------------------

_RECORD = _RECORD_HEADER.size + 54 + 1000  # one record of a 1,000-B TCP payload
_WALK_KEYS = [FiveTuple(PROTO_TCP, f"10.7.0.{i + 1}", 3000 + i, "192.168.7.1", 80) for i in range(5)]


def straddling_capture(boundary: int, n_after: int = 130) -> tuple[bytes, int]:
    """A capture of 1,000-B TCP packets over five flows, one of them cut
    short so that the header of record ``index`` starts 8 bytes before
    stream offset ``boundary``; returns the blob and ``index``."""
    body = boundary - 8 - _GLOBAL_HEADER.size
    full, rest = divmod(body, _RECORD)
    if rest < _RECORD_HEADER.size + 54:
        full, rest = full - 1, rest + _RECORD
    sizes = [1000] * full + [rest - _RECORD_HEADER.size - 54] + [1000] * n_after
    rng = random.Random(17)
    seqs = [0] * len(_WALK_KEYS)
    packets = []
    for i, size in enumerate(sizes):
        flow = i % len(_WALK_KEYS)
        packets.append(Packet(_WALK_KEYS[flow], rng.randbytes(size), seqs[flow], i * 1e-3))
        seqs[flow] += size
    return capture(packets), full + 1


def refill_boundary() -> int:
    """Stream offset where the walk's first window ends."""
    return _GLOBAL_HEADER.size + _WINDOW_CHUNK


class TestRecordWalk:
    def test_layout_straddles_the_first_refill(self):
        blob, index = straddling_capture(refill_boundary())
        offset = record_offsets(blob)[index][0]
        assert offset < refill_boundary() < offset + _RECORD_HEADER.size
        assert len(blob) > 2 * _WINDOW_CHUNK

    def test_strict_equals_tolerant_on_clean_multichunk_capture(self):
        blob, _index = straddling_capture(refill_boundary())
        strict_stats, tolerant_stats = PcapStats(), PcapStats()
        strict = list(read_pcap(io.BytesIO(blob), stats=strict_stats))
        tolerant = list(read_pcap(io.BytesIO(blob), errors="skip", stats=tolerant_stats))
        assert strict == tolerant
        assert len(strict) == len(record_offsets(blob))
        assert stats_tuple(strict_stats) == stats_tuple(tolerant_stats)
        assert stats_tuple(strict_stats) == (len(strict), len(strict), 0, 0, 0, False)
        assert packets_digest(strict) == "87d1bc62b0dd83acbbf0148acfc40c641d7760b6f399111490ff1b608cc045a1"

    def test_corrupt_header_straddling_a_refill(self):
        blob, index = straddling_capture(refill_boundary())
        damaged = corrupt_record_length(blob, index)
        stats = PcapStats()
        packets = list(read_pcap(io.BytesIO(damaged), errors="skip", stats=stats))
        # Pinned from the reader that copied record by record.
        assert stats_tuple(stats) == (191, 191, 0, 1, 1070, False)
        assert packets_digest(packets) == "a26bf143e6c379f83723ae9d16d9c5dbfe6da6ad494ad442dad21c9cc63996d0"
        with pytest.raises(PcapError, match="truncated pcap frame"):
            list(read_pcap(io.BytesIO(damaged)))

    def test_corrupt_header_resync_crosses_a_refill(self):
        blob, index = straddling_capture(refill_boundary())
        damaged = corrupt_record_length(blob, index - 1)
        stats = PcapStats()
        packets = list(read_pcap(io.BytesIO(damaged), errors="skip", stats=stats))
        assert stats_tuple(stats) == (191, 191, 0, 1, 258, False)
        assert packets_digest(packets) == "e9ac9e835beadce29f4eb4297700040520033e834a7506d5d39aea30c7c866f6"

    def test_truncated_tail_after_a_refill(self):
        blob, _index = straddling_capture(refill_boundary())
        cut = blob[: len(blob) - 500]
        stats = PcapStats()
        packets = list(read_pcap(io.BytesIO(cut), errors="skip", stats=stats))
        assert stats_tuple(stats) == (191, 191, 0, 0, 0, True)
        assert packets_digest(packets) == "811be4c0433c620bc2220ffe7b80cdb55562b3eb0f8881364a7cde67297b5167"
        with pytest.raises(PcapError, match="truncated pcap frame"):
            list(read_pcap(io.BytesIO(cut)))

    def test_resync_chain_check_at_the_end_of_the_capture(self):
        # The last candidate record is followed by 5 stray bytes, so it
        # neither chains to another header nor ends the capture exactly.
        blob, _index = straddling_capture(refill_boundary(), n_after=3)
        damaged = corrupt_record_length(blob + b"\x00" * 5, len(record_offsets(blob)) - 2)
        stats = PcapStats()
        packets = list(read_pcap(io.BytesIO(damaged), errors="skip", stats=stats))
        assert stats_tuple(stats) == (63, 63, 0, 1, 2130, True)
        assert packets_digest(packets) == "48c8cc9fa4fb1a1bd75b2e00dbee3499ea2e6b8ed655c18d0658b2fa805406a2"

    def test_short_reads_refill_until_the_record_is_whole(self):
        class Trickle(io.BytesIO):
            def read(self, n=-1):
                return super().read(min(n, 997) if n >= 0 else 997)

        blob, _index = straddling_capture(refill_boundary(), n_after=10)
        assert list(read_pcap(Trickle(blob))) == list(read_pcap(io.BytesIO(blob)))

    def test_resync_past_the_end_allocates_in_proportion_to_the_capture(self, monkeypatch):
        """A corrupt header, then three plausible headers in every 12 bytes,
        each claiming about 4 GiB under a 4 GiB snaplen: every candidate's
        record runs past the end of the capture.  What the refills allocate
        in total must stay linear in the capture, not grow per candidate."""
        import tracemalloc

        import repro.traffic.pcap as pcap

        claim = 0xFFFFFFF0
        tail = struct.pack("<III", claim, 0, claim) * 10_000  # 120 KB
        blob = b"".join(
            (
                _GLOBAL_HEADER.pack(0xA1B2C3D4, 2, 4, 0, 0, 2**32 - 1, 1),
                _RECORD_HEADER.pack(0, 2_000_000, 0, 0),
                tail,
            )
        )
        allocated = []
        refill = pcap._refill

        def measured(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = refill(*args)
            allocated.append(tracemalloc.get_traced_memory()[1] - before)
            return result

        monkeypatch.setattr(pcap, "_refill", measured)
        stats = PcapStats()
        tracemalloc.start()
        try:
            assert list(read_pcap(io.BytesIO(blob), errors="skip", stats=stats)) == []
        finally:
            tracemalloc.stop()
        assert stats_tuple(stats) == (0, 0, 0, 1, len(tail) + 1, True)
        assert len(allocated) > len(tail) // 5  # a refill per candidate
        copied = [size for size in allocated if size > 1024]
        assert sum(copied) < 4 * len(blob) + 4 * _WINDOW_CHUNK
        with pytest.raises(PcapError, match="truncated pcap frame"):
            list(read_pcap(io.BytesIO(blob)))


# -- join-once reassembly against the sort path ----------------------------------

KEY = FiveTuple(PROTO_TCP, "10.0.0.1", 1111, "10.0.0.2", 80)


@st.composite
def arrivals(draw):
    """Segments of one flow from a base seq anywhere in the ring (wraps
    included), in order or with swaps, duplicates, overlaps and gaps."""
    base = draw(st.integers(0, _SEQ_MOD - 1) | st.integers(_SEQ_MOD - 64, _SEQ_MOD - 1))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    offsets, position = [], 0
    for size in sizes:
        offsets.append(position)
        position += size
    stream = draw(st.binary(min_size=position, max_size=position))
    segments = [((base + off) % _SEQ_MOD, stream[off : off + size]) for off, size in zip(offsets, sizes)]
    if draw(st.booleans()):
        segments = draw(st.permutations(segments))
    extra = draw(
        st.lists(
            st.tuples(st.integers(-4, position + 4), st.binary(min_size=1, max_size=6)),
            max_size=3,
        )
    )
    for off, data in extra:
        segments.insert(draw(st.integers(0, len(segments))), ((base + off) % _SEQ_MOD, data))
    return segments


@given(arrivals())
@settings(max_examples=300, deadline=None)
def test_join_once_equals_sorted_reassembly(segments):
    """Whatever the arrival order, a flow's payload is the re-keyed, sorted
    reassembly of its first copies in arrival order."""
    assembler = FlowAssembler()
    first_copies: dict[int, bytes] = {}
    for seq, data in segments:
        assembler.add(Packet(KEY, data, seq))
        first_copies.setdefault(seq, data)
    (flow,) = assembler.flows()
    assert flow.payload == FlowAssembler._reassemble_tcp(first_copies)


def joins_once(assembler: FlowAssembler, key: FiveTuple = KEY) -> bool:
    """Whether ``key``'s flow is finalized by one join, not the sort."""
    return FlowAssembler._in_order(assembler._tcp[key])


class TestInOrderRule:
    def test_in_order_across_the_wrap_joins_once(self):
        assembler = FlowAssembler()
        assembler.add(Packet(KEY, b"abcd", _SEQ_MOD - 2))
        assembler.add(Packet(KEY, b"efgh", 2))
        assert joins_once(assembler)
        assert assembler.flows()[0].payload == b"abcdefgh"

    def test_duplicate_keeps_a_flow_in_order(self):
        assembler = FlowAssembler()
        assembler.add(Packet(KEY, b"ab", 10))
        assembler.add(Packet(KEY, b"XX", 10))
        assembler.add(Packet(KEY, b"cd", 12))
        assert joins_once(assembler)
        assert assembler.flows()[0].payload == b"abcd"

    def test_out_of_order_segment_takes_the_sort_path(self):
        assembler = FlowAssembler()
        assembler.add(Packet(KEY, b"cd", 12))
        assembler.add(Packet(KEY, b"ab", 10))
        assembler.add(Packet(KEY, b"ef", 14))
        assert not joins_once(assembler)
        assert assembler.flows()[0].payload == b"abcdef"

    def test_in_order_past_the_half_window_takes_the_sort_path(self, monkeypatch):
        # A 16-seq ring stands in for 2^32: past half of it from the first
        # segment, the serial-number re-keying no longer keeps arrival order.
        import repro.traffic.flows as flows

        monkeypatch.setattr(flows, "_SEQ_MOD", 16)
        monkeypatch.setattr(flows, "_SEQ_HALF", 8)
        assembler = FlowAssembler()
        segments = {seq: bytes([65 + seq // 4]) * 4 for seq in (0, 4, 8, 12)}
        for seq, data in segments.items():
            assembler.add(Packet(KEY, data, seq))
        assert not joins_once(assembler)
        assert assembler.flows()[0].payload == FlowAssembler._reassemble_tcp(segments)


# -- pinned ingest of every tracked trace -----------------------------------------

_FAULTS = {
    "clean": lambda packets: packets,
    "reorder": lambda packets: reorder_packets(packets, seed=2016),
    "duplicate": lambda packets: duplicate_packets(packets, seed=2016),
    "seq-wrap": wrap_tcp_sequences,
}

# (profile, fault) -> (flows digest, records read, packets decoded), from
# write_pcap -> read_pcap -> FlowAssembler.flows() at the reader that copied
# each frame and the assembler that sorted every flow.  Every other
# PcapStats count is zero on these captures.
PINNED = {
    ("LL1", "clean"): ("f7b98edac980b1df9f54a16738aa22d1d2bb0f7bfa95ad9e07bd11c53ae31e7e", 248, 248),
    ("LL1", "reorder"): ("22f9bb92dab04a6ce328733fe8b05096bdeeed6b51c94a46f7aee1bb10696651", 248, 248),
    ("LL1", "duplicate"): ("1b98989ab055db1d529f0221ad729e5ddf367ec019ad81233b240f7180a4a01a", 304, 304),
    ("LL1", "seq-wrap"): ("f7b98edac980b1df9f54a16738aa22d1d2bb0f7bfa95ad9e07bd11c53ae31e7e", 248, 248),
    ("LL2", "clean"): ("b63276ff6f681316a582e65afb55e7a38ec308256e28aa012d3517859030f273", 243, 243),
    ("LL2", "reorder"): ("17be09b420a30ab149256d2664ad95321c89baeae12e380a2e01b23fd9995e35", 243, 243),
    ("LL2", "duplicate"): ("aa4076149dc94b37db2ca2217f4b85750c961454a36a4fe4adb322ff1b7aa6a3", 298, 298),
    ("LL2", "seq-wrap"): ("b63276ff6f681316a582e65afb55e7a38ec308256e28aa012d3517859030f273", 243, 243),
    ("LL3", "clean"): ("c7085639eb95072e43e14729a3eb1670da60e992dd4bb32d4dd9506231c62133", 221, 221),
    ("LL3", "reorder"): ("712457c2d9a933bd9fe2898b8fa5e27fb75a6628d4f4bf311d8276ac5c8afc00", 221, 221),
    ("LL3", "duplicate"): ("7afdc039ecea902929db087d9a5cfcb1eafa4e971d57c86fef69688ef58b82fa", 271, 271),
    ("LL3", "seq-wrap"): ("c7085639eb95072e43e14729a3eb1670da60e992dd4bb32d4dd9506231c62133", 221, 221),
    ("C11", "clean"): ("5b2d237c9c558b4bfe12b3aa4a7f70625303f36f60b7db6259d9f1c60026c7ab", 67, 67),
    ("C11", "reorder"): ("fee7a65a3a81d1a9d4b5a1ed5335e3ff675b4cc27e0f72bc29643a051956a120", 67, 67),
    ("C11", "duplicate"): ("5ef47d4523a2c134ddc5245f59114d186ddf75ba7f836db9f21994083d4025d7", 83, 83),
    ("C11", "seq-wrap"): ("5b2d237c9c558b4bfe12b3aa4a7f70625303f36f60b7db6259d9f1c60026c7ab", 67, 67),
    ("C12", "clean"): ("dd0fca66cec7f0a0d36cf890d7f07f38ec62ec2b0a468ec1ca766dbd73da8899", 81, 81),
    ("C12", "reorder"): ("53a143057394f1a6abb22c754bd5391dce0df4e0b4a0d1958f58c97ce8be1d69", 81, 81),
    ("C12", "duplicate"): ("96e9fb7b57b85e12434984ab195e01830cb54c4031803a68c8532034939a3e93", 100, 100),
    ("C12", "seq-wrap"): ("dd0fca66cec7f0a0d36cf890d7f07f38ec62ec2b0a468ec1ca766dbd73da8899", 81, 81),
    ("C110", "clean"): ("18df94e994b2945958a40d4512c4f7e00849032db90249b6453e7aa5f40c739a", 97, 97),
    ("C110", "reorder"): ("fccfbb678cff00ad4cab38ebf1197b65545f5dafa4018e9a96a8b1711885a527", 97, 97),
    ("C110", "duplicate"): ("725268f596ba91dd7c7c7b64c3090a7b5507a28e22252124280a6eb957a160da", 122, 122),
    ("C110", "seq-wrap"): ("18df94e994b2945958a40d4512c4f7e00849032db90249b6453e7aa5f40c739a", 97, 97),
    ("C112", "clean"): ("295aa30101c2e65be5257a126e7fb566190ec90f9e6b23dd1575c956cf2fa80f", 77, 77),
    ("C112", "reorder"): ("8d114aa00c944ba8c52a6a0b1cec50b0e8a4e1ba2cafd5f97af9d7135de7ba33", 77, 77),
    ("C112", "duplicate"): ("f6698d4cf7b9c00206a76082dc0f59fd7200ced1c730ecd77b65627282250c22", 95, 95),
    ("C112", "seq-wrap"): ("295aa30101c2e65be5257a126e7fb566190ec90f9e6b23dd1575c956cf2fa80f", 77, 77),
    ("N", "clean"): ("fa8f7afe4b22aa3be6f54b7fed4cab84930dd152e022bc50f344a68c1aa4aefe", 60, 60),
    ("N", "reorder"): ("6e374d651543f544a70b9cc3e6679247d68708747799d5f6df37d6886a4bc97b", 60, 60),
    ("N", "duplicate"): ("1fd615413a99a2d35bc11609e0ad7e83012b881f5abe18cdd3725b12ac6b2919", 74, 74),
    ("N", "seq-wrap"): ("fa8f7afe4b22aa3be6f54b7fed4cab84930dd152e022bc50f344a68c1aa4aefe", 60, 60),
}


@pytest.fixture(scope="module")
def profile_packets():
    patterns = parse_many(list(ruleset("C8").rules))
    return {p.name: corpus_packets(p, patterns, seed=2016) for p in PROFILES}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("profile", [p.name for p in PROFILES])
def test_pinned_ingest(profile_packets, profile, fault):
    blob = capture(_FAULTS[fault](profile_packets[profile]))
    want_digest, records, decoded = PINNED[(profile, fault)]
    for errors in ("raise", "skip"):
        stats = PcapStats()
        assembler = FlowAssembler()
        assembler.add_all(read_pcap(io.BytesIO(blob), errors=errors, stats=stats))
        assert flows_digest(assembler.flows()) == want_digest
        assert stats_tuple(stats) == (records, decoded, 0, 0, 0, False)


def test_pins_cover_both_reassembly_paths(profile_packets):
    """Clean traces reassemble every TCP flow by one join; the reordered
    variant sends some of them through the sort."""
    for fault, all_in_order in (("clean", True), ("seq-wrap", True), ("reorder", False)):
        assembler = FlowAssembler()
        assembler.add_all(_FAULTS[fault](profile_packets["LL1"]))
        tcp = [key for key in assembler._tcp if assembler._tcp[key]]
        in_order = [key for key in tcp if joins_once(assembler, key)]
        assert (len(in_order) == len(tcp)) is all_in_order
