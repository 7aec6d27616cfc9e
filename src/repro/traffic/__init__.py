"""Traffic substrate: flows, pcap I/O, and synthetic trace generation."""

from .becchi import DIFFICULTIES, SyntheticTrace, generate_payload, generate_trace
from .corpora import PROFILES, TraceProfile, build_corpus, corpus_packets
from .flows import (
    AssemblerStats,
    DispatchStats,
    FiveTuple,
    Flow,
    FlowAssembler,
    FlowLimits,
    FlowMatch,
    Packet,
    dispatch_flows,
)
from .pcap import (
    PcapError,
    PcapStats,
    decode_frame,
    encode_packet,
    ingest_flows,
    read_pcap,
    write_pcap,
)
from .replay import ReplayStats, replay

__all__ = [
    "DIFFICULTIES",
    "SyntheticTrace",
    "generate_payload",
    "generate_trace",
    "PROFILES",
    "TraceProfile",
    "build_corpus",
    "corpus_packets",
    "AssemblerStats",
    "DispatchStats",
    "FiveTuple",
    "Flow",
    "FlowAssembler",
    "FlowLimits",
    "FlowMatch",
    "Packet",
    "dispatch_flows",
    "PcapError",
    "PcapStats",
    "decode_frame",
    "encode_packet",
    "ingest_flows",
    "read_pcap",
    "write_pcap",
    "ReplayStats",
    "replay",
]
