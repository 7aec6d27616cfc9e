"""Resilient pipeline layer: degrade gracefully, account for everything.

See :mod:`repro.robust.pipeline` for the compile-side fallback chain and
the tolerant scan, :mod:`repro.robust.limits` for every knob (their
environment spellings are parsed in :mod:`repro.config`),
:mod:`repro.robust.faults` for the deterministic fault-injection harness,
and ``docs/robustness.md`` for the operator story.
"""

from .faults import (
    FAULT_CLASSES,
    apply_fault,
    bitflip_records,
    corrupt_record_length,
    duplicate_packets,
    record_offsets,
    reorder_packets,
    repack,
    truncate_capture,
    wrap_tcp_sequences,
    xflood_packets,
    xflood_payload,
)
from .limits import (
    DEFAULT_FALLBACK_CHAIN,
    CompileLimits,
    ScanLimits,
)
from .pipeline import CompileResult, ResilientCompiler, compile_resilient, resilient_scan
from .report import CompileReport, EngineAttempt, RuleOutcome, ScanReport

__all__ = [
    "FAULT_CLASSES",
    "apply_fault",
    "bitflip_records",
    "corrupt_record_length",
    "duplicate_packets",
    "record_offsets",
    "reorder_packets",
    "repack",
    "truncate_capture",
    "wrap_tcp_sequences",
    "xflood_packets",
    "xflood_payload",
    "DEFAULT_FALLBACK_CHAIN",
    "CompileLimits",
    "ScanLimits",
    "CompileResult",
    "ResilientCompiler",
    "compile_resilient",
    "resilient_scan",
    "CompileReport",
    "EngineAttempt",
    "RuleOutcome",
    "ScanReport",
]
