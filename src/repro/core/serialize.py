"""Serialisation of compiled MFAs.

An MFA bundle is the DFA blob (see :mod:`repro.automata.serialize`) plus a
JSON filter table.  The rule compiler runs offline; the data plane loads
bundles — so the format is versioned, deterministic, and refuses anything
it does not recognise.
"""

from __future__ import annotations

import json
import struct
from typing import BinaryIO, cast

from ..automata.compress import CompressedDFA
from ..automata.serialize import (
    CDFA_MAGIC,
    dumps_cdfa,
    dumps_dfa,
    loads_cdfa,
    loads_dfa,
)
from .filters import NONE, FilterAction, FilterProgram
from .mfa import MFA

__all__ = [
    "BUNDLE_MAGIC",
    "dumps_mfa",
    "loads_mfa",
    "save_mfa",
    "load_mfa",
    "program_to_json",
    "program_from_json",
    "split_bundle",
]

_MAGIC = b"MFABDL1\n"
# Version 2 framing appends a third section: the JSON prefilter plan (see
# repro.fastpath.prefilter).  Bundles without a plan are still written as
# version 1, so artifacts stay byte-identical with older releases.
_MAGIC_V2 = b"MFABDL2\n"

# Public alias: the static analyzer (repro.analyze.bundle) parses bundles
# tolerantly and needs the framing constants without the decode logic.
BUNDLE_MAGIC = _MAGIC


def program_to_json(program: FilterProgram) -> dict:
    """The filter table as a JSON-safe dict."""
    return {
        "width": program.width,
        "n_registers": program.n_registers,
        "final_ids": sorted(program.final_ids),
        "actions": {
            str(match_id): {
                "test": action.test,
                "set": action.set,
                "clear": action.clear,
                "report": action.report,
                "record": action.record,
                "distance": list(action.distance) if action.distance else None,
            }
            for match_id, action in sorted(program.actions.items())
        },
    }


def program_from_json(blob: dict) -> FilterProgram:
    actions = {}
    for match_id, fields in blob["actions"].items():
        distance = fields.get("distance")
        actions[int(match_id)] = FilterAction(
            test=fields.get("test", NONE),
            set=fields.get("set", NONE),
            clear=fields.get("clear", NONE),
            report=fields.get("report", NONE),
            record=fields.get("record", NONE),
            distance=tuple(distance) if distance else None,
        )
    return FilterProgram(
        actions=actions,
        width=blob["width"],
        n_registers=blob["n_registers"],
        final_ids=frozenset(blob["final_ids"]),
    )


def dumps_mfa(mfa: MFA) -> bytes:
    """Serialise an MFA (DFA table + filter program [+ prefilter plan]).

    When the MFA carries a default-transition forest (``mfa.compressed``,
    attached by ``build_mfa(compress=...)`` or by loading a compressed
    bundle), the DFA section is written in the compressed ``MFADFA2``
    encoding instead of the dense table.  The bundle framing itself is
    unchanged — the DFA section is self-describing by magic — so old
    readers of *dense* bundles and new readers of both kinds interoperate.
    """
    program_bytes = json.dumps(
        program_to_json(mfa.program), separators=(",", ":"), sort_keys=True
    ).encode()
    if mfa.compressed is not None:
        dfa_bytes = dumps_cdfa(cast(CompressedDFA, mfa.compressed))
    else:
        dfa_bytes = dumps_dfa(mfa.dfa)
    plan = mfa.prefilter
    if plan is None:
        return (
            _MAGIC
            + struct.pack("<II", len(program_bytes), len(dfa_bytes))
            + program_bytes
            + dfa_bytes
        )
    plan_bytes = json.dumps(plan, separators=(",", ":"), sort_keys=True).encode()
    return (
        _MAGIC_V2
        + struct.pack("<III", len(program_bytes), len(dfa_bytes), len(plan_bytes))
        + program_bytes
        + dfa_bytes
        + plan_bytes
    )


def _split_sections(
    blob: "bytes | memoryview",
) -> tuple[bytes, "bytes | memoryview", "bytes | None"]:
    """Framing-only split into (filter JSON, DFA blob, prefilter JSON)."""
    view = memoryview(blob) if not isinstance(blob, bytes) else blob
    magic = bytes(view[: len(_MAGIC)])
    if magic == _MAGIC:
        header = "<II"
    elif magic == _MAGIC_V2:
        header = "<III"
    else:
        raise ValueError("not a serialised MFA bundle (bad magic)")
    offset = len(_MAGIC)
    header_len = struct.calcsize(header)
    if len(view) < offset + header_len:
        raise ValueError("truncated MFA bundle (missing section lengths)")
    sizes = struct.unpack_from(header, view, offset)
    program_len, dfa_len = sizes[0], sizes[1]
    plan_len = sizes[2] if len(sizes) > 2 else None
    offset += header_len
    program_bytes = bytes(view[offset : offset + program_len])
    offset += program_len
    dfa_bytes = view[offset : offset + dfa_len]
    if len(program_bytes) != program_len or len(dfa_bytes) != dfa_len:
        raise ValueError("truncated MFA bundle")
    if plan_len is None:
        return program_bytes, dfa_bytes, None
    offset += dfa_len
    plan_bytes = bytes(view[offset : offset + plan_len])
    if len(plan_bytes) != plan_len:
        raise ValueError("truncated MFA bundle (missing prefilter plan)")
    return program_bytes, dfa_bytes, plan_bytes


def split_bundle(blob: "bytes | memoryview") -> tuple[bytes, "bytes | memoryview"]:
    """Split a bundle into its (filter-table JSON, DFA blob) halves.

    Performs only the structural framing checks — neither half is decoded
    — so the static analyzer can audit each part tolerantly.  Raises
    :class:`ValueError` naming the structural defect.  A ``memoryview``
    input yields a zero-copy ``memoryview`` DFA half (the small filter
    JSON is always materialised).  Accepts both framing versions; the
    version-2 prefilter section is dropped (it is a scan-time accelerator
    with no bearing on match semantics).
    """
    program_bytes, dfa_bytes, _ = _split_sections(blob)
    return program_bytes, dfa_bytes


def loads_mfa(blob: "bytes | memoryview", mmap: bool = False) -> MFA:
    """Deserialise an MFA bundle (provenance/stats are not preserved).

    ``mmap=True`` keeps the DFA transition table as zero-copy views over
    the caller's buffer (see :func:`repro.automata.serialize.loads_dfa`);
    the buffer must outlive the returned engine.

    A compressed (``MFADFA2``) DFA section is flattened back to the dense
    table (byte-identical to the pre-compression DFA), so every engine
    scans it at full speed.  The forest is kept on ``mfa.compressed`` so
    a re-dump reproduces the compressed bundle byte-for-byte.
    """
    program_bytes, dfa_bytes, plan_bytes = _split_sections(blob)
    program = program_from_json(json.loads(program_bytes))
    if bytes(memoryview(dfa_bytes)[: len(CDFA_MAGIC)]) == CDFA_MAGIC:
        cdfa = loads_cdfa(dfa_bytes)
        mfa = MFA(cdfa.flatten(), program)
        mfa.compressed = cdfa
    else:
        dfa = loads_dfa(dfa_bytes, mmap=mmap)
        mfa = MFA(dfa, program)
    if plan_bytes is not None:
        plan = json.loads(plan_bytes)
        if not isinstance(plan, dict):
            raise ValueError("prefilter plan section is not a JSON object")
        mfa.prefilter = plan
    return mfa


def save_mfa(mfa: MFA, stream: BinaryIO) -> None:
    stream.write(dumps_mfa(mfa))


def load_mfa(stream: BinaryIO) -> MFA:
    return loads_mfa(stream.read())
