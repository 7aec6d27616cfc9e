"""A fixed reference kernel that times how fast the machine is right now.

The kernel uses no code of the program: interpreted record parsing with
dict updates (like pcap decode and flow reassembly) and a numpy table walk
over lanes (like the fastpath lane kernel).  A run times it beside every
measured step, so a change of machine speed during or between runs shows
in the kernel as much as in the step.
"""

from __future__ import annotations

import struct
import time

import numpy as np

RECORDS = 12000
RECORD = struct.Struct("<IIHHB")
LANES, STEPS = 64, 3000

_rng = np.random.default_rng(2016)
_BUFFER = _rng.integers(0, 256, RECORDS * RECORD.size, dtype=np.uint8).tobytes()
_TABLE = _rng.integers(0, 512, (512, 256), dtype=np.int32)
_COLUMNS = _rng.integers(0, 256, (STEPS, LANES), dtype=np.int32)


def kernel() -> int:
    """One pass of the reference work; returns a checksum so none of it is skipped."""
    flows: dict[tuple, list[int]] = {}
    for offset in range(0, len(_BUFFER), RECORD.size):
        src, dst, sport, dport, proto = RECORD.unpack_from(_BUFFER, offset)
        key = (src & 0x3F, dst & 0x3F, (sport ^ dport) & 1, proto & 1)
        entry = flows.get(key)
        if entry is None:
            flows[key] = [1, len(_BUFFER[offset : offset + 8])]
        else:
            entry[0] += 1
    states = np.zeros(LANES, dtype=np.int32)
    for column in _COLUMNS:
        states = _TABLE[states, column]
    return len(flows) + int(states.sum())


def seconds() -> float:
    """Wall seconds of one kernel pass."""
    tick = time.perf_counter()
    kernel()
    return time.perf_counter() - tick
