"""Shared-memory artifact segments for the scan daemon.

A long-lived service must not pay one artifact copy per worker: the
compiled rule set is serialized once into a named
:class:`multiprocessing.shared_memory.SharedMemory` segment and every
worker *attaches* — the kernel maps the same physical pages into each
process.  Combined with the zero-copy bundle load path
(``loads_mfa(..., mmap=True)``), N workers share one transition-table
image regardless of N.

Segment layout (one *generation* of the rule set)::

    b"MFASHMS1\\n"
    <I header_len> header_json     # generation id + per-shard spans
    bundle bytes, concatenated     # one .mfab bundle per compile shard

Shard bundles are kept separate (rather than re-merged) so live reload
can rebuild one shard and so the loaded engine recombines through the
same :class:`repro.core.sharded.ShardedMFA` layer the batch compiler uses.

Lifetime rules: the *daemon* creates and unlinks segments; workers only
attach and close.  Engines loaded with ``mmap=True`` hold views into the
segment buffer, so a segment must outlive every engine loaded from it —
:meth:`ArtifactSegment.close` tolerates still-exported views (the
mapping then lives until process exit, which is the worker shutdown
path).

Resource-tracker note: workers are spawned by the daemon, so every
process shares the daemon's tracker (its pipe fd is inherited).  A
worker's attach re-registers the same name into the tracker's *set* (a
no-op), a SIGKILLed worker triggers no tracker action (the daemon still
holds the pipe), and the daemon's ``unlink`` unregisters exactly once.
Do NOT "fix" attachments with ``resource_tracker.unregister`` — with a
shared tracker that removes the *daemon's* entry, so a daemon crash
would leak the segment instead of letting the tracker reap it.
"""

from __future__ import annotations

import json
import secrets
import struct
from multiprocessing import shared_memory
from typing import Sequence

from ..core.mfa import MFA
from ..core.serialize import dumps_mfa, loads_mfa

__all__ = [
    "SEGMENT_MAGIC",
    "ArtifactSegment",
    "pack_bundles",
    "unpack_bundles",
    "serialize_engine",
    "load_engine_from_buffer",
]

SEGMENT_MAGIC = b"MFASHMS1\n"


def pack_bundles(bundles: Sequence[bytes], generation: int) -> bytes:
    """Frame shard bundles (plus the generation id) into one segment blob."""
    if not bundles:
        raise ValueError("a segment needs at least one shard bundle")
    spans = []
    offset = 0
    for blob in bundles:
        spans.append({"offset": offset, "length": len(blob)})
        offset += len(blob)
    header = json.dumps(
        {"generation": generation, "shards": spans}, separators=(",", ":")
    ).encode()
    return (
        SEGMENT_MAGIC
        + struct.pack("<I", len(header))
        + header
        + b"".join(bundles)
    )


def unpack_bundles(buffer: "bytes | memoryview") -> tuple[dict, list[memoryview]]:
    """Split a segment blob into its header and zero-copy bundle views."""
    view = memoryview(buffer)
    if bytes(view[: len(SEGMENT_MAGIC)]) != SEGMENT_MAGIC:
        raise ValueError("not an artifact segment (bad magic)")
    offset = len(SEGMENT_MAGIC)
    (header_len,) = struct.unpack_from("<I", view, offset)
    offset += 4
    header = json.loads(bytes(view[offset : offset + header_len]))
    offset += header_len
    views = []
    for span in header["shards"]:
        start = offset + span["offset"]
        part = view[start : start + span["length"]]
        if len(part) != span["length"]:
            raise ValueError("truncated artifact segment")
        views.append(part)
    return header, views


def serialize_engine(engine: object) -> list[bytes]:
    """The per-shard ``.mfab`` bundles of a servable engine.

    Serves only MFA-backed engines: a plain :class:`MFA` is one shard, a
    :class:`~repro.core.sharded.ShardedMFA` contributes one bundle
    per shard.  Fallback engines (Hybrid-FA, NFA) have no serialized
    form, so a degraded shard cannot be served — the error says so
    rather than silently serving the wrong thing.
    """
    if isinstance(engine, MFA):
        return [dumps_mfa(engine)]
    shards = getattr(engine, "shards", None)
    if shards is not None:
        out = []
        for index, shard in enumerate(shards):
            if not isinstance(shard, MFA):
                raise TypeError(
                    f"shard {index} is a {type(shard).__name__}, not an MFA; "
                    "only MFA shards are servable (recompile with a larger "
                    "budget or drop the degraded rules)"
                )
            out.append(dumps_mfa(shard))
        return out
    raise TypeError(f"cannot serve a {type(engine).__name__} engine")


def load_engine_from_buffer(
    buffer: "bytes | memoryview",
    engine: str = "mfa",
    mmap: bool = True,
    prefilter: str = "auto",
) -> object:
    """Build a runnable engine over a segment buffer, copy-free by default.

    ``engine="fastpath"`` wraps each shard in the lockstep batch engine
    (its derived numpy tables are per-process working state, not artifact
    copies); ``prefilter`` ("auto"/"off", default ``auto``) is
    its required-literal prefilter mode.  With ``mmap=True`` the returned
    engine references the buffer — keep the segment open for as long as
    the engine lives.

    Compressed bundles (``MFADFA2`` DFA sections, ``ServeConfig.compress``)
    stay zero-copy in the *segment*: every worker maps the same small
    compressed image and flattens it per-process into private working
    tables, so the shared artifact footprint is the compressed size.
    """
    _header, views = unpack_bundles(buffer)
    mfas = [loads_mfa(view, mmap=mmap) for view in views]
    shards: list[object] = list(mfas)
    if engine == "fastpath":
        from ..fastpath.engine import build_fastpath

        shards = [build_fastpath(mfa, prefilter=prefilter) for mfa in mfas]
    elif engine != "mfa":
        raise ValueError(f"unknown serve engine {engine!r}; have mfa, fastpath")
    if len(shards) == 1:
        return shards[0]
    from ..core.sharded import ShardedMFA

    return ShardedMFA(shards)


class ArtifactSegment:
    """One generation of the rule set, resident in shared memory."""

    def __init__(self, shm: shared_memory.SharedMemory, generation: int, owner: bool):
        self._shm = shm
        self.generation = generation
        self.owner = owner
        self.size = shm.size

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def buffer(self) -> memoryview:
        return self._shm.buf

    @classmethod
    def create(
        cls, bundles: Sequence[bytes], generation: int, name: str | None = None
    ) -> "ArtifactSegment":
        """Pack shard bundles into a fresh named segment (daemon side)."""
        blob = pack_bundles(bundles, generation)
        if name is None:
            name = f"repro-serve-{secrets.token_hex(6)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=len(blob))
        shm.buf[: len(blob)] = blob
        return cls(shm, generation, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ArtifactSegment":
        """Attach to an existing segment by name (worker side)."""
        shm = shared_memory.SharedMemory(name=name)
        header, _views = unpack_bundles(shm.buf)
        return cls(shm, int(header["generation"]), owner=False)

    def load_engine(
        self, engine: str = "mfa", mmap: bool = True, prefilter: str = "auto"
    ) -> object:
        return load_engine_from_buffer(
            self._shm.buf, engine=engine, mmap=mmap, prefilter=prefilter
        )

    def close(self) -> None:
        """Drop this process's mapping (tolerates still-exported views)."""
        try:
            self._shm.close()
        except BufferError:
            # An engine loaded with mmap=True still holds views.  The
            # mapping then lives until the process exits — the normal
            # worker shutdown path — rather than crashing the close.
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; attached mappings stay valid)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass
