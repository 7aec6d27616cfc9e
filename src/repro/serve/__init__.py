"""The long-lived scan service: shared artifacts, supervised workers.

``repro.serve`` turns the batch pipeline into a daemon: the compiled
rule set lives in one shared-memory segment that N supervised worker
processes map copy-free, ingress is bounded with explicit backpressure,
worker death/hang is detected and restarted with backoff (the offending
flow quarantined), and rules reload live — only changed shards
recompile, and the artifact generation swaps without a torn read.
Health is a :class:`ServeReport`, queryable over a control socket.

Names resolve on first use, so a worker that imports
:mod:`repro.serve.worker` loads neither the daemon nor the compiler.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "daemon": ("ScanDaemon", "ServeConfig", "serve_scan"),
        "control": ("ControlServer", "control_request"),
        "report": ("ServeReport", "WorkerStats", "ReloadEvent", "canonical_stream"),
        "shm": ("ArtifactSegment", "pack_bundles", "unpack_bundles", "serialize_engine"),
        "worker": ("FAULT_PREFIX", "fault_payload"),
    },
)
