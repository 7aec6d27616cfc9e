"""The scan worker process: attach, scan, heartbeat, swap generations.

A worker owns no artifact — it attaches to the supervisor's shared-memory
segment and builds its engine over zero-copy table views.  The loop is a
strict message protocol on two queues:

inbound (work queue)
    ``("flows", [(flow_id, key, payload), ...])`` — scan one batch of
    reassembled flows with a single ``engine.run_batch`` (every servable
    engine has one: ``MFA``, ``FastPathMFA`` and ``ShardedMFA``);
    ``("reload", segment_name, generation)`` — attach the new segment and
    swap engines (batches queued *before* the marker drained on the old
    generation, which is what makes reload torn-artifact-free);
    ``("stop",)`` — graceful exit.

outbound (this worker's private result pipe)
    ``("ready", worker_id, generation, load_seconds)``;
    ``("done", worker_id, generation, [(flow_id, result, n_bytes), ...],
    seconds)`` — one entry per flow of the batch, where ``result`` is the
    flow's ``[(pos, match_id), ...]`` events or, for a flow whose scan
    raised, the error text;
    ``("reloaded", worker_id, generation)``.

Results are *atomic per batch*: a worker reports a batch only after every
payload in it scanned, so a crash mid-batch loses only messages that were
never sent — the supervisor re-dispatches from its own per-flow ledger
and the aggregate stream stays exactly-once.  An exception poisons only
the flow that raised: a failing batch is rescanned flow by flow.

Liveness is a heartbeat timestamp (updated between batches — never inside
a scan, so a poison-flow infinite loop goes stale and is detected) plus
an ``active_flow`` slot naming the first flow of the batch being scanned,
which is how the supervisor attributes a crash or hang to the batch that
caused it (and, once it has split that batch, to the flow).

Deterministic fault hooks (``faults=True`` in the config, used by the
robustness tests and the soak driver) interpret a magic payload prefix,
per flow, inside the batch scan: ``CRASH`` SIGKILLs the worker, ``HANG``
spins past any heartbeat timeout, ``RAISE`` throws.  They are the
daemon-level analogue of :mod:`repro.robust.faults` and are inert unless
explicitly enabled.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import time

from .shm import ArtifactSegment

__all__ = ["FAULT_PREFIX", "fault_payload", "worker_main"]

# Payload prefix of the deterministic in-band fault hooks.  NUL-led so no
# text rule ever matches it by accident.
FAULT_PREFIX = b"\x00\x00REPRO-FAULT:"

_IDLE_POLL_SECONDS = 0.1


def fault_payload(kind: str, filler: bytes = b"") -> bytes:
    """Build a payload that triggers a worker fault hook (tests/soak)."""
    return FAULT_PREFIX + kind.encode() + b";" + filler


def _maybe_inject_fault(payload: bytes) -> None:
    if not payload.startswith(FAULT_PREFIX):
        return
    kind = payload[len(FAULT_PREFIX) :].split(b";", 1)[0]
    if kind == b"CRASH":
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == b"HANG":
        while True:  # heartbeat goes stale; the supervisor kills us
            time.sleep(0.5)
    if kind == b"RAISE":
        raise RuntimeError("injected fault: poison flow")


def _scan_isolated(engine, payloads: list[bytes], faults: bool) -> list:
    """Per-flow ``[(pos, match_id), ...]`` events, or the error text of a
    flow whose scan raised.

    The whole batch scans in one lockstep call; if that raises, the batch
    is rescanned flow by flow, so only the raising flow is poisoned.
    """
    try:
        if faults:
            for payload in payloads:
                _maybe_inject_fault(payload)
        return [
            [(event.pos, event.match_id) for event in events]
            for events in engine.run_batch(payloads)
        ]
    except Exception as exc:  # noqa: BLE001 - per-flow isolation
        if len(payloads) == 1:
            return [f"{type(exc).__name__}: {exc}"]
        return [_scan_isolated(engine, [payload], faults)[0] for payload in payloads]


def worker_main(
    worker_id: int,
    segment_name: str,
    generation: int,
    work_queue,
    result_conn,
    heartbeat,
    active_flow,
    config: dict,
) -> None:
    """Entry point of one worker process (spawned by the supervisor)."""
    # The supervisor owns shutdown; a stray ^C in the parent's terminal —
    # or a SIGTERM delivered to the whole process group, which is what
    # systemd and `timeout` do — must not kill workers before their
    # queues drain.  Workers exit on the in-band ("stop",) marker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    engine_kind = config.get("engine", "mfa")
    prefilter = config.get("prefilter", "auto")
    faults = bool(config.get("faults", False))

    tick = time.perf_counter()
    segment = ArtifactSegment.attach(segment_name)
    engine = segment.load_engine(engine_kind, prefilter=prefilter)
    load_seconds = time.perf_counter() - tick
    heartbeat[worker_id] = time.time()
    active_flow[worker_id] = -1
    result_conn.send(("ready", worker_id, generation, load_seconds))

    while True:
        try:
            item = work_queue.get(timeout=_IDLE_POLL_SECONDS)
        except queue_module.Empty:
            heartbeat[worker_id] = time.time()
            continue
        kind = item[0]
        if kind == "stop":
            break
        if kind == "reload":
            _, new_name, new_generation = item
            new_segment = ArtifactSegment.attach(new_name)
            # Load the new engine *before* dropping the old one — a bad
            # segment must not leave the worker engineless.  Swap order
            # matters after that: release the old engine (and its table
            # views) before closing the old segment, so the close is a
            # real detach rather than a leaked mapping; the dels keep no
            # stray local alive holding buffer views.
            engine = new_segment.load_engine(engine_kind, prefilter=prefilter)
            old_segment, segment = segment, new_segment
            del new_segment
            generation = new_generation
            old_segment.close()
            del old_segment
            heartbeat[worker_id] = time.time()
            result_conn.send(("reloaded", worker_id, generation))
            continue
        _, batch = item
        heartbeat[worker_id] = time.time()
        active_flow[worker_id] = batch[0][0]
        tick = time.perf_counter()
        results = _scan_isolated(engine, [payload for _, _, payload in batch], faults)
        seconds = time.perf_counter() - tick
        active_flow[worker_id] = -1
        heartbeat[worker_id] = time.time()
        result_conn.send(
            (
                "done",
                worker_id,
                generation,
                [
                    (flow_id, result, len(payload))
                    for (flow_id, _key, payload), result in zip(batch, results)
                ],
                seconds,
            )
        )

    engine = None  # release table views before detaching
    segment.close()
    result_conn.close()
