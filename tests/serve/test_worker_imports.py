"""A spawned serve worker imports the scan path and nothing else.

Every worker start, crash respawn included, pays for what the worker
imports, and every worker holds it in memory.  The gate runs the real
``worker_main`` in a fresh spawned interpreter, over a one-shard and a
two-shard segment with the fastpath engine, and then reads that
interpreter's ``sys.modules``.
"""

import multiprocessing

import pytest

from repro.core import compile_mfa
from repro.serve import ScanDaemon, ServeConfig
from repro.serve.shm import ArtifactSegment, serialize_engine
from repro.serve.worker import worker_main

RULES = [".*alpha.*omega", "beta[0-9]+"]
PAYLOAD = b"alpha then omega, beta42"

# Compile-side, daemon-side and tooling modules a worker never needs.
FORBIDDEN = (
    "repro.core.compiler",
    "repro.fastcompile",
    "repro.fastpath.cache",
    "repro.serve.daemon",
    "repro.serve.control",
    "repro.traffic",
    "repro.robust",
    "repro.analyze",
    "repro.bench",
)

# Runs in the spawned interpreter: one batch, then the stop marker, then
# report what was imported.
WORKER = """
import sys

from repro.serve.worker import worker_main

worker_main(0, segment_name, 1, work, result, heartbeat, active_flow, {"engine": "fastpath"})
modules.send(sorted(sys.modules))
"""


@pytest.mark.parametrize("shards", [1, 2])
def test_spawned_worker_imports_only_the_scan_path(shards):
    mfa = compile_mfa(RULES, shards=shards)
    assert getattr(mfa, "n_shards", 1) == shards
    ctx = multiprocessing.get_context("spawn")
    segment = ArtifactSegment.create(serialize_engine(mfa), generation=1)
    work = ctx.Queue()
    result_recv, result_send = ctx.Pipe(duplex=False)
    modules_recv, modules_send = ctx.Pipe(duplex=False)
    work.put(("flows", [(7, None, PAYLOAD)]))
    work.put(("stop",))
    namespace = {
        "segment_name": segment.name,
        "work": work,
        "result": result_send,
        "modules": modules_send,
        "heartbeat": ctx.Array("d", 1, lock=False),
        "active_flow": ctx.Array("q", 1, lock=False),
    }
    process = ctx.Process(target=exec, args=(WORKER, namespace), daemon=True)
    try:
        process.start()
        result_send.close()
        modules_send.close()
        assert result_recv.poll(60)
        assert result_recv.recv()[0] == "ready"
        assert result_recv.poll(60)
        kind, _worker, _generation, results, _seconds = result_recv.recv()
        assert kind == "done"
        expected = [(event.pos, event.match_id) for event in mfa.run(PAYLOAD)]
        assert expected and results == [(7, expected, len(PAYLOAD))]
        assert modules_recv.poll(60)
        modules = modules_recv.recv()
        process.join(timeout=30)
        assert not process.is_alive() and process.exitcode == 0
    finally:
        if process.is_alive():
            process.kill()
            process.join(timeout=5)
        work.close()
        segment.close()
        segment.unlink()
    assert "repro.fastpath.engine" in modules
    leaked = [
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in FORBIDDEN)
    ]
    assert leaked == []


def test_daemon_spawns_the_worker_entry_point(monkeypatch):
    daemon = ScanDaemon(RULES, config=ServeConfig(workers=1))
    spawn = daemon._ctx.Process
    targets = []

    def recording_process(*args, target=None, **kwargs):
        targets.append(target)
        return spawn(*args, target=target, **kwargs)

    monkeypatch.setattr(daemon._ctx, "Process", recording_process)
    with daemon:
        pass
    assert targets == [worker_main]
