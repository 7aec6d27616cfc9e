"""Tests for the benchmark itself, at a tiny input size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import drive  # noqa: E402
import inputs  # noqa: E402
import suite  # noqa: E402
from repro.core import compile_mfa  # noqa: E402
from repro.fastpath import build_fastpath  # noqa: E402
from repro.robust import resilient_scan  # noqa: E402
from repro.serve import canonical_stream, serve_scan  # noqa: E402
from repro.traffic import replay  # noqa: E402
from repro.traffic.flows import FlowMatch  # noqa: E402

TINY = 20_000


@pytest.fixture(scope="module")
def ll1():
    workload = inputs.WORKLOADS["ll1-clean"]
    blob = inputs.capture(ROOT, workload, 3, TINY)
    packets, flows = inputs.decode(blob)
    mfa = compile_mfa(inputs.rules_of(workload))
    return workload, blob, packets, flows, mfa


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(suite.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(suite.PER_LAYER)


@pytest.mark.parametrize(
    "workload, trace", [("ll1-clean", 0), ("ll1-clean", 1), ("becchi-hostile", 0)]
)
def test_every_metric_prints_with_its_unit(workload, trace):
    size = TINY if workload == "ll1-clean" else 2 * inputs.HOSTILE_FLOW
    out = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", str(trace), "--size", str(size))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    table = suite.PER_LAYER if trace else suite.END_TO_END
    ungated = dict(suite.UNGATED) if not trace else {"failed_frac": "ratio"}
    assert printed == {**dict(table), **ungated}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(table)


def test_traced_steps_give_the_public_calls_streams(ll1):
    workload, blob, packets, _flows, mfa = ll1
    engine = build_fastpath(mfa)
    tracer = drive.Tracer()
    expected = canonical_stream(resilient_scan(engine, blob, batch_size=drive.BATCH)[0])
    assert canonical_stream(drive.traced_inprocess(engine, blob, tracer)) == expected

    plain = replay(engine, packets, batch_size=drive.BATCH)
    traced = replay(drive.TracedEngine(engine, tracer), packets, batch_size=drive.BATCH)
    assert traced.alerts == plain.alerts
    assert tracer.count(0, "engine.feed_batch") > 0

    daemon, _seconds = drive.start_daemon(inputs.rules_of(workload))
    try:
        served = canonical_stream(serve_scan(daemon, blob)[0])
        start = len(daemon.alerts)
        tracer.new_run()
        traced_served = canonical_stream(drive.traced_serve(daemon, blob, tracer))
        assert len(daemon.alerts) - start == len(traced_served)
    finally:
        drive.stop_daemon(daemon)
    assert served == expected
    assert traced_served == expected
    selfs = tracer.self_times(tracer.run)
    assert {"scan", "pcap.decode", "flows.add", "serve.submit", "serve.drain"} <= set(selfs)


def test_self_time_subtracts_children():
    tracer = drive.Tracer()
    run = tracer.new_run()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    tracer.spans[outer][1:3] = [0, 10_000]
    tracer.spans[inner][1:3] = [2_000, 5_000]
    assert tracer.self_times(run) == {"outer": 7e-6, "inner": 3e-6}


def test_perturbed_stream_makes_failed_frac_positive(ll1, monkeypatch, capsys):
    _workload, blob, _packets, _flows, mfa = ll1
    alerts = resilient_scan(mfa, blob)[0]
    assert alerts, "the tiny capture must alert for this test to bite"
    reference = inputs.by_flow(alerts)
    assert inputs.mismatched_flows(reference, alerts) == 0
    first = alerts[0]
    shifted = [FlowMatch(first.key, type(first.event)(first.event.pos + 1, first.event.match_id))]
    assert inputs.mismatched_flows(reference, shifted + alerts[1:]) == 1

    monkeypatch.setattr(
        drive, "reference", lambda _mfa, _blob: inputs.by_flow(shifted + alerts[1:])
    )
    args = argparse.Namespace(workload="ll1-clean", seed=3, seconds=0.1, trace=0, size=TINY)
    assert suite.main(ROOT, args, []) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    failed_frac = next(float(l.split()[2]) for l in lines if l.startswith("metric failed_frac "))
    assert failed_frac > 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_capture_depends_only_on_the_seed(tmp_path):
    workload = inputs.WORKLOADS["becchi-hostile"]
    size = 2 * inputs.HOSTILE_FLOW
    first = inputs.capture(tmp_path / "a", workload, 5, size)
    again = inputs.capture(tmp_path / "b", workload, 5, size)
    other = inputs.capture(tmp_path / "a", workload, 6, size)
    assert first == again
    assert first != other
    assert inputs.capture(tmp_path / "a", workload, 5, size) == first  # from the cached pool


def test_corpus_seeds_differ_only_in_flow_order(tmp_path):
    workload = inputs.WORKLOADS["ll1-clean"]
    first = inputs.capture(tmp_path, workload, 5, TINY)
    other = inputs.capture(tmp_path, workload, 6, TINY)
    assert first != other
    flows = [sorted((f.key, f.payload) for f in inputs.decode(blob)[1]) for blob in (first, other)]
    assert flows[0] == flows[1]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "ll1-clean", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
