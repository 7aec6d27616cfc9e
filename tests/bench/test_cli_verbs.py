"""The analyzer verbs' shared path: one crash path, one gate, one refusal.

``lint``, ``rules``, ``audit`` and ``prove`` share target resolution, the
crash-to-finding path, the output loop and ``--fail-on``.  These cases
hold each verb to that contract: a crash is one ERROR finding under the
verb's ``ESCORTS`` code in the verb's own JSON shape, ``--fail-on
warning`` gates every verb, and a count below 1 is refused before any
analysis runs.
"""

import json

import pytest

import repro.analyze as analyze
from repro.analyze import ESCORTS
from repro.bench.cli import main
from repro.bench.harness import patterns_for
from repro.core import compile_mfa, dumps_mfa


# Where each verb's JSON entry keeps its finding list.
FINDINGS = {
    "lint": ("findings",),
    "rules": ("report", "findings"),
    "audit": ("findings", "findings"),
    "prove": ("findings",),
}


def _findings(verb, entry):
    for key in FINDINGS[verb]:
        entry = entry[key]
    return entry


def _seeded_crash(*args, **kwargs):
    raise RuntimeError("seeded analyzer crash")


# verb, clean argv, the analyzer the verb runs, and its escort
CRASHES = [
    ("lint", ["lint", "C8"], "analyze_mfa", "audit"),
    ("rules", ["rules", "C8"], "analyze_ruleset", "ruleset"),
    ("audit", ["audit", "C8", "--no-replay"], "analyze_adversary", "adversary"),
    ("prove", ["prove", "C8"], "prove_patterns", "prove"),
]


@pytest.mark.parametrize("verb, argv, analyzer, escort", CRASHES)
def test_a_crashed_analyzer_is_one_finding_in_the_verbs_shape(
    monkeypatch, capsys, verb, argv, analyzer, escort
):
    assert main(argv + ["--json"]) == 0
    clean = json.loads(capsys.readouterr().out)["C8"]

    monkeypatch.setattr(analyze, analyzer, _seeded_crash)
    assert main(argv + ["--json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    crashed = json.loads(captured.out)["C8"]
    assert crashed.keys() == clean.keys()
    (finding,) = _findings(verb, crashed)
    assert finding["code"] == ESCORTS[escort][1]
    assert finding["severity"] == "error"
    assert "seeded analyzer crash" in finding["message"]

    assert main(argv) == 1
    assert ESCORTS[escort][1] in capsys.readouterr().out


@pytest.fixture(scope="module")
def bad_bundles(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bad-bundles")
    blob = bytearray(dumps_mfa(compile_mfa(patterns_for("C8"))))
    blob[len(blob) // 2] ^= 0xFF  # one flipped bit in the table
    (directory / "flipped.mfab").write_bytes(bytes(blob))
    (directory / "garbage.mfab").write_bytes(b"not a serialised bundle\n" * 4)
    return directory


@pytest.mark.parametrize("name", ["garbage.mfab", "flipped.mfab"])
def test_audit_of_a_bad_bundle_is_a_finding(bad_bundles, capsys, name):
    path = str(bad_bundles / name)
    assert main(["audit", path, "--no-replay", "--json"]) == 1
    (finding,) = _findings("audit", json.loads(capsys.readouterr().out)[path])
    assert (finding["code"], finding["severity"]) == ("AV100", "error")
    assert main(["audit", path, "--no-replay"]) == 1
    assert "ERROR   AV100 adversary" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "C8", "--no-replay"],  # an AV102 warning
        ["prove", "C8", "--budget", "5"],  # EQ110 bounded-proof warnings
    ],
)
def test_fail_on_warning_gates_every_verb(capsys, argv):
    assert main(argv) == 0
    assert main(argv + ["--fail-on", "warning"]) == 1
    assert main(argv + ["--fail-on", "warning", "--json"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["prove", "C8", "--jobs", "0"],
        ["prove", "C8", "--jobs", "-1"],
        ["prove", "C8", "--budget", "-5"],
        ["prove", "C8", "--budget", "0"],
        ["rules", "C8", "--plan", "--shards", "0"],
        ["rules", "C8", "--plan", "--shards", "-3"],
    ],
)
def test_a_count_below_one_is_refused_before_any_work(monkeypatch, capsys, argv):
    for analyzer in ("prove_patterns", "analyze_ruleset"):
        monkeypatch.setattr(analyze, analyzer, _seeded_crash)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{argv[0]} needs --" in err and "of at least 1" in err


@pytest.mark.parametrize("argv, shards", [([], 4), (["--shards", "1"], 1), (["--shards", "2"], 2)])
def test_rules_plans_for_the_shard_count_asked(capsys, argv, shards):
    assert main(["rules", "C8", "--plan", "--json"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["C8"]["plans"]["shards"] == shards


@pytest.mark.parametrize("command", ["compile", "scan", "rcompile", "rscan", "verify", "serve"])
def test_every_single_set_command_checks_its_set_name(capsys, command):
    for argv in ([command], [command, "no-such-set", "x.pcap"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{command} needs a pattern set name" in err
    assert "unknown set 'no-such-set'" in err
