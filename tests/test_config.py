"""The one configuration surface: every ``REPRO_*`` variable, one table.

The env cases of the limits, escort and cache suites exercise each knob's
meaning; this suite holds the table itself to its contract: it is the only
reader of ``REPRO_*`` variables, the docs list exactly its names, and a
malformed value of any of them fails early, naming the variable.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import config
from repro.bench.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
KNOB_NAME = re.compile(r"\bREPRO_[A-Z][A-Z_]*")

# One malformed value per variable; the two directory knobs get a path at or
# below a regular file.
MALFORMED = {
    "REPRO_STATE_BUDGET": "0",
    "REPRO_BUDGET_SCHEDULE": "200,100",
    "REPRO_DFA_TIME_BUDGET": "-1",
    "REPRO_FALLBACK_CHAIN": "mfa,zfa",
    "REPRO_COMPILE_ESCORTS": "proof",
    "REPRO_MAX_FLOWS": "0",
    "REPRO_MAX_FLOW_BYTES": "-1",
    "REPRO_MAX_FLOW_SEGS": "many",
    "REPRO_COMPILE_CACHE": "no",
    "REPRO_CACHE_DIR": "file/cache",
    "REPRO_RESULTS_DIR": "file",
    "REPRO_TRACE_SCALE": "0",
}


def test_twelve_knobs():
    assert len(config.KNOBS) == 12
    assert set(MALFORMED) == set(config.KNOBS)


def _is_environ(node):
    return isinstance(node, ast.Attribute) and node.attr == "environ" or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _environ_keys(tree):
    """The key of every ``environ[...]``, ``environ.get(...)`` or ``getenv(...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            yield node, node.slice
        elif isinstance(node, ast.Call):
            func = node.func
            getter = isinstance(func, ast.Attribute) and (
                func.attr == "getenv" or func.attr in ("get", "pop") and _is_environ(func.value)
            )
            if getter or isinstance(func, ast.Name) and func.id == "getenv":
                yield node, node.args[0] if node.args else None


def test_only_config_reads_repro_variables():
    # Outside config.py an environment read must name a constant variable,
    # and never a REPRO_* one (XDG_CACHE_HOME in fastpath.cache is allowed).
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "config.py":
            continue
        for node, key in _environ_keys(ast.parse(path.read_text())):
            name = key.value if isinstance(key, ast.Constant) else None
            if not isinstance(name, str) or name.startswith("REPRO_"):
                readers.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert readers == []


def test_robustness_knob_table_lists_every_knob():
    text = (ROOT / "docs" / "robustness.md").read_text()
    rows = [line for line in text.splitlines() if line.startswith("|")]
    assert set(config.KNOBS) <= set(KNOB_NAME.findall("\n".join(rows)))


def test_docs_name_only_knobs():
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "benchmarks" / "README.md"]
    docs += sorted((ROOT / "docs").glob("*.md"))
    named = {name for path in docs for name in KNOB_NAME.findall(path.read_text())}
    assert named <= set(config.KNOBS), sorted(named - set(config.KNOBS))


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_value_names_the_variable(name, tmp_path):
    value = MALFORMED[name]
    if value.startswith("file"):
        (tmp_path / "file").write_text("")
        value = str(tmp_path / value)
    environ = {name: value}
    with pytest.raises(ValueError, match=name):
        config.knob(name, environ)
    with pytest.raises(ValueError, match=name):
        config.check(environ)


def test_empty_value_means_unset():
    # Every knob but the escorts reads an empty value as its default ...
    empty = {name: "" for name in config.KNOBS}
    for name, (_parser, default) in config.KNOBS.items():
        if name != "REPRO_COMPILE_ESCORTS":
            assert config.knob(name, empty) == default
    # ... and the escorts read it as none.
    assert config.knob("REPRO_COMPILE_ESCORTS", empty) == frozenset()
    assert config.check(empty) is None


def test_cli_fails_before_compiling(monkeypatch, capsys):
    import repro.bench.harness as harness

    def compile_anyway(set_name):
        raise AssertionError(f"compiled {set_name} under a malformed variable")

    monkeypatch.setattr(harness, "build_resilient", compile_anyway)
    monkeypatch.setenv("REPRO_MAX_FLOWS", "0")
    with pytest.raises(SystemExit) as exit_info:
        main(["rcompile", "C8"])
    assert exit_info.value.code != 0
    assert "REPRO_MAX_FLOWS='0'" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["REPRO_TRACE_SCALE", "REPRO_STATE_BUDGET", "REPRO_DFA_TIME_BUDGET"])
def test_exhibit_knob_fails_before_the_harness_loads(name):
    # bench.harness reads these three when it is imported, so only a fresh
    # interpreter shows whether the CLI checked them first.
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench.cli", "lint", "C8"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent), name: MALFORMED[name]},
        cwd=str(ROOT),
        timeout=120,
    )
    assert result.returncode == 2
    assert f"{name}={MALFORMED[name]!r}" in result.stderr
    assert "Traceback" not in result.stderr
