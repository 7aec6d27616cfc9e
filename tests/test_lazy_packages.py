"""The lazily exporting packages behave like the eager ones they replaced.

Each check runs in a fresh interpreter, since a name resolves only once
per process: every ``__all__`` name must resolve by ``from … import`` and
by attribute to the same object, ``dir()`` must list it, every submodule
must resolve by attribute, and an unknown name must raise.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LAZY_PACKAGES = ["repro", "repro.core", "repro.serve", "repro.fastpath", "repro.bench"]

CHECK = """
import importlib
import pkgutil
import sys

name = sys.argv[1]
package = importlib.import_module(name)
assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
for export in package.__all__:
    namespace = {}
    exec(f"from {name} import {export} as value", namespace)
    assert getattr(package, export) is namespace["value"], export
    assert export in dir(package), export
for info in pkgutil.iter_modules(package.__path__):
    if not info.name.startswith("_") and info.name not in package.__all__:
        assert getattr(package, info.name) is sys.modules[f"{name}.{info.name}"], info.name
try:
    package.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_in_a_fresh_interpreter(package):
    result = subprocess.run(
        [sys.executable, "-c", CHECK, package],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(ROOT),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_import_repro_loads_no_subpackage():
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('repro'))); "
            "from repro import config; print(config.__name__)",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        cwd=str(ROOT),
        timeout=120,
        check=True,
    )
    assert result.stdout.splitlines() == ["['repro', 'repro._lazy']", "repro.config"]
