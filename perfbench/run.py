"""Pcap-to-alert benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ll1-clean --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any flow's alerts differ from the scalar ``MFA`` reference.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def scrub_environment() -> list[str]:
    """Drop every ``REPRO_*`` knob, here and in spawned serve workers."""
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/repro under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(src))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None, help="payload bytes (default: the workload's)")
    args = parser.parse_args(argv)
    scrubbed = scrub_environment()
    use_checkout_source()
    import suite

    return suite.main(ROOT, args, scrubbed)


if __name__ == "__main__":
    sys.exit(main())
