"""The finding-code registry in the docs must cover every emitted code.

``docs/static-analysis.md`` promises "the full registry" — operators
triage CI gate failures by looking codes up there.  A code emitted by
any analyzer under ``src/repro/analyze`` that has no registry row is
documentation drift, and this test is the tripwire: it fails naming the
undocumented codes the moment one lands.
"""

import re
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[2]
_ANALYZE_DIR = _REPO_ROOT / "src" / "repro" / "analyze"
_REGISTRY = _REPO_ROOT / "docs" / "static-analysis.md"

# Codes appear in source as string literals ("AV101") — pulling them
# from quotes rather than AnalysisReport.add() call sites also catches
# codes routed through helpers or emitted by the CLI wrappers.
_CODE_IN_SOURCE = re.compile(r"""["']((?:BN|FB|AU|DS|EX|EQ|AV|RS)\d{3})["']""")


def _emitted_codes() -> set[str]:
    codes: set[str] = set()
    for path in sorted(_ANALYZE_DIR.glob("*.py")):
        codes.update(_CODE_IN_SOURCE.findall(path.read_text()))
    return codes


def test_analyzer_sources_emit_codes():
    codes = _emitted_codes()
    assert len(codes) > 20  # the suite emits dozens; zero means the regex broke
    assert "AV102" in codes and "EQ101" in codes and "RS101" in codes


def test_every_emitted_code_has_a_registry_row():
    registry = _REGISTRY.read_text()
    documented = {
        match.group(1)
        for match in re.finditer(
            r"^\|\s*((?:BN|FB|AU|DS|EX|EQ|AV|RS)\d{3})\s*\|", registry, re.MULTILINE
        )
    }
    undocumented = sorted(_emitted_codes() - documented)
    assert not undocumented, (
        f"finding codes emitted under src/repro/analyze but missing from "
        f"docs/static-analysis.md: {undocumented}"
    )
