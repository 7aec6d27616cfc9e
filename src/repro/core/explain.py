"""Human-readable compilation reports.

Operators need to see what the splitter did to their rules: which patterns
decomposed into which components, which were refused and why, how much
filter memory each flow will carry, and where the automaton's states come
from.  ``explain(mfa)`` renders exactly that (it backs the ``mfa-bench
compile`` command and the examples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..regex.printer import pattern_to_text

if TYPE_CHECKING:
    from .mfa import MFA

__all__ = ["PatternReport", "explain", "explain_lines"]


@dataclass(frozen=True, slots=True)
class PatternReport:
    """How one original pattern was compiled."""

    match_id: int
    n_components: int
    component_texts: tuple[str, ...]
    decomposed: bool


def explain(mfa: MFA) -> list[PatternReport]:
    """Per-original-pattern compilation summary."""
    split = mfa.split
    by_id = {c.match_id: c for c in split.components}
    reports = []
    for original_id, component_ids in sorted(split.component_ids.items()):
        texts = tuple(
            pattern_to_text(by_id[cid]) for cid in component_ids if cid in by_id
        )
        reports.append(
            PatternReport(
                match_id=original_id,
                n_components=len(component_ids),
                component_texts=texts,
                decomposed=len(component_ids) > 1,
            )
        )
    return reports


def explain_lines(mfa: MFA) -> list[str]:
    """The full report as printable lines."""
    stats = mfa.stats()
    lines = [
        f"component DFA: {mfa.n_states} states "
        f"({mfa.dfa.memory_bytes() / 1e6:.2f} MB modelled image)",
        f"filter: {mfa.width} bits + {mfa.program.n_registers} offset register(s) "
        f"per flow; {len(mfa.program.actions)} actions "
        f"({mfa.filter_bytes()} B, "
        f"{100 * mfa.filter_bytes() / max(1, mfa.memory_bytes()):.3f}% of image)",
        f"splits: {stats.n_dot_star} dot-star, {stats.n_almost_dot_star} "
        f"almost-dot-star, {stats.n_counted} counted-gap, "
        f"{stats.n_offset_rescues} offset-rescued",
        f"refusals: {stats.n_refused_overlap} overlap, {stats.n_refused_class} "
        f"class-conflict, {stats.n_refused_nullable} nullable, "
        f"{stats.n_refused_counted} counted",
        "",
    ]
    for report in explain(mfa):
        if report.decomposed:
            lines.append(
                f"pattern {{{{{report.match_id}}}}} -> {report.n_components} components:"
            )
            for text in report.component_texts:
                lines.append(f"    {text}")
        else:
            suffix = f" ({report.component_texts[0]})" if report.component_texts else ""
            lines.append(f"pattern {{{{{report.match_id}}}}} compiled intact{suffix}")
    if mfa.program.actions:
        lines.append("")
        lines.append("filter program:")
        for line in mfa.program.describe():
            lines.append(f"    {line}")
    return lines
