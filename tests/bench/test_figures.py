"""Formatting-level tests for figure/table rendering (no engine builds)."""

import repro.bench.figures as figures_module
from repro.automata.memory import ImageSize, format_mb, image_size
from repro.bench.figures import ThroughputPoint, fig3_rows, fig4_rows, fig5_rows
from repro.bench.harness import BuildResult


class TestMemoryFormatting:
    def test_format_mb_bands(self):
        assert format_mb(250_000_000) == "250"
        assert format_mb(4_200_000) == "4.2"
        assert format_mb(50_000) == "0.05"

    def test_image_size_fraction(self):
        size = ImageSize(total_bytes=1000, filter_bytes=2)
        assert size.filter_fraction == 0.002
        assert ImageSize(0, 0).filter_fraction == 0.0
        assert size.megabytes == 0.001

    def test_image_size_probe(self):
        class WithFilter:
            def memory_bytes(self):
                return 100

            def filter_bytes(self):
                return 7

        class Plain:
            def memory_bytes(self):
                return 50

        assert image_size(WithFilter()).filter_bytes == 7
        assert image_size(Plain()).filter_bytes == 0


class TestFig3Formatting:
    def test_failure_cell_names_the_budget(self, monkeypatch):
        def fake_build(set_name, engine_name):
            if engine_name == "dfa":
                return BuildResult(set_name, engine_name, None, 9.4, "exceeded", "states")
            return BuildResult(set_name, engine_name, object(), 0.5)

        monkeypatch.setattr(figures_module, "ruleset_names", lambda: ["B217p"])
        monkeypatch.setattr(figures_module, "build_engine", fake_build)
        header, rule, row = fig3_rows()
        assert row.split() == ["B217p", "0.50", "fail:states@9s", "0.50", "0.50"]
        assert len(header) == len(rule) == len(row)


def _points():
    out = []
    for set_name in ("C7p", "S24"):
        for trace in ("LL1", "C112", "N"):
            for engine, cpb in (("dfa", 20.0), ("mfa", 50.0), ("xfa", 120.0), ("nfa", 130.0), ("hfa", 360.0)):
                value = cpb * (3 if trace == "C112" and engine == "mfa" else 1)
                out.append(ThroughputPoint(set_name, trace, engine, value))
    out.append(ThroughputPoint("B217p", "LL1", "dfa", None))
    return out


class TestFig4Rows:
    def test_rows_include_every_pair(self):
        rows = fig4_rows(_points())
        body = "\n".join(rows)
        assert "C7p" in body and "S24" in body
        assert "mean dfa" in body and "mean hfa" in body

    def test_unbuildable_engine_shows_dash(self):
        rows = fig4_rows(_points())
        b217p_line = next(r for r in rows if r.startswith("B217p") and "dfa" in r)
        assert "-" in b217p_line

    def test_headline_excludes_c112(self):
        rows = fig4_rows(_points())
        headline = next(r for r in rows if r.startswith("MFA vs XFA"))
        # mfa=50 vs xfa=120 excluding C112 -> 58% faster.
        assert "58% faster" in headline


class TestFig5Rows:
    def test_series_layout(self):
        points = [
            ThroughputPoint("C10", label, engine, cpb)
            for label, scale in (("rand", 1.0), ("0.95", 2.0))
            for engine, cpb in (("dfa", 20.0), ("mfa", 30.0))
            for cpb in (cpb * scale,)
        ]
        rows = fig5_rows(points)
        body = "\n".join(rows)
        assert "rand" in rows[0] and "0.95" in rows[0]
        assert "degradation rand -> 0.95 = 2.00x" in body
