"""Benchmark harness: engine caches, measurement, table/figure generation.

Names resolve on first use (see :mod:`repro._lazy`): ``bench.harness``
reads the exhibit knobs when it is imported, so ``mfa-bench`` must be
able to check its configuration before anything imports it.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "plots": ("bar_chart", "line_chart"),
        "sweep": ("ExplosionPoint", "explosion_rows", "explosion_sweep"),
        "harness": (
            "ENGINES",
            "BuildResult",
            "build_engine",
            "measure_run_cpb",
            "patterns_for",
            "real_trace_flows",
            "results_dir",
            "synthetic_payload",
            "write_table",
        ),
    },
)
