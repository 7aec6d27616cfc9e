"""The paper's contribution: splitter, filter engine, and the MFA.

Names resolve on first use (see :mod:`repro._lazy`), so loading a
serialized MFA does not import the compiler.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bpmfa": ("BitParallelMFA", "build_bp_mfa"),
        "explain": ("PatternReport", "explain", "explain_lines"),
        "compiler": (
            "LintError",
            "ProofError",
            "compile_dfa",
            "compile_mfa",
            "compile_nfa",
            "compile_patterns",
        ),
        "filters": ("FilterAction", "FilterEngine", "FilterProgram", "FilterState"),
        "mfa": ("MFA", "FlowContext", "build_mfa"),
        "serialize": ("dumps_mfa", "load_mfa", "loads_mfa", "save_mfa"),
        "splitter": ("SplitResult", "SplitStats", "SplitterOptions", "split_patterns"),
        "verify": ("VerificationReport", "reference_matches", "verify_equivalence"),
    },
)

# ``explain`` names both a submodule and its function.  Importing the
# submodule binds the module object over the package attribute, which a
# lazy export could not win back, so the function is bound up front.
from .explain import explain as explain  # noqa: E402
