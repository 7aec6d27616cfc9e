"""Match Filtering Automata — reproduction of Norige & Liu, ICDCS 2016.

A de-compositional regular-expression matching library for network
security: complex patterns are split into DFA-friendly components whose
raw matches a tiny stateful filter engine post-processes into exact
matches of the original patterns.

Quickstart::

    import repro

    mfa = repro.compile_mfa([".*cmd\\.exe.*system32", ".*user=[^\\n]*root"])
    for match in mfa.run(payload):
        print(match.pos, match.match_id)

``import repro`` loads nothing else: each public name (and each
subpackage) is imported on first use, see :mod:`repro._lazy`.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "automata": (
            "DFA",
            "HFA",
            "NFA",
            "XFA",
            "DfaExplosionError",
            "MatchEvent",
            "build_dfa",
            "build_hfa",
            "build_nfa",
            "build_xfa",
            "minimize_dfa",
        ),
        "core": (
            "MFA",
            "FilterAction",
            "FilterEngine",
            "FilterProgram",
            "FlowContext",
            "SplitterOptions",
            "build_mfa",
            "compile_dfa",
            "compile_mfa",
            "compile_nfa",
            "split_patterns",
            "verify_equivalence",
        ),
        "fastpath": (
            "ArtifactCache",
            "FastPathMFA",
            "build_fastpath",
        ),
        "regex": ("CharClass", "Pattern", "RegexSyntaxError", "parse", "parse_many"),
        "robust": (
            "CompileLimits",
            "CompileReport",
            "ResilientCompiler",
            "ScanLimits",
            "compile_resilient",
            "resilient_scan",
        ),
    },
)
__all__.append("__version__")
