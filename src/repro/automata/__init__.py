"""Automata substrates: NFA, DFA (+minimization), and the HFA/XFA baselines."""

from .compress import CompressedDFA, compress_dfa
from .dfa import DFA, DEFAULT_STATE_BUDGET, DfaExplosionError, build_dfa, build_dfa_from_nfa
from .hfa import HFA, build_hfa
from .hybridfa import HybridFA, build_hybrid_fa
from .mdfa import MDFA, build_mdfa
from .memory import ImageSize, format_mb, image_size
from .minimize import minimize_dfa
from .nfa import NFA, MatchEvent, build_nfa
from .serialize import dumps_dfa, load_dfa, loads_dfa, save_dfa
from .shiftand import ShiftAndMatcher, build_shift_and, linearize
from .xfa import XFA, build_xfa

__all__ = [
    "CompressedDFA",
    "compress_dfa",
    "DFA",
    "DEFAULT_STATE_BUDGET",
    "DfaExplosionError",
    "build_dfa",
    "build_dfa_from_nfa",
    "HFA",
    "build_hfa",
    "HybridFA",
    "build_hybrid_fa",
    "ImageSize",
    "format_mb",
    "image_size",
    "MDFA",
    "build_mdfa",
    "minimize_dfa",
    "NFA",
    "MatchEvent",
    "build_nfa",
    "dumps_dfa",
    "load_dfa",
    "loads_dfa",
    "save_dfa",
    "ShiftAndMatcher",
    "build_shift_and",
    "linearize",
    "XFA",
    "build_xfa",
]
