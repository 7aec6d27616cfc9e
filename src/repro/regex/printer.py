"""Render AST nodes back to pattern text.

The printed form re-parses to an equal tree (tested property-based), which
makes decomposition results inspectable and lets the splitter hand textual
sub-patterns to external tooling.  Output always uses DOTALL conventions:
a full 256-byte class prints as ``.``.
"""

from __future__ import annotations

from .ast import Alt, ClassNode, Concat, Empty, Node, Pattern, Repeat
from .charclass import ALPHABET_SIZE, CharClass

__all__ = ["to_text", "pattern_to_text"]

_CLASS_META = set(b"\\]^-")
_TOP_META = set(b"\\.*+?()[]{}|^$/")
_SIMPLE_ESCAPES = {0x0A: "\\n", 0x09: "\\t", 0x0D: "\\r", 0x0C: "\\f", 0x0B: "\\v", 0x00: "\\0"}


def _show_byte(b: int, in_class: bool) -> str:
    if b in _SIMPLE_ESCAPES:
        return _SIMPLE_ESCAPES[b]
    meta = _CLASS_META if in_class else _TOP_META
    if 0x20 <= b < 0x7F:
        ch = chr(b)
        return f"\\{ch}" if b in meta else ch
    return f"\\x{b:02x}"


def _show_class(klass: CharClass) -> str:
    if klass.is_full():
        return "."
    if len(klass) == 1:
        return _show_byte(klass.min_byte(), in_class=False)
    negated = len(klass) > ALPHABET_SIZE // 2
    body = ~klass if negated else klass
    parts = []
    for lo, hi in body.ranges():
        if lo == hi:
            parts.append(_show_byte(lo, in_class=True))
        elif hi == lo + 1:
            parts.append(_show_byte(lo, in_class=True) + _show_byte(hi, in_class=True))
        else:
            parts.append(f"{_show_byte(lo, in_class=True)}-{_show_byte(hi, in_class=True)}")
    prefix = "^" if negated else ""
    return f"[{prefix}{''.join(parts)}]"


# Precedence levels: alt < cat < repeat < atom.
_PREC_ALT, _PREC_CAT, _PREC_REPEAT, _PREC_ATOM = range(4)


def _prec(node: Node) -> int:
    if isinstance(node, Alt):
        return _PREC_ALT
    if isinstance(node, Concat):
        return _PREC_CAT
    if isinstance(node, Repeat):
        return _PREC_REPEAT
    return _PREC_ATOM


def _render(node: Node, parent_prec: int) -> str:
    text = _render_bare(node)
    if _prec(node) < parent_prec:
        return f"(?:{text})"
    return text


def _render_bare(node: Node) -> str:
    if isinstance(node, Empty):
        return ""
    if isinstance(node, ClassNode):
        return _show_class(node.cls)
    if isinstance(node, Concat):
        return "".join(_render(p, _PREC_CAT) for p in node.parts)
    if isinstance(node, Alt):
        return "|".join(_render(o, _PREC_CAT) for o in node.options)
    if isinstance(node, Repeat):
        child = _render(node.child, _PREC_ATOM)
        lo, hi = node.min, node.max
        if (lo, hi) == (0, None):
            return f"{child}*"
        if (lo, hi) == (1, None):
            return f"{child}+"
        if (lo, hi) == (0, 1):
            return f"{child}?"
        if hi is None:
            return f"{child}{{{lo},}}"
        if lo == hi:
            return f"{child}{{{lo}}}"
        return f"{child}{{{lo},{hi}}}"
    raise TypeError(f"unknown node type: {type(node).__name__}")


def to_text(node: Node) -> str:
    """Render a bare AST node as pattern text."""
    if isinstance(node, Empty):
        return "(?:)"
    return _render_bare(node)


def pattern_to_text(pattern: Pattern) -> str:
    """Render a full :class:`Pattern`, including anchors."""
    body = to_text(pattern.root) if not isinstance(pattern.root, Empty) else ""
    prefix = "^" if pattern.anchored else ""
    suffix = "$" if pattern.end_anchored else ""
    return f"{prefix}{body}{suffix}"
