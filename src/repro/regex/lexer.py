"""Tokenizer for the supported PCRE subset.

The lexer does all character-level work — escape sequences, character
classes (including ranges and negation), ``{m,n}`` counted repetitions —
and hands the parser a flat token stream.  Splitting lexing from parsing
keeps each side simple and lets the tests exercise escape handling in
isolation.

Supported syntax (the subset used by Snort/Bro-style security rules):

* literal bytes (patterns are latin-1, i.e. byte-transparent)
* ``\\n \\t \\r \\f \\v \\0 \\a \\e \\xHH`` and identity escapes
* class escapes ``\\d \\D \\w \\W \\s \\S``
* ``.`` (DOTALL by default; see :class:`LexerOptions`)
* ``[...]`` / ``[^...]`` with ranges and escapes
* ``* + ?`` and ``{n} {n,} {n,m}``
* ``( ... )`` and ``(?: ... )``
* ``|`` alternation, ``^`` / ``$`` anchors
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from . import charclass as cc
from .charclass import CharClass

__all__ = ["TokenKind", "Token", "LexerOptions", "Lexer", "RegexSyntaxError"]


class RegexSyntaxError(ValueError):
    """Raised on malformed pattern text, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class TokenKind(enum.Enum):
    CHAR = "char"          # value: byte int
    CLASS = "class"        # value: CharClass
    DOT = "dot"
    STAR = "star"
    PLUS = "plus"
    QMARK = "qmark"
    REPEAT = "repeat"      # value: (min, max|None)
    LPAREN = "lparen"      # value: True if capturing
    RPAREN = "rparen"
    PIPE = "pipe"
    CARET = "caret"
    DOLLAR = "dollar"
    EOF = "eof"


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    pos: int
    value: object = None


@dataclass(frozen=True, slots=True)
class LexerOptions:
    """Lexing behaviour knobs.

    ``dotall`` makes ``.`` match every byte including newline — the default
    here because DPI patterns operate on raw payloads, matching the paper's
    treatment of ``.*``.  ``ignore_case`` folds ASCII letters in literals and
    classes.
    """

    dotall: bool = True
    ignore_case: bool = False

    @property
    def dot_class(self) -> CharClass:
        if self.dotall:
            return CharClass.full()
        return ~CharClass.single(ord("\n"))


_SIMPLE_ESCAPES = {
    ord("n"): ord("\n"),
    ord("t"): ord("\t"),
    ord("r"): ord("\r"),
    ord("f"): ord("\f"),
    ord("v"): ord("\v"),
    ord("0"): 0,
    ord("a"): 7,
    ord("e"): 27,
}

_CLASS_ESCAPES = {
    ord("d"): cc.DIGITS,
    ord("D"): ~cc.DIGITS,
    ord("w"): cc.WORD,
    ord("W"): ~cc.WORD,
    ord("s"): cc.SPACE,
    ord("S"): ~cc.SPACE,
}

_METACHARS = {
    ord("."): TokenKind.DOT,
    ord("*"): TokenKind.STAR,
    ord("+"): TokenKind.PLUS,
    ord("?"): TokenKind.QMARK,
    ord(")"): TokenKind.RPAREN,
    ord("|"): TokenKind.PIPE,
    ord("^"): TokenKind.CARET,
    ord("$"): TokenKind.DOLLAR,
}


def _fold_case(klass: CharClass) -> CharClass:
    """Add the opposite-case twin of every ASCII letter in the class."""
    extra = []
    for b in klass:
        if ord("a") <= b <= ord("z"):
            extra.append(b - 32)
        elif ord("A") <= b <= ord("Z"):
            extra.append(b + 32)
    if not extra:
        return klass
    return klass | CharClass(extra)


class Lexer:
    """Single-pass tokenizer over pattern text."""

    def __init__(self, text: str, options: LexerOptions | None = None):
        self.options = options or LexerOptions()
        self._data = text.encode("latin-1")
        self._pos = 0

    def tokens(self) -> list[Token]:
        """Tokenize the whole input, ending with an EOF token."""
        out: list[Token] = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out

    # -- internals ----------------------------------------------------------

    def _error(self, message: str) -> RegexSyntaxError:
        return RegexSyntaxError(message, self._pos)

    def _peek(self) -> Optional[int]:
        if self._pos < len(self._data):
            return self._data[self._pos]
        return None

    def _take(self) -> int:
        b = self._peek()
        if b is None:
            raise self._error("unexpected end of pattern")
        self._pos += 1
        return b

    def _next_token(self) -> Token:
        start = self._pos
        b = self._peek()
        if b is None:
            return Token(TokenKind.EOF, start)
        self._pos += 1
        kind = _METACHARS.get(b)
        if kind is not None:
            return Token(kind, start)
        if b == ord("("):
            return Token(TokenKind.LPAREN, start, self._lex_group_open())
        if b == ord("{"):
            return self._lex_brace(start)
        if b == ord("["):
            return Token(TokenKind.CLASS, start, self._lex_class())
        if b == ord("\\"):
            return self._lex_escape(start)
        return self._char_token(start, b)

    def _char_token(self, start: int, b: int) -> Token:
        if self.options.ignore_case and (65 <= b <= 90 or 97 <= b <= 122):
            return Token(TokenKind.CLASS, start, _fold_case(CharClass.single(b)))
        return Token(TokenKind.CHAR, start, b)

    def _lex_group_open(self) -> bool:
        """Consume an optional ``?:`` after ``(``; returns capturing flag."""
        if self._peek() == ord("?"):
            self._pos += 1
            nxt = self._peek()
            if nxt == ord(":"):
                self._pos += 1
                return False
            raise self._error("only (?: ... ) groups are supported after (?")
        return True

    def _lex_brace(self, start: int) -> Token:
        """Lex ``{n}``, ``{n,}`` or ``{n,m}``; a bare ``{`` is a literal."""
        save = self._pos
        digits = self._lex_digits()
        if digits is None:
            self._pos = save
            return self._char_token(start, ord("{"))
        lo = digits
        hi: Optional[int] = lo
        if self._peek() == ord(","):
            self._pos += 1
            hi = self._lex_digits()  # None means unbounded
        if self._peek() != ord("}"):
            # Not a well-formed repetition: treat the brace literally (PCRE does).
            self._pos = save
            return self._char_token(start, ord("{"))
        self._pos += 1
        if hi is not None and hi < lo:
            raise self._error(f"bad repeat range {{{lo},{hi}}}")
        return Token(TokenKind.REPEAT, start, (lo, hi))

    def _lex_digits(self) -> Optional[int]:
        digits = b""
        while (b := self._peek()) is not None and ord("0") <= b <= ord("9"):
            digits += bytes((b,))
            self._pos += 1
        if not digits:
            return None
        return int(digits)

    def _lex_escape(self, start: int) -> Token:
        b = self._take()
        if b in _CLASS_ESCAPES:
            return Token(TokenKind.CLASS, start, _CLASS_ESCAPES[b])
        value = self._escape_byte(b)
        return self._char_token(start, value)

    def _escape_byte(self, b: int) -> int:
        """Resolve a single-byte escape (shared with class lexing)."""
        if b in _SIMPLE_ESCAPES:
            return _SIMPLE_ESCAPES[b]
        if b == ord("x"):
            hex_digits = bytes((self._take(), self._take()))
            try:
                return int(hex_digits, 16)
            except ValueError:
                raise self._error(f"bad \\x escape: {hex_digits!r}") from None
        # Identity escape: \. \* \[ \\ \/ etc.
        return b

    def _lex_class(self) -> CharClass:
        """Lex a ``[...]`` class body (the ``[`` is already consumed)."""
        negate = False
        if self._peek() == ord("^"):
            negate = True
            self._pos += 1
        result = CharClass.empty()
        first = True
        while True:
            b = self._peek()
            if b is None:
                raise self._error("unterminated character class")
            if b == ord("]") and not first:
                self._pos += 1
                break
            first = False
            self._pos += 1
            if b == ord("\\"):
                esc = self._take()
                if esc in _CLASS_ESCAPES:
                    result |= _CLASS_ESCAPES[esc]
                    continue
                lo = self._escape_byte(esc)
            else:
                lo = b
            hi = self._maybe_range_end(lo)
            result |= CharClass.range(lo, hi)
        if not result:
            raise self._error("empty character class")
        if self.options.ignore_case:
            result = _fold_case(result)
        if negate:
            result = ~result
        return result

    def _maybe_range_end(self, lo: int) -> int:
        """After a class atom, consume ``-x`` if it forms a range."""
        if self._peek() != ord("-"):
            return lo
        # A trailing '-' right before ']' is a literal dash.
        if self._pos + 1 < len(self._data) and self._data[self._pos + 1] == ord("]"):
            return lo
        self._pos += 1
        b = self._take()
        if b == ord("\\"):
            hi = self._escape_byte(self._take())
        else:
            hi = b
        if hi < lo:
            raise self._error(f"reversed class range {lo}-{hi}")
        return hi
