"""Recursive-descent parser producing :mod:`repro.regex.ast` trees.

Grammar (standard regex precedence):

    pattern  := '^'? alt '$'?
    alt      := cat ('|' cat)*
    cat      := repeat*
    repeat   := atom ('*' | '+' | '?' | '{m,n}')*
    atom     := CHAR | CLASS | '.' | '(' alt ')'

Anchors are only honoured at the very start/end of the whole pattern
(inner ``^``/``$`` are rejected — security rule sets do not use them and
streaming engines cannot honour mid-pattern anchors).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast
from .ast import Node, Pattern
from .lexer import Lexer, LexerOptions, RegexSyntaxError, Token, TokenKind

__all__ = ["parse", "parse_many", "ParserOptions", "RegexSyntaxError"]

_QUANTIFIERS = (TokenKind.STAR, TokenKind.PLUS, TokenKind.QMARK, TokenKind.REPEAT)
_ATOM_STARTS = (TokenKind.CHAR, TokenKind.CLASS, TokenKind.DOT, TokenKind.LPAREN)


@dataclass(frozen=True, slots=True)
class ParserOptions:
    """Parsing knobs; see :class:`~repro.regex.lexer.LexerOptions`.

    ``max_counted_repeat`` bounds ``{m,n}`` counts so that a pathological
    pattern cannot demand a billion-state automaton at parse time.
    """

    dotall: bool = True
    ignore_case: bool = False
    max_counted_repeat: int = 1024

    def lexer_options(self) -> LexerOptions:
        return LexerOptions(dotall=self.dotall, ignore_case=self.ignore_case)


def parse(text: str, match_id: int = 1, options: ParserOptions | None = None) -> Pattern:
    """Parse one pattern.

    ``/body/flags`` syntax is accepted (as Snort rules use): flags ``i``
    (ignore case) and ``s`` (DOTALL) override ``options``.
    """
    options = options or ParserOptions()
    body, options = _strip_slashes(text, options)
    return _Parser(body, options).parse_pattern(match_id, source=text)


def parse_many(texts: list[str], options: ParserOptions | None = None) -> list[Pattern]:
    """Parse a rule set, assigning match-ids 1..n in order (paper §IV)."""
    return [parse(text, match_id=i + 1, options=options) for i, text in enumerate(texts)]


def _strip_slashes(text: str, options: ParserOptions) -> tuple[str, ParserOptions]:
    if len(text) >= 2 and text.startswith("/"):
        end = text.rfind("/")
        if end > 0:
            flags = text[end + 1 :]
            if all(f in "ism" for f in flags):
                dotall = options.dotall or "s" in flags
                ignore_case = options.ignore_case or "i" in flags
                return text[1:end], ParserOptions(
                    dotall=dotall,
                    ignore_case=ignore_case,
                    max_counted_repeat=options.max_counted_repeat,
                )
    return text, options


class _Parser:
    def __init__(self, text: str, options: ParserOptions):
        self._options = options
        self._tokens = Lexer(text, options.lexer_options()).tokens()
        self._index = 0

    # -- token plumbing -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        tok = self._current
        if tok.kind is not TokenKind.EOF:
            self._index += 1
        return tok

    def _expect(self, kind: TokenKind) -> Token:
        tok = self._current
        if tok.kind is not kind:
            raise RegexSyntaxError(f"expected {kind.value}, found {tok.kind.value}", tok.pos)
        return self._advance()

    # -- grammar ------------------------------------------------------------

    def parse_pattern(self, match_id: int, source: str) -> Pattern:
        anchored = False
        if self._current.kind is TokenKind.CARET:
            anchored = True
            self._advance()
        root = self._parse_alt()
        end_anchored = False
        if self._current.kind is TokenKind.DOLLAR:
            end_anchored = True
            self._advance()
        tok = self._current
        if tok.kind is not TokenKind.EOF:
            raise RegexSyntaxError(f"unexpected {tok.kind.value}", tok.pos)
        return Pattern(
            root,
            match_id=match_id,
            anchored=anchored,
            end_anchored=end_anchored,
            source=source,
        )

    def _parse_alt(self) -> Node:
        options = [self._parse_cat()]
        while self._current.kind is TokenKind.PIPE:
            self._advance()
            options.append(self._parse_cat())
        return ast.alternate(options)

    def _parse_cat(self) -> Node:
        parts: list[Node] = []
        while self._current.kind in _ATOM_STARTS:
            parts.append(self._parse_repeat())
        return ast.concat(parts) if parts else ast.EMPTY

    def _parse_repeat(self) -> Node:
        node = self._parse_atom()
        while (kind := self._current.kind) in _QUANTIFIERS:
            tok = self._advance()
            if kind is TokenKind.STAR:
                node = ast.star(node)
            elif kind is TokenKind.PLUS:
                node = ast.plus(node)
            elif kind is TokenKind.QMARK:
                node = ast.optional(node)
            else:
                lo, hi = tok.value  # type: ignore[misc]
                limit = self._options.max_counted_repeat
                if lo > limit or (hi is not None and hi > limit):
                    raise RegexSyntaxError(
                        f"counted repeat exceeds limit of {limit}", tok.pos
                    )
                node = ast.repeat(node, lo, hi)
            # Lazy modifier (*?, +?, ??, {n,m}?): greedy and lazy quantifiers
            # denote the same language, and report-all-end-positions
            # semantics only depend on the language — accept and ignore, for
            # compatibility with real pcre-bearing rule sets.
            if kind is not TokenKind.QMARK and self._current.kind is TokenKind.QMARK:
                self._advance()
        return node

    def _parse_atom(self) -> Node:
        tok = self._advance()
        if tok.kind is TokenKind.CHAR:
            return ast.literal(tok.value)  # type: ignore[arg-type]
        if tok.kind is TokenKind.CLASS:
            return ast.ClassNode(tok.value)  # type: ignore[arg-type]
        if tok.kind is TokenKind.DOT:
            return ast.ClassNode(self._options.lexer_options().dot_class)
        if tok.kind is TokenKind.LPAREN:
            inner = self._parse_alt()
            self._expect(TokenKind.RPAREN)
            return inner
        raise RegexSyntaxError(f"unexpected {tok.kind.value}", tok.pos)
