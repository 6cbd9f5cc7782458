"""Polynomial expression parsing and variable-list expansion.

Grammar: integer literals (optionally signed), declared variable names,
``+ - * ^`` and parentheses.  Implicit multiplication is not allowed.
The name ``p`` is accepted as a coefficient token meaning the prime, so
expressions like ``f + p*x1*x2`` are writable verbatim (unless ``p`` was
declared as a variable, in which case the variable wins).  Coefficients
are reduced mod p^2.
"""

from __future__ import annotations

import re

from .errors import InputError, ParseError, UnknownVariableError
from .ring import MAX_VARS, Context, LiftPoly

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*^()]))")

_INT, _NAME, _OP, _END = "int", "name", "op", "end"

# Parentheses and unary minus both recurse; past this depth the parser
# raises ParseError instead of exhausting the interpreter's stack.
MAX_NESTING = 100


def _literal(text: str, pos: int) -> int:
    """The value of a digit string; one longer than Python converts (4,300
    digits by default) is a ParseError, not an uncaught ValueError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal of {len(text)} digits is too long", pos) from None


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            break
        if m.group(1) is not None:
            tokens.append((_INT, m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append((_NAME, m.group(2), m.start(2)))
        else:
            tokens.append((_OP, m.group(3), m.start(3)))
        pos = m.end()
    rest = src[pos:].strip()
    if rest:
        bad = pos + src[pos:].index(rest[0])
        raise ParseError(f"unexpected character {rest[0]!r}", bad)
    tokens.append((_END, "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, ctx: Context):
        self.tokens = _tokenize(src)
        self.ctx = ctx
        self.i = 0
        self.depth = 0

    def nested(self, pos: int, parse) -> LiftPoly:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        value = parse()
        self.depth -= 1
        return value

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> LiftPoly:
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == _OP and text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self) -> LiftPoly:
        value = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == _OP and text == "*":
                self.advance()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> LiftPoly:
        kind, text, pos = self.peek()
        if kind == _OP and text == "-":
            self.advance()
            return -self.nested(pos, self.factor)
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == _OP and text == "^":
            self.advance()
            kind, text, pos = self.advance()
            if kind != _INT:
                raise ParseError("exponent must be a non-negative integer", pos)
            return base ** _literal(text, pos)
        return base

    def atom(self) -> LiftPoly:
        kind, text, pos = self.advance()
        if kind == _INT:
            return LiftPoly.constant(self.ctx, _literal(text, pos))
        if kind == _NAME:
            if text in self.ctx.var_names:
                return LiftPoly.variable(self.ctx, text)
            if text == "p":
                return LiftPoly.constant(self.ctx, self.ctx.p)
            raise UnknownVariableError(text, pos)
        if kind == _OP and text == "(":
            value = self.nested(pos, self.expr)
            kind, text, pos = self.advance()
            if not (kind == _OP and text == ")"):
                raise ParseError("expected ')'", pos)
            return value
        shown = text or "end of input"
        raise ParseError(f"unexpected {shown!r}", pos)


def parse_poly(src: str, ctx: Context) -> LiftPoly:
    """Parse an expression into a polynomial with coefficients mod p^2."""
    parser = _Parser(src, ctx)
    value = parser.expr()
    kind, text, pos = parser.peek()
    if kind != _END:
        raise ParseError(f"unexpected {text!r}", pos)
    return value


_RANGE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*?)(\d+)\.\.([A-Za-z_][A-Za-z0-9_]*?)(\d+)$")


def expand_var_spec(spec: str) -> list[str]:
    """Expand a comma-separated variable list; ``x1..x5`` ranges allowed."""
    names: list[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        m = _RANGE.match(part)
        if m:
            prefix, lo, prefix2, hi = m.groups()
            if prefix != prefix2:
                raise InputError(f"range ends disagree in {part!r}")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise InputError(
                    f"range bound of {max(len(lo), len(hi))} digits is too long"
                ) from None
            if lo_i > hi_i:
                raise InputError(f"empty range {part!r}")
            if hi_i - lo_i >= MAX_VARS:
                raise InputError(
                    f"range {part!r} names {hi_i - lo_i + 1} variables, more than {MAX_VARS}"
                )
            names.extend(f"{prefix}{i}" for i in range(lo_i, hi_i + 1))
        else:
            names.append(part)
    if not names:
        raise InputError("no variable names given")
    return names
