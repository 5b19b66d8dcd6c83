"""Tiny arithmetic expression language for right-hand sides.

Grammar (no unary minus; exponents are unsigned integers):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | 'x' | 'y' | 'pi' | name '(' expr ')' | '(' expr ')'
    name   := sin | cos | exp | abs

Every raised ExpressionError carries the byte offset of the offending
token in the source string.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ExpressionError
from .grid import Field, GridDomain

GRAMMAR_HELP = """\
expression grammar:
  expr   := term (('+' | '-') term)*
  term   := factor (('*' | '/') factor)*
  factor := base ('^' integer)?
  base   := number | 'x' | 'y' | 'pi' | name '(' expr ')' | '(' expr ')'
  name   := sin | cos | exp | abs
There is no unary minus; write '0 - x' instead of '-x'.  Exponents are
unsigned integers.  Example: sin(pi*x)*sin(pi*y) + x^2/4"""

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            at = len(source) - len(stripped)
            raise ExpressionError(
                f"unexpected character {stripped[0]!r}", position=at
            )
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ExpressionError(message, position=tok[2])

    def parse(self):
        fn = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            self.fail(f"unexpected {text!r} after the expression")
        return fn

    def expr(self):
        fn = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            rhs = self.term()
            fn = self._bin(op, fn, rhs)
        return fn

    def term(self):
        fn = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.take()[1]
            rhs = self.factor()
            fn = self._bin(op, fn, rhs)
        return fn

    def factor(self):
        fn = self.base()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.take()
            kind, text, pos = self.peek()
            if kind != "num" or not text.isdigit():
                self.fail("exponent must be an unsigned integer")
            self.take()
            power = int(text)
            base = fn
            return lambda x, y: base(x, y) ** power
        return fn

    def base(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.take()
            value = np.float64(text)  # numpy scalar: IEEE division semantics
            return lambda x, y: value
        if kind == "name":
            self.take()
            if text == "x":
                return lambda x, y: x
            if text == "y":
                return lambda x, y: y
            if text == "pi":
                pi = np.float64(np.pi)
                return lambda x, y: pi
            if text in _FUNCTIONS:
                func = _FUNCTIONS[text]
                nk, nt, npos = self.peek()
                if nk != "op" or nt != "(":
                    self.fail(f"expected '(' after {text!r}")
                self.take()
                inner = self.expr()
                ck, ct, cpos = self.peek()
                if ck != "op" or ct != ")":
                    self.fail("expected ')'")
                self.take()
                return lambda x, y: func(inner(x, y))
            self.fail(f"unknown name {text!r}", (kind, text, pos))
        if kind == "op" and text == "(":
            self.take()
            inner = self.expr()
            ck, ct, cpos = self.peek()
            if ck != "op" or ct != ")":
                self.fail("expected ')'")
            self.take()
            return inner
        self.fail(f"expected a number, name, or '(', got {text!r}" if text
                  else "expected a number, name, or '(' before the end")

    @staticmethod
    def _bin(op, lhs, rhs):
        if op == "+":
            return lambda x, y: lhs(x, y) + rhs(x, y)
        if op == "-":
            return lambda x, y: lhs(x, y) - rhs(x, y)
        if op == "*":
            return lambda x, y: lhs(x, y) * rhs(x, y)
        return lambda x, y: lhs(x, y) / rhs(x, y)


class Expression:
    """A parsed expression of x and y, callable on scalars or arrays."""

    def __init__(self, source: str):
        self.source = source
        self._fn = _Parser(source).parse()

    def __call__(self, x, y):
        # a division by zero or an overflow yields inf or nan, which the
        # solvers refuse as data that are not finite; no warning on the way
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def on_domain(self, domain: GridDomain) -> Field:
        """Evaluate at the cell centers."""
        centers = domain.cell_centers()
        values = self(centers[:, 0], centers[:, 1])
        values = np.broadcast_to(np.asarray(values, dtype=float),
                                 (domain.n_cells,)).copy()
        return Field(domain.cell_space, values)

    def __repr__(self):
        return f"Expression({self.source!r})"


def parse_expression(source: str) -> Expression:
    return Expression(source)
