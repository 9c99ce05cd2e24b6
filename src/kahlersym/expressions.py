"""The scalar-potential expression language.

Grammar (EBNF, also in docs/potential-language.md):

    expression = term { ("+" | "-") term } ;
    term       = unary { ("*" | "/") unary } ;
    unary      = "-" unary | power ;
    power      = atom { "^" exponent } ;
    exponent   = [ "-" ] INTEGER ;
    atom       = NUMBER | COORD | call | macro | "(" expression ")" ;
    call       = ("log" | "exp" | "sqrt") "(" expression ")" ;
    macro      = "absq" "(" INTEGER ")" | "rsq" ;

All binary operators associate to the left; precedence from loosest to
tightest is "+-", "*/", unary minus, "^".  Coordinates are spelled
x1..xn and y1..yn where n is the complex dimension supplied to
:func:`parse`.  The macros expand during parsing: absq(k) becomes
xk^2 + yk^2 and rsq the sum of absq(1)..absq(n).  Exponents must be
integer literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .jets import JetDomainError, JetScalar, jet_exp, jet_log, jet_space, jet_sqrt

_FUNCTIONS = ("log", "exp", "sqrt")
# Parsed trees kept, one per (source, n).
_MAX_PARSED_TREES = 64
_COORD_RE = re.compile(r"([xy])([0-9]+)\Z")
_TOKEN_RE = re.compile(
    r"""(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
      | (?P<ws>[\ \t\r\n]+)
    """,
    re.VERBOSE,
)


class PotentialError(ValueError):
    """Base class for every error raised by this module."""


class PotentialSyntaxError(PotentialError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PotentialDomainError(PotentialError):
    """A sub-expression was evaluated outside its domain."""

    def __init__(self, message: str, subexpression: "Expr"):
        super().__init__(f"{message} in sub-expression `{pretty(subexpression)}`")
        self.subexpression = subexpression


# -- abstract syntax -------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    axis: str  # "x" or "y"
    k: int  # 1-based complex-coordinate index


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str  # one of log exp sqrt
    arg: "Expr"


Expr = Num | Coord | Neg | BinOp | Pow | Call


# -- lexer ------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "eof"
    text: str
    line: int
    column: int


def _lex(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise PotentialSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


# -- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise PotentialSyntaxError(message, tok.line, tok.column)

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            shown = tok.text or "end of input"
            self.fail(f"expected {op!r}, found {shown!r}")
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def expression(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while self.at_op("^"):
            self.advance()
            negative = self.at_op("-")
            if negative:
                self.advance()
            k = self.integer("exponent must be an integer literal")
            node = Pow(node, -k if negative else k)
        return node

    def integer(self, message: str) -> int:
        """Consume an integer literal; anything else fails with ``message``."""
        tok = self.peek()
        if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
            self.fail(message)
        self.advance()
        return int(tok.text)

    def coordinate(self, k: int, tok: _Token) -> int:
        """``k`` if it indexes a complex coordinate, else fail at ``tok``."""
        if not 1 <= k <= self.n:
            self.fail(f"coordinate index {k} out of range for n={self.n}", tok)
        return k

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            value = float(tok.text)
            if np.isinf(value):
                self.fail(f"number {tok.text!r} overflows a float")
            self.advance()
            return Num(value)
        if tok.kind == "name":
            return self.name_atom()
        if self.at_op("("):
            self.advance()
            node = self.expression()
            self.expect_op(")")
            return node
        shown = tok.text or "end of input"
        self.fail(f"expected a value, found {shown!r}")

    def name_atom(self) -> Expr:
        tok = self.advance()
        name = tok.text
        if name in _FUNCTIONS:
            self.expect_op("(")
            arg = self.expression()
            self.expect_op(")")
            return Call(name, arg)
        if name == "absq":
            self.expect_op("(")
            k = self.coordinate(self.integer("expected an integer coordinate index"), tok)
            self.expect_op(")")
            return _absq(k)
        if name == "rsq":
            node = _absq(1)
            for k in range(2, self.n + 1):
                node = BinOp("+", node, _absq(k))
            return node
        m = _COORD_RE.match(name)
        if m:
            return Coord(m.group(1), self.coordinate(int(m.group(2)), tok))
        self.fail(f"unknown identifier {name!r}", tok)


def _absq(k: int) -> Expr:
    return BinOp("+", Pow(Coord("x", k), 2), Pow(Coord("y", k), 2))


@lru_cache(maxsize=_MAX_PARSED_TREES)
def parse(source: str, n: int) -> Expr:
    """Parse a potential for a manifold of complex dimension ``n``.

    The tree is immutable, so one is kept per (source, n) and every call
    with those arguments returns it; errors are raised on every call."""
    if n < 1:
        raise ValueError("complex dimension n must be at least 1")
    parser = _Parser(_lex(source), n)
    node = parser.expression()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"unexpected trailing input {tok.text!r}")
    return node


# -- pretty printing ---------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _fmt(e: Expr, context: int) -> str:
    if isinstance(e, Num):
        return _format_number(e.value)
    if isinstance(e, Coord):
        return f"{e.axis}{e.k}"
    if isinstance(e, Neg):
        body = "-" + _fmt(e.arg, _PREC_NEG)
        return f"({body})" if context > _PREC_NEG else body
    if isinstance(e, Pow):
        body = f"{_fmt(e.base, _PREC_POW)}^{e.exponent}"
        return f"({body})" if context > _PREC_POW else body
    if isinstance(e, Call):
        return f"{e.fn}({_fmt(e.arg, 0)})"
    prec = _PREC_ADD if e.op in "+-" else _PREC_MUL
    body = f"{_fmt(e.lhs, prec)}{e.op}{_fmt(e.rhs, prec + 1)}"
    return f"({body})" if context > prec else body


def pretty(e: Expr) -> str:
    """Render an expression; parses back to the same tree."""
    return _fmt(e, 0)


# -- evaluation ---------------------------------------------------------------


def _coord_index(e: Coord, npoint: int) -> int:
    n = npoint // 2
    if e.k > n:
        raise PotentialError(
            f"coordinate {e.axis}{e.k} needs n >= {e.k}, point has n = {n}"
        )
    return e.k - 1 if e.axis == "x" else n + e.k - 1


def eval_jet(e: Expr, point, order: int) -> JetScalar:
    """Taylor-expand the expression about ``point`` up to total degree ``order``.

    ``point`` is one chart point (2n,) or a stack of them (P, 2n); the
    jet's coefficients carry the same leading axes, and each point's
    coefficients are bitwise those of expanding about it alone.
    Coefficients are exact for polynomial expressions of degree <= order.
    Domain violations report the offending sub-expression.
    """
    point = np.asarray(point, dtype=float)
    space = jet_space(point.shape[-1], order)

    def rec(node: Expr) -> JetScalar:
        if isinstance(node, Num):
            return JetScalar.constant(space, node.value)
        if isinstance(node, Coord):
            idx = _coord_index(node, point.shape[-1])
            return JetScalar.variable(space, idx, point[..., idx])
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, Pow):
            base = rec(node.base)
            try:
                return base**node.exponent
            except JetDomainError as err:
                raise PotentialDomainError(str(err), node)
        if isinstance(node, Call):
            arg = rec(node.arg)
            try:
                if node.fn == "log":
                    return jet_log(arg)
                if node.fn == "exp":
                    return jet_exp(arg)
                return jet_sqrt(arg)
            except JetDomainError as err:
                raise PotentialDomainError(str(err), node.arg)
        lhs = rec(node.lhs)
        rhs = rec(node.rhs)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        try:
            return lhs / rhs
        except JetDomainError as err:
            raise PotentialDomainError(str(err), node.rhs)

    jet = rec(e)
    if jet.coeffs.ndim < point.ndim:  # a constant expression: give it the point axes
        shape = point.shape[:-1] + (space.size,)
        jet = JetScalar(space, np.broadcast_to(jet.coeffs, shape).copy(), support=jet.support)
    return jet
