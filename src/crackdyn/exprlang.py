"""Closed-form scalar expressions for time- and space-dependent data:
a parser to immutable trees and an evaluator.  Trees are not printed
back to source text.

Grammar, lowest to highest precedence:

    sum     :=  term  (('+' | '-') term)*          left associative
    term    :=  unary (('*' | '/') unary)*         left associative
    unary   :=  '-' unary | power
    power   :=  atom ('^' unary)?                  right associative
    atom    :=  number | variable | func '(' args ')' | '(' sum ')'

Variables are ``t, x, y``; functions are ``sin, cos, exp, sqrt, abs``
(one argument) and ``min, max`` (two arguments).  Evaluation is pure and
accepts numpy arrays for any variable (results broadcast).  Division by
zero and square roots of negative numbers raise ``ExprDomainError``
instead of producing non-finite values.  Overflow is not an error here:
it gives inf silently, and the caller checks its values for finiteness.

Data evaluated on the same points at many times are bound to them once:
``bind`` evaluates every t-free subtree on the points, with its domain
checks, and returns a function of t that evaluates the rest.  It is the
one way onto a set of points: ``bind(expr, (x, y))(t)`` equals
``evaluate(expr, t, (x, y))`` broadcast to the shape of x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "parse",
    "evaluate",
    "bind",
]

VARIABLES = ("t", "x", "y")
FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "sqrt": 1, "abs": 1, "min": 2, "max": 2}


class ExprError(ValueError):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class ExprDomainError(ExprError):
    """Evaluation left the expression's domain (x/0, sqrt(-1), ...)."""


class Expr:
    """Immutable expression node."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]


@dataclass(frozen=True, eq=False)
class _Value(Expr):
    """A t-free subtree's value on the points it was bound to; only
    bind's trees hold one."""

    value: object


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOK_NUM = "num"
_TOK_IDENT = "ident"
_TOK_OP = "op"
_TOK_END = "end"

_OP_CHARS = "+-*/^(),"


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OP_CHARS:
            toks.append((_TOK_OP, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}", i) from None
            toks.append((_TOK_NUM, text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append((_TOK_IDENT, src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    toks.append((_TOK_END, "", n))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != _TOK_OP or text != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> Expr:
        e = self.sum()
        kind, text, off = self.peek()
        if kind != _TOK_END:
            raise ExprSyntaxError(f"unexpected trailing {text!r}", off)
        return e

    def sum(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text in "+-":
                self.advance()
                e = Bin(text, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text in "*/":
                self.advance()
                e = Bin(text, e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == _TOK_OP and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        kind, text, _ = self.peek()
        if kind == _TOK_OP and text == "^":
            self.advance()
            # unary on the right makes '^' right associative and lets a
            # leading minus appear in the exponent without parentheses
            return Bin("^", e, self.unary())
        return e

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == _TOK_NUM:
            return Num(float(text))
        if kind == _TOK_IDENT:
            nkind, ntext, _ = self.peek()
            if nkind == _TOK_OP and ntext == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", off)
                self.advance()
                args = [self.sum()]
                while True:
                    k, t, o = self.peek()
                    if k == _TOK_OP and t == ",":
                        self.advance()
                        args.append(self.sum())
                    else:
                        break
                self.expect_op(")")
                arity = FUNCTIONS[text]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{text} takes {arity} argument(s), got {len(args)}", off
                    )
                return Call(text, tuple(args))
            if text not in VARIABLES:
                raise ExprSyntaxError(f"unknown identifier {text!r}", off)
            return Var(text)
        if kind == _TOK_OP and text == "(":
            e = self.sum()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", off)


def parse(src: str) -> Expr:
    """Parse ``src`` into an expression tree."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(expr: Expr, t, point=()):
    """Evaluate ``expr`` at time ``t`` and spatial coordinates ``point``.

    ``point`` is a sequence holding x and y; entries may be scalars or
    broadcastable numpy arrays.  Missing coordinates are treated as an
    error only if the expression uses them.  numpy's floating-point
    warnings are silenced: the domain checks raise ExprDomainError, and
    an overflow yields inf for the caller to reject.
    """
    env = {"t": t}
    for name, value in zip(("x", "y"), point):
        env[name] = value
    with np.errstate(all="ignore"):
        return _eval(expr, env)


def bind(expr: Expr, point):
    """``expr`` bound to the fixed points ``point`` (x and y arrays): a
    function of t whose value, a read-only float array shaped like x,
    equals ``np.broadcast_to(evaluate(expr, t, point), x.shape)`` bit
    for bit.

    Every t-free subtree is evaluated here, once, and its domain checks
    run here, so such an error is raised by bind itself; the first in
    evaluation order is reported.  The function evaluates the rest, with
    its checks, through evaluate.
    """
    env = dict(zip(("x", "y"), point))
    shape = np.shape(point[0])
    with np.errstate(all="ignore"):
        tree = _bind(expr, env)

    def at(t):
        return np.broadcast_to(np.asarray(evaluate(tree, t), dtype=float),
                               shape)
    return at


def _bind(expr: Expr, env: dict) -> Expr:
    """expr with each maximal t-free subtree replaced by its value,
    bottom up: a node whose children all became values is evaluated on
    them, so the t-free parts are evaluated in evaluation order."""
    if isinstance(expr, Neg):
        expr = Neg(_bind(expr.operand, env))
        children = (expr.operand,)
    elif isinstance(expr, Bin):
        expr = Bin(expr.op, _bind(expr.left, env), _bind(expr.right, env))
        children = (expr.left, expr.right)
    elif isinstance(expr, Call):
        expr = Call(expr.func, tuple(_bind(a, env) for a in expr.args))
        children = expr.args
    elif expr == Var("t"):
        return expr
    else:
        children = ()
    if all(isinstance(c, _Value) for c in children):
        return _Value(_eval(expr, env))
    return expr


def _eval(expr: Expr, env: dict):
    if isinstance(expr, (Num, _Value)):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise ExprDomainError(f"variable {expr.name!r} has no value here")
        return env[expr.name]
    if isinstance(expr, Neg):
        return -_eval(expr.operand, env)
    if isinstance(expr, Bin):
        a = _eval(expr.left, env)
        b = _eval(expr.right, env)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            if np.any(np.equal(b, 0.0)):
                raise ExprDomainError("division by zero")
            return a / b
        if expr.op == "^":
            if np.any(np.logical_and(np.less(a, 0.0), np.not_equal(b, np.floor(b)))):
                raise ExprDomainError("fractional power of a negative base")
            if np.any(np.logical_and(np.equal(a, 0.0), np.less(b, 0.0))):
                raise ExprDomainError("zero raised to a negative power")
            return np.power(a, b)
        raise AssertionError(expr.op)
    if isinstance(expr, Call):
        args = [_eval(a, env) for a in expr.args]
        if expr.func == "sin":
            return np.sin(args[0])
        if expr.func == "cos":
            return np.cos(args[0])
        if expr.func == "exp":
            return np.exp(args[0])
        if expr.func == "sqrt":
            if np.any(np.less(args[0], 0.0)):
                raise ExprDomainError("square root of a negative number")
            return np.sqrt(args[0])
        if expr.func == "abs":
            return np.abs(args[0])
        if expr.func == "min":
            return np.minimum(args[0], args[1])
        if expr.func == "max":
            return np.maximum(args[0], args[1])
        raise AssertionError(expr.func)
    raise TypeError(f"not an expression node: {expr!r}")
