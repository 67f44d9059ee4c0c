"""Closed-form scalar expressions for time- and space-dependent data:
a parser to immutable trees and an evaluator.  Trees are not printed
back to source text.

Grammar, lowest to highest precedence:

    sum     :=  term  (('+' | '-') term)*          left associative
    term    :=  unary (('*' | '/') unary)*         left associative
    unary   :=  '-' unary | power
    power   :=  atom ('^' unary)?                  right associative
    atom    :=  number | variable | func '(' args ')' | '(' sum ')'
    args    :=  sum (',' sum)*
    vector  :=  '(' args ')'                       parse_vector only

Variables are ``t, x, y``; functions are ``sin, cos, exp, sqrt, abs``
(one argument) and ``min, max`` (two arguments).  Every operation, an
operator or a function, is a ``Call`` of a name in ``OPERATIONS``, which
holds its arity, its function and its domain check; unary minus is the
name ``neg``.  Evaluation is pure and accepts numpy arrays for any
variable (results broadcast).  Division by zero and square roots of
negative numbers raise ``ExprDomainError`` instead of producing
non-finite values.  Overflow is not an error here: it gives inf
silently, and the caller checks its values for finiteness.

Data evaluated on the same points at many times are bound to them once:
``bind`` evaluates every t-free subtree on the points, with its domain
checks, and returns a function of t that evaluates the rest.  It is the
one way onto a set of points: ``bind(expr, (x, y))(t)`` equals
``evaluate(expr, t, (x, y))`` broadcast to the shape of x.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "parse",
    "parse_vector",
    "evaluate",
    "bind",
]

VARIABLES = ("t", "x", "y")


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
class Call(Expr):
    func: str
    args: tuple[Expr, ...]


@dataclass(frozen=True, eq=False)
class _Value(Expr):
    """A t-free subtree's value on the points it was bound to; only
    bind's trees hold one."""

    value: object


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _divide_check(a, b):
    if np.any(np.equal(b, 0.0)):
        raise ExprDomainError("division by zero")


def _power_check(a, b):
    if np.any(np.logical_and(np.less(a, 0.0), np.not_equal(b, np.floor(b)))):
        raise ExprDomainError("fractional power of a negative base")
    if np.any(np.logical_and(np.equal(a, 0.0), np.less(b, 0.0))):
        raise ExprDomainError("zero raised to a negative power")


def _sqrt_check(a):
    if np.any(np.less(a, 0.0)):
        raise ExprDomainError("square root of a negative number")


# Each operation's arity, function and domain check (None: none).  The
# operators keep Python's arithmetic, so scalars stay Python floats.
OPERATIONS = {
    "neg": (1, operator.neg, None),
    "+": (2, operator.add, None),
    "-": (2, operator.sub, None),
    "*": (2, operator.mul, None),
    "/": (2, operator.truediv, _divide_check),
    "^": (2, np.power, _power_check),
    "sin": (1, np.sin, None),
    "cos": (1, np.cos, None),
    "exp": (1, np.exp, None),
    "sqrt": (1, np.sqrt, _sqrt_check),
    "abs": (1, np.abs, None),
    "min": (2, np.minimum, None),
    "max": (2, np.maximum, None),
}
# The names a source text calls: the rest are operators, and unary minus
# is written '-'.
FUNCTIONS = {name: arity for name, (arity, _, _) in OPERATIONS.items()
             if name.isalpha() and name != "neg"}
# Precedence of the left-associative binary operators; '^' is parsed by
# unary, which binds it tighter.
_LEVELS = {"+": 1, "-": 1, "*": 2, "/": 2}


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(?P<num>[\d.]+(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d]\w*)"
                    r"|(?P<op>[-+*/^(),])|(?P<bad>\S)")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token, then ('end', '', len(src))."""
    toks = []
    for m in _TOKEN.finditer(src):
        kind, text, off = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {text!r}", off)
        if kind == "num":
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}",
                                      off) from None
        toks.append((kind, text, off))
    toks.append(("end", "", len(src)))
    return toks


class _Parser:
    """Recursive descent over the tokens.  No two kinds of token share a
    text, so the methods test a token by its text alone."""

    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0

    def expect(self, text: str):
        _, found, off = self.toks[self.pos]
        if found != text:
            raise ExprSyntaxError(f"expected {text!r}", off)
        self.pos += 1

    def end(self, result):
        kind, text, off = self.toks[self.pos]
        if text == ")":
            raise ExprSyntaxError("unbalanced parentheses", off)
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {text!r}", off)
        return result

    def sum(self, level: int = 1) -> Expr:
        """A sum (level 1) or a term (level 2)."""
        e = self.unary()
        op = self.toks[self.pos][1]
        while _LEVELS.get(op, 0) >= level:
            self.pos += 1
            e = Call(op, (e, self.sum(_LEVELS[op] + 1)))
            op = self.toks[self.pos][1]
        return e

    def unary(self) -> Expr:
        if self.toks[self.pos][1] == "-":
            self.pos += 1
            return Call("neg", (self.unary(),))
        e = self.atom()
        if self.toks[self.pos][1] == "^":
            self.pos += 1
            # unary on the right makes '^' right associative and lets a
            # leading minus appear in the exponent without parentheses
            return Call("^", (e, self.unary()))
        return e

    def args(self) -> tuple[Expr, ...]:
        """'(' args ')', the next token being '('."""
        self.pos += 1
        args = [self.sum()]
        while self.toks[self.pos][1] == ",":
            self.pos += 1
            args.append(self.sum())
        self.expect(")")
        return tuple(args)

    def atom(self) -> Expr:
        kind, text, off = self.toks[self.pos]
        self.pos += 1
        if kind == "num":
            return Num(float(text))
        if kind == "name" and self.toks[self.pos][1] == "(":
            if text not in FUNCTIONS:
                raise ExprSyntaxError(f"unknown function {text!r}", off)
            args = self.args()
            if len(args) != FUNCTIONS[text]:
                raise ExprSyntaxError(f"{text} takes {FUNCTIONS[text]} "
                                      f"argument(s), got {len(args)}", off)
            return Call(text, args)
        if kind == "name":
            if text not in VARIABLES:
                raise ExprSyntaxError(f"unknown identifier {text!r}", off)
            return Var(text)
        if text == "(":
            e = self.sum()
            self.expect(")")
            return e
        raise ExprSyntaxError(f"unexpected {text!r}" if text
                              else "unexpected end of input", off)


def parse(src: str) -> Expr:
    """Parse ``src`` into an expression tree."""
    p = _Parser(src)
    return p.end(p.sum())


def parse_vector(src: str) -> tuple[Expr, ...]:
    """Parse ``src``, a parenthesized comma list ``(e1, e2, ...)``, into
    one tree per component."""
    p = _Parser(src)
    _, text, off = p.toks[0]
    if text != "(":
        raise ExprSyntaxError("a vector is written (expr, expr, ...)", off)
    return p.end(p.args())


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
    bottom up: a call whose arguments all became values is evaluated on
    them, so the t-free parts are evaluated in evaluation order."""
    if isinstance(expr, Call):
        expr = Call(expr.func, tuple(_bind(a, env) for a in expr.args))
        if not all(isinstance(a, _Value) for a in expr.args):
            return expr
    elif expr == Var("t"):
        return expr
    return _Value(_eval(expr, env))


def _eval(expr: Expr, env: dict):
    # every operation takes one or two arguments, so a call is evaluated
    # without building an argument list; a hand-built call of another
    # arity falls through to the TypeError
    if isinstance(expr, Call):
        _, func, check = OPERATIONS[expr.func]
        args = expr.args
        if len(args) == 1:
            a = _eval(args[0], env)
            if check is not None:
                check(a)
            return func(a)
        if len(args) == 2:
            a, b = _eval(args[0], env), _eval(args[1], env)
            if check is not None:
                check(a, b)
            return func(a, b)
    if isinstance(expr, (Num, _Value)):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise ExprDomainError(f"variable {expr.name!r} has no value here")
        return env[expr.name]
    raise TypeError(f"not an expression node: {expr!r}")
