import ast
import math
import warnings

import numpy as np
import pytest
from test_fuzz import OPERATORS, expression, pick

from crackdyn import exprlang as ex


def ev(src, t=0.0, point=()):
    return ex.evaluate(ex.parse(src), t, point)


def test_arithmetic_precedence():
    assert ev("1 + 2*3") == 7.0
    assert ev("(1 + 2)*3") == 9.0
    assert ev("2*3^2") == 18.0
    assert ev("7 - 3 - 2") == 2.0
    assert ev("8/4/2") == 1.0


def test_power_binds_right():
    # 2^3^2 must parse as 2^(3^2), not (2^3)^2
    assert ev("2^3^2") == 512.0
    assert ex.parse("2^3^2") == ex.parse("2^(3^2)")
    assert ex.parse("2^3^2") != ex.parse("(2^3)^2")


def test_unary_minus():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("1 - -2") == 3.0
    assert ev("--3") == 3.0
    assert ev("-x", point=(2.0, 0.0)) == -2.0


def test_variables_and_point():
    assert ev("x*y", point=(2.0, 3.0)) == 6.0
    val = ev("exp(-t)*sin(x)", t=0.0, point=(math.pi / 2, 0.0))
    assert val == pytest.approx(1.0, abs=1e-15)
    assert ev("t + y", t=1.5, point=(0.0, 2.0)) == 3.5
    with pytest.raises(ex.ExprDomainError, match="'y' has no value"):
        ev("x + y", point=(1.0,))


def test_functions():
    assert ev("sin(0)") == 0.0
    assert ev("abs(-3)") == 3.0
    assert ev("min(2, 5)") == 2.0
    assert ev("max(2, 5)") == 5.0
    assert ev("sqrt(4)") == 2.0
    assert ev("0^0") == 1.0


def test_scientific_literals():
    assert ev("1.5e-3 + 2E2") == 200.0015


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2, 2, size=40)
    ys = rng.uniform(-2, 2, size=40)
    expr = ex.parse("sin(x)*exp(y) + x^3 - min(x, y)")
    vec = ex.evaluate(expr, 0.5, (xs, ys))
    for i in range(xs.size):
        assert vec[i] == ex.evaluate(expr, 0.5, (xs[i], ys[i]))


def test_evaluation_is_pure():
    expr = ex.parse("x^2 - sin(t*y)")
    a = ex.evaluate(expr, 0.3, (1.25, -0.75))
    b = ex.evaluate(expr, 0.3, (1.25, -0.75))
    assert repr(a) == repr(b)


def test_domain_errors():
    with pytest.raises(ex.ExprDomainError):
        ev("1/x", point=(0.0, 0.0))
    with pytest.raises(ex.ExprDomainError):
        ev("sqrt(-1)")
    with pytest.raises(ex.ExprDomainError):
        ev("0^-1")
    with pytest.raises(ex.ExprDomainError):
        ev("(-2)^0.5")
    # one bad entry poisons a vectorized evaluation too
    with pytest.raises(ex.ExprDomainError):
        ex.evaluate(ex.parse("1/x"), 0.0, (np.array([1.0, 0.0]), 0.0))


def test_overflow_gives_inf_without_warnings():
    # overflow is left to the caller's finiteness checks, not warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ev("exp(800*t)*1e-300", t=1.0) == np.inf
        assert np.isnan(ev("exp(800)*0"))
        vec = ex.evaluate(ex.parse("exp(x)"), 0.0, (np.array([0.0, 800.0]),))
    assert vec[0] == 1.0 and vec[1] == np.inf


def test_domain_error_is_expr_error():
    assert issubclass(ex.ExprDomainError, ex.ExprError)
    assert issubclass(ex.ExprSyntaxError, ex.ExprError)


@pytest.mark.parametrize("src", ["1+", "(x", "sin()", "x 2", "1 @ 2", ""])
def test_syntax_errors_carry_offsets(src):
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse(src)
    assert isinstance(err.value.offset, int)
    assert "byte" in str(err.value)


def test_unknown_names():
    with pytest.raises(ex.ExprSyntaxError, match="identifier"):
        ex.parse("q + 1")
    # meshes are two-dimensional: there is no z
    with pytest.raises(ex.ExprSyntaxError, match="identifier 'z'"):
        ex.parse("0.01*z")
    with pytest.raises(ex.ExprSyntaxError, match="function"):
        ex.parse("foo(1)")
    with pytest.raises(ex.ExprSyntaxError, match="argument"):
        ex.parse("min(1)")


def test_syntax_error_offset_points_at_problem():
    with pytest.raises(ex.ExprSyntaxError) as err:
        ex.parse("1 + @")
    assert err.value.offset == 4


# ---------------------------------------------------------------------------
# precedence against Python's own grammar
# ---------------------------------------------------------------------------

# Python's '**' binds like '^': right associative, tighter than a unary
# minus on its left, and it takes a unary minus in its exponent.
PY_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
          ast.Pow: "^"}
ARITY = {"sin": 1, "cos": 1, "exp": 1, "sqrt": 1, "abs": 1, "min": 2,
         "max": 2}


def test_every_operation_the_parser_makes_is_in_the_table():
    assert (set(ex._LEVELS) | {"^", "neg"} | set(ex.FUNCTIONS)
            == set(ex.OPERATIONS))
    assert ex.FUNCTIONS == ARITY
    with pytest.raises(ex.ExprSyntaxError, match="unknown function 'neg'"):
        ex.parse("neg(1)")


def from_python(node):
    """A node of Python's tree of an expression, as an exprlang tree."""
    if isinstance(node, ast.Constant):
        return ex.Num(float(node.value))
    if isinstance(node, ast.Name):
        return ex.Var(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return ex.Call("neg", (from_python(node.operand),))
    if isinstance(node, ast.BinOp):
        return ex.Call(PY_OPS[type(node.op)],
                       (from_python(node.left), from_python(node.right)))
    if isinstance(node, ast.Call):
        return ex.Call(node.func.id, tuple(map(from_python, node.args)))
    raise TypeError(ast.dump(node))


def operand(rng, depth):
    """An atom, a call or a group, behind zero to two unary minuses."""
    minus = "-" * int(rng.choice(3, p=[0.6, 0.25, 0.15]))
    roll = rng.random()
    if depth == 0 or roll < 0.6:
        return minus + pick(rng, ["x", "y", "t", "2", "0.5", "3e2"])
    if roll < 0.8:
        func = pick(rng, sorted(ARITY))
        args = ", ".join(chain(rng, depth - 1) for _ in range(ARITY[func]))
        return f"{minus}{func}({args})"
    return f"{minus}({chain(rng, depth - 1)})"


def chain(rng, depth=2):
    """Operands joined by one to five binary operators, unparenthesized."""
    text = operand(rng, depth)
    for _ in range(int(rng.integers(1, 6))):
        text += f" {pick(rng, OPERATORS)} {operand(rng, depth)}"
    return text


def test_parse_agrees_with_python_on_operator_chains():
    rng = np.random.default_rng(2026)
    sources = ["--x ^ -2 ^ t * 3 - y / max(t, 2)"]
    sources += [chain(rng) for _ in range(2000)]
    mismatches = [src for src in sources
                  if ex.parse(src) != from_python(
                      ast.parse(src.replace("^", "**"), mode="eval").body)]
    assert not mismatches, mismatches[:3]
    # every operator meets every other one and a unary minus on its right
    for a in OPERATORS:
        assert any(f" {a} --" in src for src in sources), a
        for b in OPERATORS:
            assert any(f" {a} " in src and f" {b} " in src
                       for src in sources), (a, b)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def test_parse_vector():
    assert ex.parse_vector("(x, -t^2)") == (ex.parse("x"), ex.parse("-t^2"))
    assert ex.parse_vector(" (min(x, y)) ") == (ex.parse("min(x, y)"),)
    assert len(ex.parse_vector("(1, (2), 3)")) == 3


@pytest.mark.parametrize("src, offset, needle", [
    ("0, 1", 0, "a vector is written"),            # a missing '('
    ("x + (0, 1)", 0, "a vector is written"),
    ("(0, 1))", 6, "unbalanced parentheses"),      # a stray ')'
    ("(0, 1) * 2", 7, r"unexpected trailing '\*'"),
    ("(0, sin(1)", 10, r"expected '\)'"),          # a missing ')'
    ("(0, )", 4, r"unexpected '\)'"),              # an empty component
    ("(, 1)", 1, "unexpected ','"),
    ("()", 1, r"unexpected '\)'"),
])
def test_parse_vector_errors_carry_offsets(src, offset, needle):
    with pytest.raises(ex.ExprSyntaxError, match=needle) as err:
        ex.parse_vector(src)
    assert err.value.offset == offset
    assert str(err.value).endswith(f"(byte {offset})")


# ---------------------------------------------------------------------------
# bind
# ---------------------------------------------------------------------------

# x = 0, 1, 2 and y = 0 meet the generator's atoms, so divisions by zero
# and negative roots happen on some points
BIND_POINTS = (np.array([0.0, 0.5, 1.0, 2.0, -0.75]),
               np.array([0.0, 0.25, 1.0, 0.0, 3.0]))
BIND_TIMES = (0.0, 0.25, 1.0, 2.0, 3.5)


def uses_t(e):
    if isinstance(e, ex.Var):
        return e.name == "t"
    return any(uses_t(c) for c in children(e))


def children(e):
    return e.args if isinstance(e, ex.Call) else ()


def t_free_parts(e):
    """The maximal t-free subtrees of e, in evaluation order."""
    if not uses_t(e):
        return [e]
    return [p for c in children(e) for p in t_free_parts(c)]


def domain_error(e, point):
    """The message of the first domain error of e on point, or None."""
    try:
        ex.evaluate(e, 0.0, point)
    except ex.ExprError as exc:
        return str(exc)
    return None


def test_bind_matches_evaluate_bit_for_bit():
    rng = np.random.default_rng(1717)
    raised_at_bind = raised_later = 0
    for _ in range(400):
        e = ex.parse(expression(rng, depth=4))
        errors = [domain_error(p, BIND_POINTS) for p in t_free_parts(e)]
        first = next((m for m in errors if m is not None), None)
        try:
            bound = ex.bind(e, BIND_POINTS)
        except ex.ExprError as exc:
            # a t-free part left its domain: bind reports the first one,
            # and no time can evaluate the expression either
            assert str(exc) == first, e
            for t in BIND_TIMES:
                with pytest.raises(ex.ExprError):
                    ex.evaluate(e, t, BIND_POINTS)
            raised_at_bind += 1
            continue
        assert first is None, e
        for t in BIND_TIMES:
            try:
                want = np.broadcast_to(ex.evaluate(e, t, BIND_POINTS),
                                       BIND_POINTS[0].shape)
            except ex.ExprError as exc:
                with pytest.raises(type(exc)) as err:
                    bound(t)
                assert str(err.value) == str(exc), e
                raised_later += 1
                continue
            got = bound(t)
            assert got.shape == want.shape, e
            assert got.tobytes() == want.tobytes(), e
    # the generator reaches both kinds of domain error
    assert raised_at_bind and raised_later


def test_bind_checks_t_free_parts_once_and_the_rest_at_each_t():
    xs = (np.array([0.0, 1.0]),)
    with pytest.raises(ex.ExprDomainError, match="division by zero"):
        ex.bind(ex.parse("t + 1/(x - 1)"), xs)
    bound = ex.bind(ex.parse("x/(t - 1)"), xs)
    assert bound(0.0).tolist() == [-0.0, -1.0]
    with pytest.raises(ex.ExprDomainError, match="division by zero"):
        bound(1.0)
    # a constant is broadcast to the points, read-only
    const = ex.bind(ex.parse("2*3"), xs)(7.0)
    assert const.tolist() == [6.0, 6.0] and not const.flags.writeable
