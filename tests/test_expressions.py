import math

import pytest
import sympy as sp

from weingarten.expressions import (
    EvalDomainError,
    ParseError,
    diff_expr,
    eval_expr,
    parse_equation,
    parse_expression,
    render_expr,
)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("3 + $")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse_expression("sin(r1")
    with pytest.raises(ParseError):
        parse_equation("r1 + r2")  # no '='


@pytest.mark.parametrize("text, position", [(".", 0), ("r1 + .", 5), ("2 * . + r1", 4)])
def test_lone_dot_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as exc:
        parse_expression(text)
    assert exc.value.position == position


@pytest.mark.parametrize("text, value", [
    ("2 + 3*4", 14.0),
    ("2^3", 8.0),            # single literal exponent per factor
    ("-r1^2", -9.0),
    ("(1 + r1)/2", 2.0),
    ("sqrt(abs(0 - 16))", 4.0),
    ("exp(0) + ln(1) + cos(0)", 2.0),
])
def test_eval(text, value):
    assert eval_expr(parse_expression(text), {"r1": 3.0}) == pytest.approx(value)


def test_domain_errors_not_nan():
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expression("ln(0 - 1)"), {})
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expression("sqrt(0 - 1)"), {})
    with pytest.raises(ZeroDivisionError):
        eval_expr(parse_expression("1/(r1 - 3)"), {"r1": 3.0})


@pytest.mark.parametrize("text", [
    "r1^3 - 2*r1 + 5",
    "sin(r1)*cos(r1)",
    "exp(r1^2)/(1 + r1^2)",
    "ln(r1) + sqrt(r1)",
    "1/(2*r1 - 1)",
])
def test_derivative_matches_sympy(text):
    tree = parse_expression(text)
    deriv = diff_expr(tree, "r1")
    x = sp.Symbol("r1", positive=True)
    sym = sp.diff(sp.sympify(text.replace("ln", "log"), locals={"r1": x}), x)
    for u in (0.7, 1.3, 2.9):
        got = eval_expr(deriv, {"r1": u})
        want = float(sym.subs(x, u))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("text", [
    "r2 = 3*r1 - 5",
    "k1 + k2 = 4",
    "r2 = sin(r1)/(1 + r1^2)",
    "H = 2*K - 1",
])
def test_render_round_trip(text):
    lhs, rhs = parse_equation(text)
    for tree in (lhs, rhs):
        again = parse_expression(render_expr(tree))
        env = {"r1": 0.37, "r2": 1.21, "k1": 0.9, "k2": 1.4, "H": 1.15, "K": 1.26}
        assert eval_expr(again, env) == pytest.approx(eval_expr(tree, env), rel=1e-14)
