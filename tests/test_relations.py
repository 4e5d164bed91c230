import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from weingarten import (
    CubicRoC,
    ExplicitF,
    LinearHopf,
    PureKLinear,
    SemiQuadratic,
    eval_F,
    eval_F_prime,
    fixed_points,
    parse_relation,
    render_relation,
)
from weingarten import expressions as ex
from weingarten.expressions import BinOp, Const, EvalDomainError, Func, Var, parse_expression
from weingarten.relations import eval_F_float
from weingarten.relations import RelationError


class TestParse:
    def test_linear_hopf_from_figure(self):
        rel = parse_relation("r2 = 3*r1 - 5")
        assert rel == LinearHopf(3.0, -5.0)

    def test_cmc_from_figure(self):
        rel = parse_relation("k1 + k2 = 4")
        assert rel == SemiQuadratic(0.0, 1.0, 1.0, -4.0)

    def test_totally_umbilic(self):
        assert parse_relation("r2 = r1") == PureKLinear(1.0)

    def test_pure_r_linear_canonicalizes_to_k_linear(self):
        # r2 = lam*r1 is k2 = (1/lam)*k1
        assert parse_relation("r2 = 0.5*r1") == PureKLinear(2.0)

    def test_h_k_expansion(self):
        rel = parse_relation("2*H + 3*K = 1")
        # 3 k1 k2 + k1 + k2 - 1 = 0
        assert rel == SemiQuadratic(3.0, 1.0, 1.0, -1.0)

    def test_cubic(self):
        assert parse_relation("r2 = 4*r1^3") == CubicRoC(2.0)

    def test_explicit_fallback(self):
        rel = parse_relation("r2 = sin(r1) + 2")
        assert isinstance(rel, ExplicitF)

    def test_ambiguous_rejected(self):
        with pytest.raises(RelationError):
            parse_relation("r2^2 = r1")          # not solvable linearly for r2
        with pytest.raises(RelationError):
            parse_relation("k1*k2^2 = 1")        # not semi-quadratic
        with pytest.raises(RelationError):
            parse_relation("r2 = k1")            # mixed variables

    def test_syntax_error_position(self):
        from weingarten.expressions import ParseError

        with pytest.raises(ParseError) as exc:
            parse_relation("r2 == r1")
        assert exc.value.position >= 0

    def test_lone_dot_position(self):
        from weingarten.expressions import ParseError

        with pytest.raises(ParseError) as exc:
            parse_relation("r2 = .")
        assert exc.value.position == 5


class TestEvalF:
    def test_linear_hopf(self):
        assert float(eval_F(LinearHopf(3.0, -5.0), 2.0)) == pytest.approx(1.0)

    def test_cmc_reciprocal_conversion(self):
        # k2 = -(beta k1 + delta)/(alpha k1 + gamma) converted through reciprocals
        rel = SemiQuadratic(0.0, 1.0, 1.0, -4.0)
        assert float(eval_F(rel, 1.0)) == pytest.approx(1.0 / 3.0)

    def test_pure_k_linear_identity(self):
        for u in (-2.0, 0.5, 7.0):
            assert float(eval_F(PureKLinear(1.0), u)) == pytest.approx(u)

    def test_vertical_asymptote_gives_infinity(self):
        rel = SemiQuadratic(0.0, 1.0, 1.0, -4.0)  # F(u) = u/(4u - 1)
        assert np.isinf(eval_F(rel, 0.25))

    def test_infinity_input(self):
        assert np.isinf(eval_F(LinearHopf(2.0, 1.0), np.inf))
        rel = SemiQuadratic(0.0, 1.0, 1.0, -4.0)
        assert float(eval_F(rel, np.inf)) == pytest.approx(0.25)

    def test_flat_pure_k_linear_float_path_matches(self):
        # k2 = 0: the array path gives 0 at u = 0 and infinity elsewhere, without warnings
        rel = PureKLinear(0.0)
        u = np.array([0.0, 1.0, -2.0])
        want = [float(eval_F(rel, x)) for x in u]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert eval_F_float(rel, u).tolist() == want
            assert [float(eval_F_float(rel, x)) for x in u] == want


class TestEvalFPrime:
    def test_linear(self):
        assert eval_F_prime(LinearHopf(0.7, 5.0), 123.0) == pytest.approx(0.7)

    def test_cubic(self):
        assert eval_F_prime(CubicRoC(1.0), 2.0) == pytest.approx(12.0)

    def test_semiquadratic(self):
        rel = SemiQuadratic(0.0, 1.0, 1.0, -4.0)
        assert eval_F_prime(rel, 1.0) == pytest.approx(-1.0 / 9.0)

    @pytest.mark.parametrize("rel, us", [
        (LinearHopf(2.5, -1.0), (0.4, 2.2)),
        (CubicRoC(0.8), (0.3, 1.5)),
        (SemiQuadratic(0.3, 1.2, -0.4, 0.7), (0.5, 2.0)),
        (ExplicitF(__import__("weingarten.expressions", fromlist=["parse_expression"])
                   .parse_expression("sin(r1) + r1^2")), (0.4, 1.1)),
    ])
    def test_matches_finite_differences(self, rel, us):
        h = 1e-6
        for u in us:
            fd = (float(eval_F(rel, u + h)) - float(eval_F(rel, u - h))) / (2 * h)
            assert eval_F_prime(rel, u) == pytest.approx(fd, abs=1e-6)


class TestFixedPoints:
    def test_cmc(self):
        roots = fixed_points(SemiQuadratic(0.0, 1.0, 1.0, -4.0), (0.1, 3.0))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-10)

    def test_pure_k_linear_origin_only(self):
        assert fixed_points(PureKLinear(2.0), (0.5, 10.0)) == []
        roots = fixed_points(PureKLinear(2.0), (-1.0, 1.0))
        assert len(roots) == 1 and roots[0] == pytest.approx(0.0, abs=1e-10)

    def test_linear_hopf(self):
        roots = fixed_points(LinearHopf(3.0, -3.0), (0.0, 4.0))
        assert len(roots) == 1 and roots[0] == pytest.approx(1.5, abs=1e-10)

    def test_cubic_multiple(self):
        roots = fixed_points(CubicRoC(1.0), (-2.0, 2.0))
        assert np.allclose(sorted(roots), [-1.0, 0.0, 1.0], atol=1e-10)


def test_semiquadratic_eval_matches_solving_oracle(rng):
    # solve alpha k1 k2 + beta k1 + gamma k2 + delta = 0 for k2, then invert
    for _ in range(1000):
        al, be, ga, de = rng.normal(size=4)
        try:
            rel = SemiQuadratic(al, be, ga, de)
        except RelationError:
            continue
        r1 = rng.uniform(0.2, 3.0)
        k1 = 1.0 / r1
        den = al * k1 + ga
        if abs(den) < 1e-6:
            continue
        k2 = -(be * k1 + de) / den
        if abs(k2) < 1e-9:
            continue
        want = 1.0 / k2
        got = eval_F(rel, r1)
        assert not np.isinf(got)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


hopf_strategy = st.builds(
    LinearHopf,
    st.floats(-4, 4).filter(lambda x: abs(x - 1) > 1e-3),
    st.floats(-5, 5).filter(lambda x: abs(x) > 1e-6),
)
sq_strategy = st.builds(
    SemiQuadratic,
    st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3),
    st.floats(-3, 3).filter(lambda x: abs(x) > 1e-3),
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(hopf_strategy, sq_strategy,
                 st.builds(CubicRoC, st.floats(0.1, 3)),
                 st.builds(PureKLinear, st.floats(-3, 3).filter(lambda x: abs(x) > 1e-3))))
def test_parse_render_round_trip(rel):
    again = parse_relation(render_relation(rel))
    assert type(again) is type(rel)
    for field in ("lam", "C", "alpha", "beta", "gamma", "delta"):
        if hasattr(rel, field):
            assert getattr(again, field) == pytest.approx(getattr(rel, field), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# one evaluation path: conventions, agreement and the compiled closures


class TestConventionsAtInfinity:
    @pytest.mark.parametrize("rel, u, want", [
        (LinearHopf(0.0, 2.0), np.inf, 2.0),
        (LinearHopf(-3.0, 2.0), np.inf, np.inf),
        (PureKLinear(-2.0), np.inf, np.inf),
        (PureKLinear(-2.0), -np.inf, np.inf),
        (CubicRoC(1.0), -np.inf, np.inf),
        (SemiQuadratic(0.0, 1.0, 1.0, -4.0), np.inf, 0.25),
        # degenerate: F(u) = -(u + 1)/(u + 1) reads 0/0 at u = -1
        (SemiQuadratic(1.0, 1.0, 1.0, 1.0), -1.0, np.inf),
    ])
    def test_array_and_scalar_paths_agree(self, rel, u, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert eval_F_float(rel, u) == want
            assert eval_F_float(rel, np.array([u, u])).tolist() == [want, want]
            assert float(eval_F(rel, u)) == want

    def test_explicit_relation_undefined_at_infinity(self):
        rel = parse_relation("r2 = sin(r1) + 2")
        for u in (np.inf, -np.inf, np.array([1.0, np.inf])):
            with pytest.raises(EvalDomainError):
                eval_F_float(rel, u)
        with pytest.raises(EvalDomainError):
            eval_F(rel, np.inf)

    def test_pole_and_overflow_give_plus_infinity(self):
        rel = parse_relation("r2 = r1 - 1/(r1 - 2) - exp(r1)")
        assert np.isinf(eval_F(rel, 2.0))
        assert eval_F_float(rel, np.array([2.0, 800.0, 0.0])).tolist() \
            == [np.inf, np.inf, pytest.approx(-0.5)]


@pytest.mark.parametrize("text, outside, edge", [
    ("r2 = ln(r1) + 2", 0.0, 1e-300),
    ("r2 = r1^-1 + 1", 0.0, 1e-300),
    ("r2 = sqrt(r1) + 1", -1e-300, 0.0),
    ("r2 = r1^1.5 + 1", -1e-300, 0.0),
])
def test_F_domain_edges(text, outside, edge):
    # ln of 0 and 0 to a negative power leave the domain; they are not poles
    rel = parse_relation(text)
    for u in (outside, np.array([1.0, outside])):
        with pytest.raises(EvalDomainError):
            eval_F_float(rel, u)
    assert np.isfinite(eval_F_float(rel, edge))


class TestFPrimeDomain:
    @pytest.mark.parametrize("text, u", [("r2 = sqrt(r1) + r1", 0.0),
                                         ("r2 = r1 + 1/(r1 - 2)", 2.0),
                                         ("r2 = ln(r1) + r1", -1.0)])
    def test_undefined_slope_raises_domain_error(self, text, u):
        rel = parse_relation(text)
        with pytest.raises(EvalDomainError):
            eval_F_prime(rel, u)
        with pytest.raises(EvalDomainError):
            eval_F_prime(rel, np.array([1.0, u, 3.0]))
        assert eval_F_prime(rel, np.array([1.0, 3.0])).shape == (2,)


def test_compiled_closures_built_once_per_relation(monkeypatch):
    calls = []
    compile_expr = ex.compile_expr

    def counting(node, *args):
        calls.append(node)
        return compile_expr(node, *args)

    monkeypatch.setattr(ex, "compile_expr", counting)
    rel = ExplicitF(parse_expression("r1^2 + sin(r1)/10 - 1"))
    for u in (0.5, np.linspace(0.1, 2.0, 7)):
        eval_F_float(rel, u)
        eval_F_prime(rel, u)
    eval_F(rel, 1.5)
    fixed_points(rel, (-3.0, 3.0))
    assert len(calls) == 2
    ExplicitF(rel.expr).compiled  # another relation compiles its own
    assert len(calls) == 3


# random trees in the form the parser builds them: non-negative decimal
# literals, literal exponents, and unary minus as (-1) * x
decimal = st.one_of(st.integers(0, 9).map(Fraction),
                    st.integers(1, 99).map(lambda n: Fraction(n, 10)))
exponent = st.sampled_from([Fraction(n) for n in (-2, -1, 0, 1, 2, 3)] + [Fraction(1, 2), Fraction(-3, 2)])


def _trees(leaf):
    def extend(children):
        return st.one_of(
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(lambda base, n: BinOp("^", base, Const(n)), children, exponent),
            st.builds(lambda x: BinOp("*", Const(Fraction(-1)), x), children),
            st.builds(Func, st.sampled_from(["sin", "cos", "exp", "abs", "ln", "sqrt"]), children),
        )
    return st.recursive(leaf, extend, max_leaves=8)


trees = _trees(st.one_of(decimal.map(Const), st.just(Var("r1"))))
relations = st.one_of(
    st.builds(LinearHopf, st.floats(-4, 4), st.floats(-5, 5)),
    st.builds(PureKLinear, st.floats(-3, 3)),
    st.builds(CubicRoC, st.floats(0, 3)),
    st.tuples(*[st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0])] * 4)
    .filter(any).map(lambda c: SemiQuadratic(*c)),
    trees.map(ExplicitF),
)
# a grid with the usual pole and domain-edge points of the trees above
points = np.array([-np.inf, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, np.inf])


def _scalar(fn, *args) -> str:
    """repr of the float result (so nan == nan), or 'undefined'."""
    try:
        return repr(float(fn(*args)))
    except EvalDomainError:
        return "undefined"


@settings(max_examples=300, deadline=None)
@given(relations)
def test_scalar_eval_F_agrees_with_the_array_path(rel):
    per_point = [_scalar(eval_F, rel, u) for u in points]
    assert per_point == [_scalar(eval_F_float, rel, u) for u in points]
    defined = np.array([v != "undefined" for v in per_point])
    if not defined.all():
        with pytest.raises(EvalDomainError):
            eval_F_float(rel, points)
    got = eval_F_float(rel, points[defined])
    assert [repr(v) for v in got.tolist()] == [v for v in per_point if v != "undefined"]
    assert "-inf" not in per_point


def _to_sympy(node, x):
    if isinstance(node, Const):
        return sp.Rational(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Func):
        f = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "abs": sp.Abs,
             "ln": sp.log, "sqrt": sp.sqrt}[node.name]
        return f(_to_sympy(node.arg, x))
    a, b = _to_sympy(node.left, x), _to_sympy(node.right, x)
    return {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv, "^": operator.pow}[node.op](a, b)


def _sympy_F(rel, x):
    if isinstance(rel, LinearHopf):
        return sp.Float(rel.lam) * x + sp.Float(rel.C)
    if isinstance(rel, PureKLinear):
        # k2 = 0 is a convention (0 at 0, infinity elsewhere), not a formula
        return x / sp.Float(rel.lam) if rel.lam != 0.0 else None
    if isinstance(rel, CubicRoC):
        return sp.Float(rel.gamma) ** 2 * x ** 3
    if isinstance(rel, SemiQuadratic):
        a, b, g, d = (sp.Float(c) for c in rel.coefficients())
        return -(g * x + a) / (d * x + b)
    return _to_sympy(rel.expr, x)


def _sympy_value(expr, x, u: float):
    """expr at u as a complex number; None where sympy finds no finite one."""
    try:
        want = complex(expr.subs(x, sp.Rational(u)).evalf(30))
    except TypeError:  # zoo, nan
        return None
    return want if np.isfinite(want) else None


def _is_real(want) -> bool:
    return want is not None and abs(want.imag) <= 1e-9 * max(1.0, abs(want))


def _subtrees(node):
    yield node
    for child in ((node.left, node.right) if isinstance(node, BinOp)
                  else (node.arg,) if isinstance(node, Func) else ()):
        yield from _subtrees(child)


def _check_each_operation(tree, x, u: float):
    """Every operation of ``tree`` at u against sympy applied to its float inputs.

    One operation at a time keeps the comparison well conditioned: a whole
    random tree such as sin(exp(r1^3)) at r1 = 3 turns the rounding of its
    inner values into errors far above any fixed tolerance.
    """
    try:
        values = {n: ex.eval_expr(n, {"r1": u}) for n in _subtrees(tree)}
    except (ZeroDivisionError, EvalDomainError):
        return  # a pole or a domain exit: the agreement tests cover those
    for n, value in values.items():
        if isinstance(n, Func):
            inputs, exact = [values[n.arg]], Func(n.name, Const(values[n.arg]))
        elif isinstance(n, BinOp):
            inputs = [values[n.left]] + ([] if n.op == "^" else [values[n.right]])
            exact = BinOp(n.op, Const(values[n.left]),
                          n.right if n.op == "^" else Const(values[n.right]))
        else:
            continue
        if np.any(np.isinf(inputs + [value])):
            continue  # an overflow; the pole and overflow test covers it
        want = _sympy_value(_to_sympy(exact, x), x, u)
        # every operation is real inside the domain, so F is real there
        assert _is_real(want), (n, u, value, want)
        assert value == pytest.approx(want.real, rel=1e-12, abs=1e-300), (n, u)


@settings(max_examples=150, deadline=None)
@given(relations)
@example(ExplicitF(Func("abs", Func("sqrt", Var("r1")))))
def test_F_and_array_F_prime_match_points_and_sympy(rel):
    finite = points[np.isfinite(points)]
    per_point = [_scalar(eval_F_prime, rel, u) for u in finite]
    defined = np.array([v != "undefined" for v in per_point])
    if not defined.all():
        with pytest.raises(EvalDomainError):
            eval_F_prime(rel, finite)
    got = eval_F_prime(rel, finite[defined])
    assert [repr(v) for v in got.tolist()] == [v for v in per_point if v != "undefined"]
    x = sp.Symbol("r1", real=True)
    F = _sympy_F(rel, x)
    if F is None:
        return
    dF = sp.diff(F, x)
    if isinstance(rel, ExplicitF):
        # the float path operation by operation, and the derivative rules exactly,
        # where F is defined: outside its domain sympy may take a real branch
        # (Abs(sqrt(x)) is real for x < 0) that the derivative rules do not follow
        dtree = ex.diff_expr(rel.expr, "r1")
        for u in finite[[_scalar(eval_F_float, rel, u) != "undefined" for u in finite]]:
            _check_each_operation(rel.expr, x, float(u))
            _check_each_operation(dtree, x, float(u))
            want = _sympy_value(dF, x, float(u))
            got = _sympy_value(_to_sympy(dtree, x), x, float(u))
            if _is_real(want) and _is_real(got):
                assert got.real == pytest.approx(want.real, rel=1e-12, abs=1e-12)
        return
    # the closed forms are well conditioned on these points
    for u, slope in zip(finite, per_point):
        value = _scalar(eval_F_float, rel, u)
        want = _sympy_value(F, x, float(u))
        if value != "undefined" and np.isfinite(float(value)):
            assert _is_real(want) and float(value) == pytest.approx(want.real, rel=1e-9, abs=1e-9)
        want = _sympy_value(dF, x, float(u))
        if slope != "undefined" and _is_real(want):
            assert float(slope) == pytest.approx(want.real, rel=1e-9, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_parse_render_identity_on_random_trees(tree):
    assert parse_expression(ex.render_expr(tree)) == tree
