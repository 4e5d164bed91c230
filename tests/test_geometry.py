import math

import numpy as np
import pytest
import sympy as sp

from weingarten import (
    GaussAngle,
    LinearHopf,
    RoCProfile,
    StepControl,
    SupportProfile,
    cm_residual,
    curvatures_from_support,
    embed_profile,
    integrate_cm,
    integrated_cm_check,
    parse_relation,
    support_from_r1,
)
from weingarten.geometry import FlatPointError, SingularEvaluationError


def support_from_sympy(expr_str: str, grid: np.ndarray) -> SupportProfile:
    """Analytic support profile with sympy-differentiated callbacks (oracle)."""
    th = sp.Symbol("theta", positive=True)
    expr = sp.sympify(expr_str, locals={"theta": th})
    r = sp.lambdify(th, expr)
    rd = sp.lambdify(th, sp.diff(expr, th))
    rdd = sp.lambdify(th, sp.diff(expr, th, 2))
    return SupportProfile.from_callables(grid, r, rd, rdd)


GRID = np.linspace(0.3, math.pi - 0.3, 201)


def two_sine_profile(grid=GRID) -> RoCProfile:
    """(r1, r2) = (sin, 2 sin): the closed-form member of r2 = 2 r1."""
    def ev(theta):
        theta = np.asarray(theta, dtype=float)
        return np.array([np.sin(theta), 2.0 * np.sin(theta)])
    return RoCProfile(grid, np.sin(grid), 2.0 * np.sin(grid), evaluator=ev)


class TestCurvaturesFromSupport:
    def test_round_sphere(self):
        s = support_from_sympy("2.5", GRID)
        p = curvatures_from_support(s)
        assert np.allclose(p.r1, 2.5, atol=1e-12)
        assert np.allclose(p.r2, 2.5, atol=1e-12)

    def test_parallel_translated_sphere(self):
        # adding v*cos(theta) moves the center: curvatures unchanged
        s = support_from_sympy("2.5 + 0.7*cos(theta)", GRID)
        p = curvatures_from_support(s)
        assert np.allclose(p.r1, 2.5, atol=1e-12)
        assert np.allclose(p.r2, 2.5, atol=1e-12)

    def test_symbolic_oracle_two_sine(self):
        s = support_from_sympy("sin(theta) - theta*cos(theta)", GRID)
        p = curvatures_from_support(s)
        assert np.allclose(p.r1, np.sin(GRID), atol=1e-12)
        assert np.allclose(p.r2, 2.0 * np.sin(GRID), atol=1e-12)

    def test_pole_sample_without_limit_raises(self):
        grid = np.linspace(0.0, 1.0, 11)
        s = support_from_sympy("1.0", grid)
        with pytest.raises(SingularEvaluationError):
            curvatures_from_support(s)
        p = curvatures_from_support(s, pole_limits={0.0: (1.0, 1.0)})
        assert p.r1[0] == 1.0


class TestSupportFromR1:
    def test_sphere_any_anchor(self):
        grid = GRID
        p = RoCProfile(grid, np.full_like(grid, 2.0), np.full_like(grid, 2.0))
        s = support_from_r1(p, math.pi / 3.0, 2.0)
        assert np.allclose(s.value(grid), 2.0, atol=1e-10)

    def test_symbolic_integration_oracle(self):
        p = two_sine_profile()
        anchor = math.sin(math.pi / 3.0) - (math.pi / 3.0) * math.cos(math.pi / 3.0)
        s = support_from_r1(p, math.pi / 3.0, anchor)
        want = np.sin(GRID) - GRID * np.cos(GRID)
        assert np.max(np.abs(s.value(GRID) - want)) <= 1e-8

    def test_hopf_sphere_member(self):
        # LinearHopf(0.1, 3, A0=0): constant r1 = 10/3 is a round sphere
        grid = GRID
        val = 10.0 / 3.0
        p = RoCProfile(grid, np.full_like(grid, val), np.full_like(grid, val))
        s = support_from_r1(p, math.pi / 3.0, val)
        assert np.allclose(s.value(grid), val, atol=1e-10)

    def test_round_trip_reproduces_curvatures(self):
        p = two_sine_profile()
        s = support_from_r1(p, 1.0, float(p.r1_at(1.0)) * 0.9)  # nonzero K branch
        back = curvatures_from_support(s)
        assert np.max(np.abs(back.r1 - p.r1)) <= 1e-8
        assert np.max(np.abs(back.r2 - p.r2)) <= 1e-7

    def test_equator_anchor_rejected(self):
        p = two_sine_profile()
        with pytest.raises(SingularEvaluationError):
            support_from_r1(p, math.pi / 2.0, 1.0)

    @pytest.mark.parametrize("relation", ["r2 = 3*r1 - 1", "r2 = 2*r1 + sin(r1)/10"])
    def test_rddot_matches_pointwise_dense_evaluator(self, relation):
        # rddot = cos*(C0 + I) + sin*g with g = (r2 - r1)/sin; the reference
        # takes g from one dense-evaluator call per sample
        p = integrate_cm(parse_relation(relation), math.pi / 2.0, 1.0, (0.2, math.pi - 0.2))
        assert p.evaluator is not None
        s = support_from_r1(p, math.pi / 3.0, 0.7)
        g = np.array([(float(p.r2_at(u)) - float(p.r1_at(u))) / math.sin(u) for u in p.grid])
        sing, cosg = np.sin(p.grid), np.cos(p.grid)
        want = cosg * (s.rdot_arr / sing) + sing * g
        assert np.max(np.abs(s.rddot_arr - want)) <= 1e-12 * np.max(np.abs(want))


class TestEmbedProfile:
    def test_sphere(self):
        grid = GRID
        p = RoCProfile(grid, np.full_like(grid, 2.0), np.full_like(grid, 2.0))
        emb = embed_profile(p, h_anchor=2.0 * math.cos(grid[0]))
        assert np.allclose(emb.rho, 2.0 * np.sin(grid), atol=1e-12)
        assert np.allclose(emb.h, 2.0 * np.cos(grid), atol=1e-9)

    def test_two_sine_closed_form(self):
        # h' = -2 sin^2: h = sin cos - theta + const
        p = two_sine_profile()
        emb = embed_profile(p, h_anchor=0.0)
        want = np.sin(GRID) * np.cos(GRID) - GRID
        want -= want[0]
        assert np.allclose(emb.rho, np.sin(GRID) ** 2, atol=1e-12)
        # composite-Simpson truncation at this 201-point grid size
        assert np.max(np.abs(emb.h - want)) <= 5e-9

    def test_flat_point_errors(self):
        grid = np.linspace(0.3, 1.0, 33)
        p = RoCProfile(grid, np.ones_like(grid), np.full_like(grid, np.inf))
        with pytest.raises(FlatPointError):
            embed_profile(p)

    def test_slope_invariant(self):
        p = two_sine_profile()
        emb = embed_profile(p)
        res = emb.slope_residual()
        # dh/drho = -tan(theta) away from the equator (where drho/dtheta = 0)
        interior = np.abs(GRID - math.pi / 2.0) > 0.15
        assert np.max(np.abs(res[interior])) <= 1e-5


class TestCmResidual:
    def test_sphere_zero(self):
        grid = GRID
        p = RoCProfile(grid, np.full_like(grid, 2.0), np.full_like(grid, 2.0))
        assert np.max(np.abs(cm_residual(p))) <= 1e-10

    def test_two_sine_zero(self):
        res = cm_residual(two_sine_profile())
        assert np.max(np.abs(res)) <= 1e-8

    def test_identity_profile_residual_one(self):
        grid = GRID
        p = RoCProfile(grid, grid.copy(), grid.copy())
        res = cm_residual(p)
        assert np.allclose(res, 1.0, atol=1e-7)

    def test_pole_grid_rejected(self):
        grid = np.linspace(0.0, 1.0, 33)
        p = RoCProfile(grid, np.ones_like(grid), np.ones_like(grid))
        with pytest.raises(SingularEvaluationError):
            cm_residual(p)


class TestIntegratedCmCheck:
    def test_sphere(self):
        grid = GRID
        p = RoCProfile(grid, np.full_like(grid, 1.3), np.full_like(grid, 1.3))
        assert abs(integrated_cm_check(p, 0.4, 2.0)) <= 1e-10

    def test_two_sine_quadrature_vs_closed_form(self):
        p = two_sine_profile()
        assert abs(integrated_cm_check(p, math.pi / 4.0, math.pi / 2.0)) <= 1e-8

    def test_identity_profile_defect(self):
        grid = GRID
        p = RoCProfile(grid, grid.copy(), grid.copy())
        defect = integrated_cm_check(p, math.pi / 4.0, math.pi / 2.0)
        assert defect == pytest.approx(math.pi / 4.0, abs=1e-10)


def test_translation_invariance_of_curvatures(rng):
    # adding v*cos(theta) to any support leaves r1 and r2 unchanged
    for _ in range(5):
        a, b, v = rng.uniform(0.5, 2.0,), rng.uniform(-0.3, 0.3), rng.uniform(-1, 1)
        base = f"{float(a)} + {float(b)}*sin(2*theta)"
        s0 = support_from_sympy(base, GRID)
        s1 = support_from_sympy(f"{base} + {float(v)}*cos(theta)", GRID)
        p0 = curvatures_from_support(s0)
        p1 = curvatures_from_support(s1)
        assert np.allclose(p0.r1, p1.r1, atol=1e-10)
        assert np.allclose(p0.r2, p1.r2, atol=1e-10)


class TestDeclaredFields:
    def test_undeclared_attribute_rejected(self):
        with pytest.raises(AttributeError):
            two_sine_profile().relation_text = "r2 = 2*r1"
        with pytest.raises(AttributeError):
            support_from_sympy("2.5", GRID).anchor = 0.0

    def test_restricted_carries_declared_fields(self):
        fields = {"relation": LinearHopf(2.0, 0.0), "support": support_from_sympy("2.5", GRID),
                  "s_fn": math.sin, "r1_excess_fn": math.cos}
        prof = RoCProfile(GRID, np.sin(GRID), 2.0 * np.sin(GRID), **fields)
        sub = prof.restricted(0.5, 2.0)
        for name, value in fields.items():
            assert getattr(sub, name) is value, name

    def test_integrated_support_makes_one_callback_call_per_array(self, monkeypatch):
        prof = integrate_cm(LinearHopf(2.0, 0.0), math.pi / 2.0, 1.0,
                            step_control=StepControl(grid_step=0.01))
        s = prof.support
        for method, callback in (("value", "r_fun"), ("rdot", "rdot_fun"),
                                 ("rddot", "rddot_fun")):
            calls = []
            inner = getattr(s, callback)
            monkeypatch.setattr(s, callback, lambda th, f=inner: calls.append(th) or f(th))
            got = getattr(s, method)(prof.grid)
            assert len(calls) == 1, method
            pointwise = np.array([getattr(s, method)(float(th)) for th in prof.grid])
            # one array dense query against one query per point: the
            # interpolant's dot products may round differently (<= 1 ulp)
            assert np.max(np.abs(got - pointwise)) <= 4.5e-16 * np.max(np.abs(pointwise)), method

    def test_from_callables_answers_scalars_and_arrays(self):
        s = SupportProfile.from_callables(GRID, lambda t: 2.0 + math.sin(t), math.cos,
                                          lambda t: 0.0)
        assert isinstance(s.value(0.5), float)
        assert s.value(0.5) == 2.0 + math.sin(0.5)
        assert np.array_equal(s.r, 2.0 + np.sin(GRID))
        assert np.array_equal(s.rdot(GRID), np.cos(GRID))
        assert np.array_equal(s.rddot(GRID[:3]), np.zeros(3))


def test_gauss_angle_validation():
    with pytest.raises(ValueError):
        GaussAngle(-0.1)
    with pytest.raises(ValueError):
        GaussAngle(math.pi + 0.1)
    assert GaussAngle(0.0).is_pole
    assert GaussAngle(math.pi).is_pole
    assert GaussAngle(1.0).interior
