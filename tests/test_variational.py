import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from weingarten import (
    CubicL1Spec,
    CubicRoC,
    GeneralSpec,
    HopfL1Spec,
    L0Spec,
    LinearHopf,
    Multiplier,
    PureKLinear,
    SemiQuadratic,
    SupportProfile,
    VariationalState,
    eval_F,
    euler_lagrange_residual,
    first_integral_I,
    first_integral_Q,
    general_lagrangian,
    helmholtz_residual,
    integrate_cm,
    jlm_ratio_check,
    lagrangian_eval,
    parse_relation,
    phi0,
    second_variation,
    sine_perturbation_basis,
)
from weingarten import variational
from weingarten.numerics import adaptive_simpson
from weingarten.relations import eval_F_float
from weingarten.variational import SingularMultiplierError, lagrangian_partials


def two_sine_support(K=0.0, grid=None):
    """The r2 = 2 r1 family: r = sin - theta cos + K cos (analytic)."""
    grid = grid if grid is not None else np.linspace(0.3, 1.25, 40)
    return SupportProfile.from_callables(
        grid,
        lambda t: math.sin(t) - t * math.cos(t) + K * math.cos(t),
        lambda t: (t - K) * math.sin(t),
        lambda t: math.sin(t) + (t - K) * math.cos(t),
    )


class TestPhi0:
    def test_doubling_relation(self):
        m = Multiplier(LinearHopf(2.0, 0.0), 1.0)
        for u in (0.5, 1.0, 2.0, 3.0):
            assert m.phi0(u) == pytest.approx(u ** -2, rel=1e-12)

    def test_hopf_closed_form(self):
        lam, C = 0.25, 2.0
        m = Multiplier(LinearHopf(lam, C), 1.0)
        for u in (0.4, 1.0, 2.0):
            want = abs(C + (lam - 1.0) * u) ** (lam / (1.0 - lam))
            assert m.phi0(u) == pytest.approx(want, rel=1e-12)

    def test_cubic_closed_form(self):
        m = Multiplier(CubicRoC(1.5), 0.3)
        for u in (0.1, 0.3, 0.5):
            want = abs(1.0 - 1.5 ** 2 * u ** 2) ** -1.5
            assert m.phi0(u) == pytest.approx(want, rel=1e-12)

    def test_fixed_point_rejected(self):
        with pytest.raises(SingularMultiplierError):
            Multiplier(LinearHopf(3.0, -3.0), 1.5)
        m = Multiplier(LinearHopf(3.0, -3.0), 2.0)
        with pytest.raises(SingularMultiplierError):
            m.phi0(1.2)  # across the fixed point 1.5

    def test_numeric_path_matches_closed_form(self):
        # semi-quadratic CMC evaluated densely vs the Hopf-style oracle
        rel = SemiQuadratic(0.0, 1.0, 1.0, -4.0)
        m = Multiplier(rel, 1.0)
        # J' = 1/(u - u/(4u-1)) = (4u-1)/(2u(2u-1)); oracle by quadrature
        for u in (0.8, 1.5, 2.5):
            want = adaptive_simpson(
                lambda x: 1.0 / (x - float(eval_F(rel, x))), 1.0, u,
                abs_tol=1e-13, rel_tol=1e-12)
            assert m.J(u) == pytest.approx(want, abs=1e-9)

    def test_module_level_wrapper(self):
        assert phi0(LinearHopf(2.0, 0.0), 2.0, base_point=1.0) == pytest.approx(0.25)


class TestLagrangianEval:
    def test_hopf_l1_value(self):
        lam, C = 0.5, 2.0
        st = VariationalState(math.pi / 4.0, 1.0, 0.0)
        val = lagrangian_eval(HopfL1Spec(), LinearHopf(lam, C), st)
        want = (2.0 * C * 1.0 - (1.0 - lam) * 1.0) / (2.0 * math.sin(math.pi / 4.0) ** lam)
        assert val == pytest.approx(want, rel=1e-12)

    def test_l0_doubling_log_form(self):
        # lam = 2 degenerate: G2 = -ln|u| so L0 = -tan^2 ln r1
        rel = LinearHopf(2.0, 0.0)
        m = Multiplier(rel, 1.0)
        st = VariationalState(0.6, 1.0, 0.3)
        val = lagrangian_eval(L0Spec(), rel, st, m)
        want = -math.tan(0.6) ** 2 * math.log(st.r1)
        assert val == pytest.approx(want, rel=1e-10)

    def test_finite_at_zero_rdot(self):
        for spec, rel in ((L0Spec(), LinearHopf(2.0, 0.0)),
                          (HopfL1Spec(), LinearHopf(0.5, 1.0)),
                          (CubicL1Spec(), CubicRoC(1.0))):
            st = VariationalState(0.8, 0.5, 0.0)
            assert math.isfinite(lagrangian_eval(spec, rel, st))

    def test_l0_rejects_equator(self):
        with pytest.raises(SingularMultiplierError):
            lagrangian_eval(L0Spec(), LinearHopf(2.0, 0.0),
                            VariationalState(math.pi / 2.0, 1.0, 0.0))


class TestEulerLagrange:
    def test_solution_residual_small(self):
        rel = LinearHopf(2.0, 0.0)
        res = euler_lagrange_residual(L0Spec(), rel, two_sine_support(),
                                      mult=Multiplier(rel, 1.0))
        assert np.nanmax(np.abs(res["el"])) <= 1e-6
        assert np.nanmax(np.abs(res["defect"])) <= 1e-6

    def test_non_solution_identity_still_holds(self):
        # the multiplier identity holds off-shell: both sides nonzero but equal
        rel = LinearHopf(2.0, 0.0)
        grid = np.linspace(0.3, 1.25, 40)
        traj = SupportProfile.from_callables(
            grid,
            lambda t: 1.0 + 0.1 * math.sin(2.0 * t),
            lambda t: 0.2 * math.cos(2.0 * t),
            lambda t: -0.4 * math.sin(2.0 * t))
        res = euler_lagrange_residual(L0Spec(), rel, traj, mult=Multiplier(rel, 1.0))
        assert np.nanmax(np.abs(res["el"])) > 0.1
        assert np.nanmax(np.abs(res["defect"])) <= 1e-6

    def test_hopf_l1_on_sphere_member(self):
        # r2 = 0.5 r1 + 1 has the sphere member r = 2
        rel = LinearHopf(0.5, 1.0)
        grid = np.linspace(0.3, 1.25, 30)
        traj = SupportProfile.from_callables(grid, lambda t: 2.0,
                                             lambda t: 0.0, lambda t: 0.0)
        res = euler_lagrange_residual(HopfL1Spec(), rel, traj, analytic=True)
        assert np.nanmax(np.abs(res["el"])) <= 1e-10

    def test_singular_samples_skipped_and_other_rows_unchanged(self):
        # r1 = sin(theta) on this trajectory: 0.4 gives r1 = 0.389, outside the
        # multiplier's interval, and L0 is singular at pi/2
        rel = LinearHopf(2.0, 0.0)
        m = Multiplier(rel, 1.0, interval=(0.5, 1.5))
        traj = two_sine_support(grid=np.linspace(0.3, 1.7, 40))
        thetas = np.array([0.6, 0.8, 0.4, 1.0, math.pi / 2.0, 1.2])
        flagged = np.array([False, False, True, False, True, False])
        assert not m.defined(math.sin(0.4))
        full = euler_lagrange_residual(L0Spec(), rel, traj, thetas=thetas, mult=m)
        clean = euler_lagrange_residual(L0Spec(), rel, traj, thetas=thetas[~flagged], mult=m)
        np.testing.assert_array_equal(full["skipped"], flagged)
        assert not clean["skipped"].any()
        for key in ("el", "multiplier_form", "defect"):
            assert np.all(np.isnan(full[key][flagged])), key
            np.testing.assert_array_equal(full[key][~flagged], clean[key], err_msg=key)

    def test_analytic_partials_match_numeric(self):
        rel = CubicRoC(1.0)
        m = Multiplier(rel, 0.5)
        st = VariationalState(0.7, 0.45, 0.1)
        a = lagrangian_partials(CubicL1Spec(), rel, st, m, analytic=True)
        n = lagrangian_partials(CubicL1Spec(), rel, st, m, analytic=False)
        for key in a:
            assert a[key] == pytest.approx(n[key], rel=1e-5, abs=1e-6), key


class TestHelmholtz:
    def test_phi0_satisfies_pde(self, rng):
        rel = LinearHopf(2.0, 0.0)
        m = Multiplier(rel, 1.0)
        states = [VariationalState(float(rng.uniform(0.3, 1.4)),
                                   float(rng.uniform(0.5, 1.5)),
                                   float(rng.uniform(-0.3, 0.3)))
                  for _ in range(100)]
        states = [st for st in states if 0.45 < st.r1 < 2.9]
        res = helmholtz_residual(rel, lambda th, r, rd: m.phi0(rd / math.tan(th) + r),
                                 states, m)
        assert np.max(np.abs(res)) <= 1e-6

    def test_raw_form_fails_by_fprime_cot(self):
        rel = LinearHopf(2.0, 0.0)
        states = [VariationalState(0.7, 1.0, 0.2), VariationalState(1.1, 0.8, -0.1)]
        res = helmholtz_residual(rel, None, states)
        want = np.array([2.0 / math.tan(0.7), 2.0 / math.tan(1.1)])
        assert np.allclose(res, want, rtol=1e-12)

    def test_constant_shift_relation_degenerates(self):
        # F(u) = u + C has F' = 1 everywhere, so the multiplier PDE loses
        # its state dependence and a theta-only multiplier 1/sin solves it
        rel = LinearHopf(1.0, 2.0)
        states = [VariationalState(0.7, 1.0, 0.2), VariationalState(1.2, 0.4, 0.1)]
        res = helmholtz_residual(rel, lambda th, r, rd: 1.0 / math.sin(th), states)
        assert np.max(np.abs(res)) <= 1e-8
        raw = helmholtz_residual(rel, None, states)
        want = np.array([1.0 / math.tan(0.7), 1.0 / math.tan(1.2)])
        assert np.allclose(raw, want, rtol=1e-12)


class TestFirstIntegrals:
    def test_doubling_I_is_one(self):
        rel = LinearHopf(2.0, 0.0)
        m = Multiplier(rel, 1.0)
        traj = two_sine_support()
        for th in (0.4, 0.8, 1.2):
            st = VariationalState(th, float(traj.value(th)), float(traj.rdot(th)))
            assert first_integral_I(rel, st, m) == pytest.approx(1.0, rel=1e-10)

    def test_hopf_general_closed_form(self):
        lam, C = 3.0, -3.0
        rel = LinearHopf(lam, C)
        m = Multiplier(rel, 2.0)
        st = VariationalState(0.9, 1.7, 0.2)
        got = first_integral_I(rel, st, m)
        want = abs(C + (lam - 1.0) * st.r1) ** (-1.0 / (1.0 - lam)) / math.sin(0.9)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("K", [-1.0, 0.0, 2.0])
    def test_Q_recovers_axis_translation(self, K):
        rel = LinearHopf(2.0, 0.0)
        m = Multiplier(rel, 1.0)
        traj = two_sine_support(K)
        for th in (0.5, 1.0):
            st = VariationalState(th, float(traj.value(th)), float(traj.rdot(th)))
            assert first_integral_Q(rel, st, m) == pytest.approx(K, abs=1e-8)

    def test_sphere_member_constant(self):
        rel = SemiQuadratic(0, 1, 1, -4)
        m = Multiplier(rel, 1.0)
        sol = integrate_cm(rel, math.pi / 2.0, 1.0, (0.4, math.pi - 0.4))
        vals = []
        for th in (0.5, 0.9, 1.3):
            st = VariationalState(th, float(sol.support.value(th)),
                                  float(sol.support.rdot(th)))
            vals.append(first_integral_Q(rel, st, m, theta_base=0.45))
        assert np.ptp(vals) <= 1e-8 * max(1.0, np.max(np.abs(vals)))


class TestConservation:
    def test_drift_along_matrix(self, integrated_matrix):
        for rel, profile, bracket, q_base in integrated_matrix:
            traj = profile.support
            base = 0.5 * (bracket[0] + bracket[1])
            m = Multiplier(rel, base)
            ths = np.linspace(0.5, math.pi - 0.5, 9)
            Is, Qs = [], []
            for th in ths:
                st = VariationalState(float(th), float(traj.value(th)),
                                      float(traj.rdot(th)))
                Is.append(first_integral_I(rel, st, m))
                if abs(math.cos(th)) > 0.05:
                    Qs.append(first_integral_Q(rel, st, m, theta_base=max(q_base, 0.3)))
            Is, Qs = np.asarray(Is), np.asarray(Qs)
            assert (Is.max() - Is.min()) / abs(Is.mean()) <= 1e-6, rel
            qscale = max(abs(Qs.mean()), float(np.max(np.abs(Qs))), 1e-9)
            assert (Qs.max() - Qs.min()) / qscale <= 1e-5, rel


class TestJlmRatio:
    def test_ratio_of_jlms_constant(self):
        rel = LinearHopf(2.0, 0.0)
        m = Multiplier(rel, 1.0)
        sol = integrate_cm(rel, 0.75, 1.0, (0.3, 1.3))
        phi_a = lambda th, r, rd: m.phi0(rd / math.tan(th) + r)
        phi_b = lambda th, r, rd: 1.0 / math.sin(th) ** 2   # I^2 Phi0
        drift = jlm_ratio_check(rel, phi_a, phi_b, sol.support)
        assert np.max(np.abs(drift)) <= 1e-6

    def test_same_multiplier_exact_zero(self):
        rel = LinearHopf(2.0, 0.0)
        m = Multiplier(rel, 1.0)
        sol = integrate_cm(rel, 0.75, 1.0, (0.3, 1.3))
        phi_a = lambda th, r, rd: m.phi0(rd / math.tan(th) + r)
        drift = jlm_ratio_check(rel, phi_a, phi_a, sol.support)
        assert np.max(np.abs(drift)) == 0.0

    def test_constant_one_is_not_a_jlm(self):
        rel = LinearHopf(2.0, 0.0)
        m = Multiplier(rel, 1.0)
        sol = integrate_cm(rel, 0.75, 1.0, (0.3, 1.3))
        phi_a = lambda th, r, rd: m.phi0(rd / math.tan(th) + r)
        drift = jlm_ratio_check(rel, phi_a, lambda th, r, rd: 1.0, sol.support)
        assert np.max(np.abs(drift)) > 0.1


class TestSecondVariation:
    def test_l0_positive_and_integrand_identity(self, rng):
        rel = LinearHopf(2.0, 0.0)
        m = Multiplier(rel, 1.0)
        sol = integrate_cm(rel, 0.75, 1.0, (0.25, 1.3))
        basis = sine_perturbation_basis(6, 0.3, 1.2, rng=rng, extra_random=4)
        for v, vd in basis:
            d2 = second_variation(L0Spec(), rel, sol.support, (v, vd), (0.3, 1.2), m)
            assert d2 > 0.0

            def direct(th):
                r = float(sol.support.value(th))
                rd = float(sol.support.rdot(th))
                u = rd / math.tan(th) + r
                return m.phi0(u) * (math.tan(th) * v(th) + vd(th)) ** 2

            want = adaptive_simpson(direct, 0.3, 1.2, abs_tol=1e-12, rel_tol=1e-10)
            assert d2 == pytest.approx(want, abs=1e-8)

    def test_zero_field_zero(self):
        rel = LinearHopf(2.0, 0.0)
        sol = integrate_cm(rel, 0.75, 1.0, (0.25, 1.3))
        z = (lambda th: 0.0, lambda th: 0.0)
        assert second_variation(L0Spec(), rel, sol.support, z, (0.3, 1.2)) == 0.0

    def test_l0_interval_across_equator_rejected(self):
        rel = LinearHopf(2.0, 0.0)
        sol = integrate_cm(rel, 0.75, 1.0, (0.25, 1.9))
        v = sine_perturbation_basis(1, 0.3, 1.8)[0]
        with pytest.raises(SingularMultiplierError):
            second_variation(L0Spec(), rel, sol.support, v, (0.3, 1.8))

    @pytest.mark.parametrize("spec, rel", [(L0Spec(), LinearHopf(2.0, 0.0)),
                                           (HopfL1Spec(), LinearHopf(0.5, 1.0))])
    def test_stacked_fields_equal_per_field_calls(self, rng, spec, rel):
        sol = integrate_cm(rel, 0.75, 1.0, (0.25, 1.3))
        m = Multiplier(rel, 1.0) if isinstance(spec, L0Spec) else None
        basis = sine_perturbation_basis(6, 0.3, 1.2, rng=rng, extra_random=4)
        stacked = (lambda th: np.array([v(th) for v, _ in basis]),
                   lambda th: np.array([vd(th) for _, vd in basis]))
        got = second_variation(spec, rel, sol.support, stacked, (0.3, 1.2), m)
        want = [second_variation(spec, rel, sol.support, field, (0.3, 1.2), m)
                for field in basis]
        assert got.shape == (len(basis),)
        np.testing.assert_array_equal(got, want)

    def test_hopf_l1_matches_el_consistent_form(self):
        # delta^2 S1 = int (v'^2 - (1-lam) v^2)/sin^lam for the L1 that
        # actually satisfies the multiplier identity
        lam, C = 0.5, 1.0
        rel = LinearHopf(lam, C)
        sol = integrate_cm(rel, 0.75, 1.0, (0.25, 1.3))
        v, vd = sine_perturbation_basis(2, 0.3, 1.2)[1]
        d2 = second_variation(HopfL1Spec(), rel, sol.support, (v, vd), (0.3, 1.2))
        want = adaptive_simpson(
            lambda th: (vd(th) ** 2 - (1.0 - lam) * v(th) ** 2) / math.sin(th) ** lam,
            0.3, 1.2, abs_tol=1e-13, rel_tol=1e-11)
        assert d2 == pytest.approx(want, abs=1e-10)


class TestGeneralLagrangian:
    def test_f_identity_recovers_l0(self):
        rel = LinearHopf(2.0, 0.0)
        sol = integrate_cm(rel, 0.75, 1.0, (0.3, 1.3))
        rep = general_lagrangian(rel, lambda I, Q: 1.0, sol.support)
        assert rep["is_jlm"]
        assert rep["pde_residual_max"] <= 1e-6

    def test_hopf_power_family(self):
        lam, C = 0.5, 1.0
        rel = LinearHopf(lam, C)
        sol = integrate_cm(rel, 0.75, 1.2, (0.3, 1.3))
        rep = general_lagrangian(rel, lambda I, Q: I ** lam, sol.support,
                                 registered="hopf")
        assert rep["is_jlm"]
        assert rep["el_defect_max"] <= 1e-6

    def test_cubic_power_family(self):
        rel = CubicRoC(1.0)
        sol = integrate_cm(rel, 0.75, 0.5, (0.3, 1.3))
        rep = general_lagrangian(rel, lambda I, Q: I ** 3, sol.support,
                                 registered="cubic")
        assert rep["is_jlm"]
        assert rep["el_defect_max"] <= 1e-6

    def test_non_jlm_диагnosed(self):
        rel = LinearHopf(2.0, 0.0)
        sol = integrate_cm(rel, 0.75, 1.0, (0.3, 1.3))
        rep = general_lagrangian(rel, lambda I, Q: 1.0 + 0.5 * math.sin(3.0 * I),
                                 sol.support)
        # f(I) is a first integral, so f*Phi0 IS a JLM; break it with an
        # explicit theta dependence instead
        assert rep["is_jlm"]

        m = Multiplier(rel, 1.0)
        states = [VariationalState(0.5, 1.0, 0.1), VariationalState(1.0, 0.9, 0.0)]
        res = helmholtz_residual(
            rel, lambda th, r, rd: m.phi0(rd / math.tan(th) + r) * th, states, m)
        assert np.max(np.abs(res)) > 1e-3

    def test_jlm_scaled_by_first_integral_stays_jlm(self, rng):
        rel = LinearHopf(3.0, -3.0)
        sol = integrate_cm(rel, math.pi / 2.0, 2.0, (0.4, math.pi - 0.4))
        for expo in (1.0, 2.0, -1.5):
            rep = general_lagrangian(rel, lambda I, Q, e=expo: I ** e, sol.support)
            assert rep["is_jlm"], expo


def explicit_relation(lam, eps):
    return parse_relation(f"r2 = {lam!r}*r1 + {eps!r}*sin(r1)")


def interval_points(m, fracs):
    """Points of the multiplier interval (within 3 of the base point) and the base itself."""
    a = max(m.interval[0], m.base_point - 3.0)
    b = min(m.interval[1], m.base_point + 3.0)
    return np.append(a + (b - a) * np.asarray(fracs), m.base_point)


fractions = st.lists(st.floats(0.02, 0.98), min_size=1, max_size=12)


@functools.lru_cache(maxsize=None)
def numeric_multiplier(key):
    """A numeric multiplier integrates J on first use, so each is built once."""
    rel = explicit_relation(*key) if key else SemiQuadratic(0.0, 1.0, 1.0, -4.0)
    return Multiplier(rel, 1.0)


class TestArrayFirstMultiplier:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.tuples(st.floats(-1.0, 3.0).filter(lambda x: abs(x - 1.0) > 0.1),
                  st.floats(-2.0, 2.0)).filter(lambda p: abs(1.0 - p[0] - p[1]) > 0.05)
                                       .map(lambda p: Multiplier(LinearHopf(*p), 1.0)),
        st.sampled_from([(LinearHopf(2.0, 0.0), 1.0), (PureKLinear(0.5), 1.0),
                         (CubicRoC(1.5), 0.3)]).map(lambda p: Multiplier(*p)),
        st.sampled_from([(2.0, 0.1), (2.5, -0.05), (1.5, 0.08), ()]).map(numeric_multiplier)),
        fractions)
    def test_array_calls_equal_scalar_calls(self, m, fracs):
        us = interval_points(m, fracs)
        for name in ("J", "phi0", "G1", "G2", "I_exp"):
            method = getattr(m, name)
            try:
                scalars = [method(float(u)) for u in us]
            except SingularMultiplierError:
                # beyond the reach of the dense J: the array call refuses too
                with pytest.raises(SingularMultiplierError):
                    method(us)
                continue
            assert all(type(v) is float for v in scalars), name
            got = method(us)
            assert got.shape == us.shape, name
            np.testing.assert_allclose(got, scalars, rtol=1e-14, atol=1e-15, err_msg=name)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["L0-closed", "L0-numeric", "HopfL1", "CubicL1"]),
           st.lists(st.tuples(st.floats(0.3, 1.35), st.floats(0.05, 0.95),
                              st.floats(-0.4, 0.4)), min_size=1, max_size=10),
           st.booleans())
    def test_array_partials_equal_per_state_partials(self, kind, draws, analytic):
        spec, rel, m, r1_range = {
            "L0-closed": (L0Spec(), LinearHopf(2.0, 0.0), Multiplier(LinearHopf(2.0, 0.0), 1.0),
                          (0.5, 2.5)),
            "L0-numeric": (L0Spec(), explicit_relation(2.5, 0.1),
                           Multiplier(explicit_relation(2.5, 0.1), 1.0), (0.5, 2.5)),
            "HopfL1": (HopfL1Spec(), LinearHopf(0.5, 1.0), None, (0.5, 3.0)),
            "CubicL1": (CubicL1Spec(), CubicRoC(1.0), None, (0.2, 0.6)),
        }[kind]
        th, frac, rd = (np.array(col) for col in zip(*draws))
        r1 = r1_range[0] + frac * (r1_range[1] - r1_range[0])
        r = r1 - rd / np.tan(th)   # so rho = rd cos + r sin = r1 sin(theta) > 0
        whole = lagrangian_partials(spec, rel, VariationalState(th, r, rd), m, analytic)
        for i in range(len(th)):
            one = lagrangian_partials(spec, rel, VariationalState(th[i], r[i], rd[i]), m,
                                      analytic)
            for key, value in one.items():
                assert type(value) is float, key
                assert whole[key][i] == pytest.approx(value, rel=1e-13, abs=1e-13), key


def hopf_level_curve(lam, C, state):
    """The level curve x(u) of I through ``state`` for r2 = lam r1 + C, in closed form."""
    g0 = (1.0 - lam) * state.r1 - C
    level = abs(g0) ** (-1.0 / (1.0 - lam)) / math.sin(state.theta)   # I at the state
    return lambda u: (C + math.copysign(1.0, g0) * (level * math.sin(u)) ** (lam - 1.0)) / (1.0 - lam)


off_equator = st.floats(0.3, 2.8).filter(lambda t: abs(math.cos(t)) > 0.1)


class TestQReference:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1.0, 3.0).filter(lambda x: abs(x - 1.0) > 0.2), st.floats(-2.0, 2.0),
           off_equator, off_equator, st.floats(0.2, 2.0), st.sampled_from([-1.0, 1.0]),
           st.floats(-2.0, 2.0))
    def test_Q_matches_closed_form_level_curve(self, lam, C, theta, theta_base, offset, side, r):
        rel = LinearHopf(lam, C)
        r1 = C / (1.0 - lam) + side * offset    # a start off the fixed point
        m = Multiplier(rel, r1)
        state = VariationalState(theta, r, (r1 - r) * math.tan(theta))
        x = hopf_level_curve(lam, C, state)
        assume(all(m.interval[0] < x(u) < m.interval[1]
                   for u in np.linspace(theta_base, theta, 64)))
        integral = adaptive_simpson(lambda u: (lam * x(u) + C - x(u)) / math.sin(u),
                                    theta_base, theta, abs_tol=1e-13, rel_tol=1e-12)
        want = ((state.r - x(theta)) / math.cos(theta)
                + x(theta_base) / math.cos(theta_base) + integral)
        got = first_integral_Q(rel, state, m, theta_base=theta_base)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_level_curve_leaving_the_interval_raises(self):
        # lam < 1: |(1 - lam) x - C| = (I sin u)^(lam - 1) grows toward the
        # pole, so from theta = 1 the level curve passes the interval's lower
        # end base - 10 (at u ~ 0.03, where x = -9) before theta_base = 1e-3
        rel = LinearHopf(0.5, 1.0)
        m = Multiplier(rel, 1.0)
        state = VariationalState(1.0, 1.0, 0.0)
        x = hopf_level_curve(0.5, 1.0, state)
        assert x(0.1) > m.interval[0] > x(1e-3)
        with pytest.raises(SingularMultiplierError):
            first_integral_Q(rel, state, m, theta_base=1e-3)
        # the same curve inside the interval gives the reference value
        assert first_integral_Q(rel, state, m, theta_base=0.5) == pytest.approx(
            (state.r - x(1.0)) / math.cos(1.0) + x(0.5) / math.cos(0.5)
            + adaptive_simpson(lambda u: (1.0 - 0.5 * x(u)) / math.sin(u), 0.5, 1.0,
                               abs_tol=1e-13, rel_tol=1e-12), rel=1e-9)


# relation, base point and query window; the last one's J stops at
# |J| = 690 near u = 0.002, inside its window (the base point is outside it)
LAZY_CASES = {
    "explicit": (explicit_relation(2.5, 0.05), 0.8, (0.05, 3.8)),
    "semi-quadratic": (SemiQuadratic(0.0, 1.0, 1.0, -4.0), 1.0, (0.6, 4.0)),
    "J stop": (parse_relation("r2 = 0.99*r1 + 0.001*sin(r1)"), 1.0, (1e-3, 0.02)),
}


@functools.lru_cache(maxsize=None)
def full_J_runs(case):
    """The reference (J, G2) of a case: one RK45 solve_ivp run over each whole
    side of the base point, with the |J| <= 690 terminal event."""
    rel, base, _ = LAZY_CASES[case]
    m = Multiplier(rel, base)
    sign = math.copysign(1.0, base - eval_F_float(rel, base))

    def rhs(u, y):
        F = float(eval_F_float(rel, u))
        return [1.0 / (u - F), sign * math.exp(min(y[0], 700.0))]

    def ev(u, y):
        return 690.0 - abs(y[0])
    ev.terminal = True
    return {end < base: solve_ivp(rhs, (base, end), [0.0, 0.0], method="RK45", rtol=1e-12,
                                  atol=1e-14, dense_output=True, events=ev)
            for end in m.interval}


def full_J_and_G2(case, u):
    """(J, G2) at u from the reference runs' own dense output."""
    _, base, _ = LAZY_CASES[case]
    out = np.zeros((2, len(u)))
    for below, side in ((True, u < base), (False, u > base)):
        if side.any():
            out[:, side] = full_J_runs(case)[below].sol(u[side])
    return out


class TestNumericJ:
    REL = 1e-10   # J and G2 against the RK45 reference, relative to max(1, |reference|)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(LAZY_CASES)),
           st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.5),
                              st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6)),
                    min_size=1, max_size=6))
    def test_J_and_G2_match_the_rk45_runs(self, case, queries):
        rel, base, (a, b) = LAZY_CASES[case]
        m, fresh = Multiplier(rel, base), Multiplier(rel, base)
        lo, hi = (full_J_runs(case)[below].t[-1] for below in (True, False))
        for centre, width, offsets in queries:
            u = np.clip(a + centre * (b - a) + width * np.array(offsets), a, b)
            # the reach is the reference's, up to 1e-9 relative at a J stop
            margin = 1e-9 * np.abs(u)
            defined = m.defined(u)
            assert np.all(defined[(u - lo > margin) & (hi - u > margin)])
            assert not np.any(defined[(lo - u > margin) | (u - hi > margin)])
            if not defined.all():
                with pytest.raises(SingularMultiplierError):
                    m.J(u)
            u = u[defined]
            got = np.array([m.J(u), m.G2(u)])
            want = full_J_and_G2(case, u)
            assert np.all(np.abs(got - want) <= self.REL * np.maximum(1.0, np.abs(want)))
            # the same bits one point at a time, in another order, from a multiplier
            # that saw other queries before
            singles = np.array([[fresh.J(float(x)), fresh.G2(float(x))] for x in u[::-1]])
            np.testing.assert_array_equal(got, singles[::-1].T.reshape(got.shape))

    def test_reach_ends_at_the_J_stop(self, monkeypatch):
        rel, base, _ = LAZY_CASES["J stop"]
        stop = full_J_runs("J stop")[True].t_events[0][0]
        roots = []

        def counted(*args, **kwargs):
            roots.append(args)
            return brentq(*args, **kwargs)
        monkeypatch.setattr(variational, "brentq", counted)
        m = Multiplier(rel, base)
        assert 1e-3 < stop < 0.01
        assert m.defined(stop * (1.0 + 1e-9)) and not m.defined(stop * (1.0 - 1e-9))
        assert len(roots) == 1   # one root solve, in the panel where |J| reaches 690
        assert m.J(stop * (1.0 + 1e-9)) == pytest.approx(-690.0, rel=1e-6)
        assert not m.defined(1e-3)
        with pytest.raises(SingularMultiplierError):
            m.J(1e-3)

    def test_semi_quadratic_closed_form(self):
        # J = ln(u)/2 + ln(2u - 1)/2 and G2 = sign * int_1^u sqrt(v (2v - 1)) dv
        rel = SemiQuadratic(0.0, 1.0, 1.0, -4.0)
        m = Multiplier(rel, 1.0)
        u = np.concatenate([0.5 + np.logspace(-3.0, -0.5, 40), np.linspace(1.0, 10.9, 40)])
        assert np.max(np.abs(m.J(u) - 0.5 * np.log(u) - 0.5 * np.log(2.0 * u - 1.0))) <= 2e-12

        def outer(v):
            x = v - 0.25
            w = np.sqrt(x * x - 0.0625)
            return math.sqrt(2.0) * (0.5 * x * w - np.log(x + w) / 32.0)
        v = np.linspace(0.6, 10.9, 40)
        sign = math.copysign(1.0, 1.0 - eval_F_float(rel, 1.0))
        assert np.max(np.abs(m.G2(v) - sign * (outer(v) - outer(1.0)))) <= 1e-12

    def test_domain_exit_ends_the_reach(self):
        # sqrt(r1) is undefined below 0, inside the given interval
        m = Multiplier(parse_relation("r2 = 2*r1 + 1 + sqrt(r1)"), 10.0, interval=(-5.0, 40.0))
        np.testing.assert_array_equal(m.defined([5.0, -1.0]), [True, False])
        with pytest.raises(SingularMultiplierError):
            m.J(-1.0)
        assert math.isfinite(m.J(5.0))

    def test_reach_extends_to_the_domain_edge(self):
        # F is defined down to r1 = 0; the panels reach it and stay exact close to it
        m = Multiplier(parse_relation("r2 = 2*r1 + 1 + sqrt(r1)"), 10.0, interval=(-5.0, 40.0))
        u = np.array([0.5, 0.1, 0.05, 1e-3, 1e-6])
        assert m.defined(0.05) and np.all(m.defined(u))
        for x, got in zip(u, m.J(u)):
            want = quad(lambda v: 1.0 / (v - (2.0 * v + 1.0 + math.sqrt(v))), 10.0, x,
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert abs(got - want) <= 1e-12 * abs(want)
        below = np.array([-5e-13, -1e-6, -1.0])
        assert not np.any(m.defined(below))
        with pytest.raises(SingularMultiplierError):
            m.J(below)


def _off_trajectory_states(m, n, rng):
    """n states with r1 inside the multiplier interval, off the equator."""
    th = rng.uniform(0.3, 1.4, n)
    r1 = rng.uniform(max(m.interval[0], m.base_point - 0.5), min(m.interval[1], m.base_point + 0.5), n)
    r = r1 + rng.uniform(-0.5, 0.5, n)
    return VariationalState(th, r, (r1 - r) * np.tan(th))


class TestArrayQ:
    Q_RTOL = 1e-12   # array Q against per-state scalar Q

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([(LinearHopf(2.0, 0.0), 1.0), (LinearHopf(3.0, -3.0), 2.0),
                            (explicit_relation(2.5, 0.05), 0.8),
                            (SemiQuadratic(0.0, 1.0, 1.0, -4.0), 1.5)]),
           st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-3, 0.3]))
    def test_array_Q_equals_scalar_Q(self, case, n, seed, theta_base):
        rel, base = case
        m = Multiplier(rel, base)
        state = _off_trajectory_states(m, n, np.random.default_rng(seed))
        got = first_integral_Q(rel, state, m, theta_base=theta_base)
        assert got.shape == (n,)
        for i in range(n):
            one = VariationalState(state.theta[i], state.r[i], state.rdot[i])
            try:
                want = first_integral_Q(rel, one, m, theta_base=theta_base)
            except SingularMultiplierError:
                assert math.isnan(got[i])
                continue
            assert type(want) is float
            assert got[i] == pytest.approx(want, rel=self.Q_RTOL, abs=self.Q_RTOL)

    def test_member_leaving_the_interval_gets_nan(self):
        # r2 = 0.5 r1 + 1 from base 1: the interval is (-9, 2); the level
        # curve from (1, r1 = 1) passes -9 before theta_base = 1e-3, the ones
        # from r1 = 1.8 and 1.9 stay inside
        rel = LinearHopf(0.5, 1.0)
        m = Multiplier(rel, 1.0)
        th = np.array([1.0, 0.8, 1.2, 0.6])
        r1 = np.array([1.0, 1.8, 1.8, 1.9])
        r = np.array([1.0, 1.5, 2.5, 0.3])
        state = VariationalState(th, r, (r1 - r) * np.tan(th))
        got = first_integral_Q(rel, state, m, theta_base=1e-3)
        assert math.isnan(got[0]) and np.all(np.isfinite(got[1:]))
        rest = VariationalState(state.theta[1:], state.r[1:], state.rdot[1:])
        assert np.array_equal(got[1:], first_integral_Q(rel, rest, m, theta_base=1e-3))
        for i in (1, 2, 3):
            one = VariationalState(state.theta[i], state.r[i], state.rdot[i])
            assert got[i] == pytest.approx(first_integral_Q(rel, one, m, theta_base=1e-3),
                                           rel=self.Q_RTOL)

    def test_failed_run_costs_only_the_failing_member(self):
        # F - u = u + 1 + sqrt(u) > 0 where F is defined: toward the pole every
        # level curve falls toward r1 = -1 and the one from r1 = 0.5 leaves
        # F's domain at r1 = 0 before theta_base, inside the interval given
        rel = parse_relation("r2 = 2*r1 + 1 + sqrt(r1)")
        m = Multiplier(rel, 10.0, interval=(-5.0, 40.0))
        th, r1 = np.array([1.2, 1.2, 1.0]), np.array([0.5, 20.0, 15.0])
        r = r1 + 0.1
        got = first_integral_Q(rel, VariationalState(th, r, (r1 - r) * np.tan(th)), m,
                               theta_base=0.3)
        assert math.isnan(got[0])
        singles = []
        for i in range(3):
            one = VariationalState(th[i], r[i], (r1[i] - r[i]) * math.tan(th[i]))
            try:
                singles.append(first_integral_Q(rel, one, m, theta_base=0.3))
            except SingularMultiplierError:
                singles.append(math.nan)
        # the batch split into one run per member
        np.testing.assert_array_equal(got, singles)

    def test_non_finite_theta_base_raises_at_once(self):
        # a run over a NaN span never ends, so the calls run in a child process
        code = """
import numpy as np
from weingarten import LinearHopf, Multiplier, VariationalState, first_integral_Q
rel, th = LinearHopf(2.0, 0.0), np.linspace(0.4, 1.2, 5)
for state in (VariationalState(0.4, 0.5, 0.1),
              VariationalState(th, np.sin(th), 0.1 * np.cos(th))):
    for theta_base in (float("nan"), float("inf"), -float("inf")):
        try:
            first_integral_Q(rel, state, Multiplier(rel, 1.0), theta_base=theta_base)
        except ValueError as exc:
            assert "theta_base" in str(exc), exc
        else:
            raise AssertionError(theta_base)
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
