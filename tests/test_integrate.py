import importlib.util
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import OdeSolution, solve_ivp
from scipy.special import beta, betainc

from weingarten import (
    CubicRoC,
    LinearHopf,
    PureKLinear,
    SemiQuadratic,
    cm_residual,
    hopf_closed_form,
    integrate_cm,
    parse_relation,
)
from weingarten import integrate
from weingarten.integrate import InconsistentPoleStartError, IntegrationError, StepControl
from weingarten.numerics import StackedDense
from weingarten.variational import Multiplier
from weingarten.relations import RelationError, eval_F_float


class TestClosedFormAgreement:
    def test_hopf_two_zero_is_sine(self):
        p = integrate_cm(LinearHopf(2.0, 0.0), math.pi / 2.0, 1.0, (0.2, math.pi - 0.2))
        assert np.max(np.abs(p.r1 - np.sin(p.grid))) <= 1e-8
        assert np.max(np.abs(p.r2 - 2.0 * np.sin(p.grid))) <= 1e-8

    def test_cmc_fixed_point_is_sphere(self):
        p = integrate_cm(SemiQuadratic(0, 1, 1, -4), math.pi / 2.0, 0.5, (0.3, math.pi - 0.3))
        assert np.max(np.abs(p.r1 - 0.5)) <= 1e-12
        assert np.max(np.abs(p.r2 - 0.5)) <= 1e-12

    def test_totally_umbilic_sphere(self):
        p = integrate_cm(PureKLinear(1.0), math.pi / 2.0, 1.7, (0.1, math.pi - 0.1))
        assert np.max(np.abs(p.r1 - 1.7)) <= 1e-12

    def test_random_hopf_families_match_closed_form(self, rng):
        for _ in range(20):
            lam = float(rng.uniform(-3.0, 3.0))
            if abs(lam - 1.0) < 0.1:
                continue
            C = float(rng.uniform(-2.0, 2.0))
            A0 = float(rng.uniform(-1.5, 1.5))
            r1_ref = (C + A0) / (1.0 - lam)
            if abs(r1_ref) > 50:
                continue
            p = integrate_cm(LinearHopf(lam, C), math.pi / 2.0, r1_ref,
                             (0.2, math.pi - 0.2))
            want = (C + A0 * np.sin(p.grid) ** (lam - 1.0)) / (1.0 - lam)
            assert np.max(np.abs(p.r1 - want)) <= 1e-7, (lam, C, A0)


class TestResidualContract:
    def test_matrix_residuals(self, integrated_matrix):
        for rel, profile, _, _ in integrated_matrix:
            res = cm_residual(profile)
            assert np.max(np.abs(res)) <= 1e-8, rel

    def test_monotonicity_law(self, integrated_matrix):
        # on (0, pi/2): sign(dr1/dtheta) = sign(r2 - r1)
        for rel, profile, _, _ in integrated_matrix:
            north = (profile.grid > 0.25) & (profile.grid < math.pi / 2.0 - 0.05)
            s = profile.r2[north] - profile.r1[north]
            d = np.gradient(profile.r1[north], profile.grid[north])
            big = np.abs(s) > 1e-8
            assert np.all(np.sign(d[big]) == np.sign(s[big])), rel


class TestStopReasons:
    def test_completed(self):
        p = integrate_cm(LinearHopf(2.0, 0.0), math.pi / 2.0, 1.0, (0.4, 2.0))
        assert p.meta["stop_reason"] == "completed"

    def test_cmc_flat_asymptote_exit(self):
        # starting between the asymptote r1 = 1/4 and the sphere value 1/2,
        # the poleward flow runs into r2 -> infinity
        p = integrate_cm(SemiQuadratic(0, 1, 1, -4), math.pi / 2.0, 0.4,
                         (1e-3, math.pi - 1e-3),
                         step_control=StepControl(blowup=1e6))
        assert p.meta["stop_left"] == "f_domain_exit"
        assert p.theta_min > 1e-3

    def test_blow_up(self):
        # r2 = r1^3 with r1 well above the fixed point blows up in finite angle
        p = integrate_cm(CubicRoC(1.0), 0.5, 2.0, (0.3, math.pi - 0.3),
                         step_control=StepControl(blowup=1e4))
        assert p.meta["stop_right"] in ("blow_up", "f_domain_exit")
        assert p.theta_max < math.pi - 0.3 - 1e-6

    def test_explicit_relation_leaves_its_domain(self):
        # r1 runs into 0 on both sides, where sqrt(r1) stops being defined:
        # the reachable part comes back with the exit named on each side
        p = integrate_cm(parse_relation("r2 = 3 - sqrt(r1)"), math.pi / 2.0, 0.5)
        assert p.meta["stop_left"] == p.meta["stop_right"] == "f_domain_exit"
        assert 0.5 < p.theta_min < 1.2 and 1.9 < p.theta_max < math.pi - 0.5
        assert 0.0 <= p.r1.min() < 1e-6
        assert np.array_equal(p.r2, 3.0 - np.sqrt(p.r1))

    def test_run_into_a_pole_of_F(self):
        # r1 -> 1 on both sides, where |F| grows like 1/(r1 - 1): RK45's steps
        # underflow while |F| is about 2e7, below the blow-up cap
        p = integrate_cm(parse_relation("r2 = 1/(r1 - 1) + r1"), math.pi / 2.0, 1.5)
        assert p.meta["stop_left"] == p.meta["stop_right"] == "f_pole"
        assert p.meta["stop_reason"] == "left:f_pole,right:f_pole"
        assert 1.0 < p.r1.min() < 1.0 + 1e-6
        smooth = integrate_cm(parse_relation("r2 = 2*r1 + sin(r1)/10"), math.pi / 2.0, 1.0)
        assert smooth.meta["stop_reason"] == "completed"

    def test_run_into_a_double_pole_of_F(self):
        # |F| ~ 1/(r1 - 1)^2 reaches the blow-up cap near r1 = 1 + 1e-4 while F
        # stays defined: a pole of F, not an exit from its domain
        p = integrate_cm(parse_relation("r2 = 1/(r1 - 1)^2 + 2*r1"), math.pi / 2.0, 1.5)
        assert p.meta["stop_reason"] == "left:f_pole,right:f_pole"
        assert 1.0 < p.r1.min() < 1.0 + 2e-4

    def test_start_outside_the_domain_of_F_raises(self):
        # F(-1) = sqrt(-1) + 1 is undefined: there is no first step to take
        with pytest.raises(IntegrationError, match="not defined at r1_0"):
            integrate_cm(parse_relation("r2 = sqrt(r1) + 1"), math.pi / 2.0, -1.0)

    def test_start_at_a_pole_of_F_raises(self):
        # F(1) = 1/0 is the point at infinity: the first slope is not a number,
        # and the run is refused before the solver warns about it
        with pytest.raises(IntegrationError, match="pole of F"):
            integrate_cm(parse_relation("r2 = 1/(r1 - 1)"), math.pi / 2.0, 1.0)

    def test_stop_reason_names_each_stopped_side(self):
        both = integrate_cm(parse_relation("r2 = 3 - sqrt(r1)"), math.pi / 2.0, 0.5)
        assert both.meta["stop_reason"] == "left:f_domain_exit,right:f_domain_exit"
        right = integrate_cm(CubicRoC(1.0), 0.5, 2.0, (0.3, math.pi - 0.3),
                             step_control=StepControl(blowup=1e4))
        assert right.meta["stop_left"] == "completed"
        assert right.meta["stop_reason"] == "right:" + right.meta["stop_right"]


class TestPoleStart:
    def test_consistent_pole_start(self):
        # Hopf(3, -3): fixed point 1.5 with slope 3 > 1; the seeded
        # trajectory must lie in the closed-form family r0 + c1*sin^2
        p = integrate_cm(LinearHopf(3.0, -3.0), 0.0, 1.5, (1e-6, math.pi / 2.0),
                         pole_seed_c1=1.0)
        want = 1.5 + np.sin(p.grid) ** 2
        assert np.max(np.abs(p.r1 - want)) <= 1e-6

    def test_inconsistent_pole_start_raises(self):
        with pytest.raises(InconsistentPoleStartError):
            integrate_cm(LinearHopf(3.0, -3.0), 0.0, 2.0, (1e-6, 1.0))

    def test_slope_below_one_rejected(self):
        # Hopf(0.5, 1): fixed point 2 with slope 0.5 < 1 cannot seed a pole start
        with pytest.raises(InconsistentPoleStartError):
            integrate_cm(LinearHopf(0.5, 1.0), 0.0, 2.0, (1e-6, 1.0))

    def test_pole_start_reaches_the_equator_on_the_closed_form(self):
        # the seed launched at amplitude 1e-5 grows 1e5 times toward the equator;
        # r1 = 1.3 + sin^1.0625 there is 2.3
        p = integrate_cm(LinearHopf(2.0625, 1.3 * (1.0 - 2.0625)), 0.0, 1.3,
                         (1e-6, math.pi - 1e-6))
        assert abs(float(p.r1_at(math.pi / 2.0)) - 2.3) <= 5e-8


class TestHopfClosedForm:
    def test_lam2_gives_sine(self):
        theta = np.linspace(0.3, math.pi - 0.3, 41)
        r1, r = hopf_closed_form(2.0, 0.0, -1.0, theta)
        assert np.allclose(r1, np.sin(theta), atol=1e-12)
        # the anchored support is sin - theta cos + K cos for some K
        base = np.sin(theta) - theta * np.cos(theta)
        cosg = np.cos(theta)
        K = float(np.sum((r - base) * cosg) / np.sum(cosg ** 2))
        assert np.max(np.abs(r - base - K * cosg)) <= 1e-9

    def test_a0_zero_is_sphere(self):
        r1, r = hopf_closed_form(0.3, 2.0, 0.0, 1.234)
        assert r1 == pytest.approx(2.0 / 0.7)
        assert r == pytest.approx(2.0 / 0.7)

    def test_paper_figure_family(self):
        theta = np.array([0.4, 1.0, 2.0])
        r1, _ = hopf_closed_form(3.0, -3.0, -1.0, theta)
        want = (-3.0 - np.sin(theta) ** 2) / (-2.0)
        assert np.allclose(r1, want, atol=1e-12)

    def test_degenerate_lambda(self):
        with pytest.raises(RelationError):
            hopf_closed_form(1.0, 2.0, 1.0, 0.7)

    @pytest.mark.parametrize("lam", [2.75, 3.75, 3.9469])
    def test_support_near_the_poles(self, lam):
        # exact reference: int_0^theta sin^n = B(a, 1/2) I_{sin^2}(a, 1/2) / 2
        # on [0, pi/2], a = (n + 1)/2, mirrored beyond pi/2
        r0, amp = 1.5, 0.75
        C, A0 = r0 * (1.0 - lam), amp * (1.0 - lam)
        theta = np.linspace(1e-6, math.pi - 1e-6, 2000)

        def sine_power_integral(x, n):
            a = 0.5 * (n + 1.0)
            half = 0.5 * beta(a, 0.5) * betainc(a, 0.5, np.sin(x) ** 2)
            return np.where(x <= math.pi / 2.0, half, beta(a, 0.5) - half)

        r1_want = r0 + amp * np.sin(theta) ** (lam - 1.0)
        integral = -A0 * (sine_power_integral(theta, lam - 2.0)
                          - sine_power_integral(math.pi / 3.0, lam - 2.0))
        r_want = r1_want - np.cos(theta) * integral
        r1, r = hopf_closed_form(lam, C, A0, theta)
        assert np.max(np.abs(r1 - r1_want)) <= 1e-9 * np.max(np.abs(r1_want))
        assert np.max(np.abs(r - r_want)) <= 1e-9 * np.max(np.abs(r_want))

    def test_unsorted_and_repeated_angles(self):
        theta = np.array([2.0, 0.5, 2.0, 1.2])
        _, r = hopf_closed_form(3.0, -3.0, -1.0, theta)
        order = np.argsort(theta)
        _, r_sorted = hopf_closed_form(3.0, -3.0, -1.0, theta[order])
        assert r[0] == r[2]
        assert np.array_equal(r[order], r_sorted)

    def test_support_solves_the_ode(self):
        theta = np.linspace(0.4, 2.6, 301)
        lam, C, A0 = -0.5, 3.0, 0.8
        r1, r = hopf_closed_form(lam, C, A0, theta)
        rd = np.gradient(r, theta, edge_order=2)
        implied_r1 = rd / np.tan(theta) + r
        interior = slice(2, -2)
        assert np.max(np.abs(implied_r1[interior] - r1[interior])) <= 1e-4


def test_support_channel_consistency(integrated_matrix):
    # r1 recomputed from the integrated support channel matches the r1 channel
    for rel, profile, _, _ in integrated_matrix:
        s = profile.support
        implied = s.rdot_arr / np.tan(profile.grid) + s.r
        assert np.max(np.abs(implied - profile.r1)) <= 1e-9, rel


def test_support_init_must_be_consistent():
    with pytest.raises(ValueError):
        integrate_cm(LinearHopf(2.0, 0.0), 1.0, 1.0, (0.5, 2.0),
                     support_init=(5.0, 5.0))


def _dense_rhs(t, y):
    return [math.cos(3.0 * t) * y[1], math.sin(t) - y[0], 0.1 * y[0] * y[1]]


# one ascending and one descending (integrate_cm's left side) DOP853 solution
_DENSE_RUNS = {end: solve_ivp(_dense_rhs, (0.0, end), [1.0, 0.5, 0.2], method="DOP853",
                              rtol=1e-10, atol=1e-12, dense_output=True)
               for end in (4.0, -4.0)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_DENSE_RUNS)), st.data())
def test_stacked_dense_matches_ode_solution(end, data):
    sol = _DENSE_RUNS[end].sol
    knots = _DENSE_RUNS[end].t
    points = st.one_of(st.floats(min(0.0, end) - 0.5, max(0.0, end) + 0.5),
                       st.sampled_from(knots.tolist()))
    # unsorted draws, repeated knots and both ends
    query = np.array(data.draw(st.lists(points, min_size=1, max_size=40)) + [0.0, end])
    dense = StackedDense(sol)
    for t in (query, np.float64(data.draw(points))):
        want = sol(t)
        got = dense(t)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
    # a value does not depend on the other points of its query
    whole = dense(query)
    np.testing.assert_array_equal(whole, np.array([dense(t) for t in query]).T)
    singles = [dense(query[i:i + 1]) for i in range(len(query))]
    np.testing.assert_array_equal(whole, np.hstack(singles))


def test_dense_queries_make_no_per_segment_calls(monkeypatch):
    def per_segment(self, t):
        raise AssertionError("OdeSolution.__call__ evaluates one segment at a time")

    monkeypatch.setattr(OdeSolution, "__call__", per_segment)
    p = integrate_cm(parse_relation("r2 = 2*r1 + sin(r1)/10"), math.pi / 2.0, 1.0,
                     (0.2, math.pi - 0.2))
    theta = np.linspace(0.3, math.pi - 0.3, 50)
    assert np.all(np.isfinite(p.r1_at(theta))) and np.all(np.isfinite(p.support.value(theta)))
    mult = Multiplier(p.relation, 0.8)
    assert np.all(np.isfinite(mult.J(np.linspace(0.5, 0.9, 7))))


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _bench_module(name):
    """A module of the benchmark, loaded by path under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


class TestRunStats:
    def test_one_run_from_the_equator(self):
        p = integrate_cm(LinearHopf(3.0, -3.0), math.pi / 2.0, 2.0, (1e-6, math.pi - 1e-6))
        assert p.meta["runs"] == 1
        assert 0 < 6 * p.meta["steps"] <= p.meta["rhs_evals"]
        assert p.meta["grid_capped"] is False

    def test_two_runs_off_the_equator(self):
        p = integrate_cm(LinearHopf(3.0, -3.0), 1.0, 2.0, (0.5, 2.5))
        assert p.meta["runs"] == 2 and p.meta["steps"] > 0
        up_only = integrate_cm(LinearHopf(3.0, -3.0), 1.0, 2.0, (1.0, 1.3))
        assert up_only.meta["runs"] == 1

    def test_capped_grid(self):
        p = integrate_cm(LinearHopf(3.0, -3.0), math.pi / 2.0, 2.0, (0.1, math.pi - 0.1),
                         step_control=StepControl(max_points=50))
        assert p.meta["grid_capped"] is True and len(p.grid) == 50
        full = integrate_cm(LinearHopf(3.0, -3.0), math.pi / 2.0, 2.0, (0.1, math.pi - 0.1),
                            step_control=StepControl(grid_step=0.1))
        assert full.meta["grid_capped"] is False

    def test_steps_equal_the_benchmark_tracer_count(self):
        layertrace = _bench_module("layertrace")
        t = _bench_module("inputs").make_inputs("transform", 3, 1)[0]
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            tracer.begin_flow(0)
            p = integrate.integrate_cm(parse_relation(t.relation), math.pi / 2.0,
                                       t.member.r1_start, (1e-6, math.pi - 1e-6),
                                       step_control=StepControl(grid_step=0.01))
            tracer.end_flow()
        finally:
            tracer.uninstall()
        assert tracer.counts["integrate.steps"] == p.meta["steps"] > 0
        assert tracer.counts["integrate.rhs_evals"] == p.meta["rhs_evals"]

    def test_events_reuse_F(self, monkeypatch):
        # the stop events look at each step end after the dense output's extra
        # stages, and take F there from the right-hand side's recent values
        calls, inside = [0], [False]
        F_at, eval_F = integrate._Rhs.F_at, integrate.eval_F_float

        def counted_F_at(self, r1):
            inside[0] = True
            try:
                return F_at(self, r1)
            finally:
                inside[0] = False

        def counted_eval_F(rel, r1):
            calls[0] += inside[0]
            return eval_F(rel, r1)

        monkeypatch.setattr(integrate._Rhs, "F_at", counted_F_at)
        monkeypatch.setattr(integrate, "eval_F_float", counted_eval_F)
        p = integrate_cm(LinearHopf(3.0, -3.0), 1.0, 2.0, (1e-3, math.pi - 1e-3),
                         step_control=StepControl(grid_step=0.01))
        assert p.meta["runs"] == 2 and p.meta["steps"] > 0
        assert calls[0] == p.meta["rhs_evals"]


# explicit relations r2 = lam*r1 + r0*(1 - lam) + eps*sin(r1 - r0): umbilic at r0, slope lam + eps
explicit_members = st.tuples(st.floats(2.0, 4.0), st.floats(1.0, 2.0), st.floats(0.02, 0.1),
                             st.floats(0.2, 0.5))


def _growth(theta_start, mu):
    """How much r1 - r0 ~ sin^(mu - 1) grows from the start to the equator: local
    errors made near the start grow with it (1e5 for a pole start's 1e-5 seed)."""
    return max(1.0, math.sin(theta_start) ** (1.0 - mu))


def _explicit(lam, r0, eps):
    return parse_relation(f"r2 = {lam!r}*r1 + {r0 * (1.0 - lam)!r} + {eps!r}*sin(r1 - {r0!r})")


class TestSRunProperties:
    @settings(max_examples=15, deadline=None)
    @given(explicit_members, st.lists(st.floats(1e-3, math.pi / 2.0), min_size=1, max_size=30))
    def test_equator_symmetry(self, member, thetas):
        # theta and pi - theta share s = ln sin(theta): where their sines are the
        # same float, r1 is the same value of the same run
        lam, r0, eps, a = member
        p = integrate_cm(_explicit(lam, r0, eps), math.pi / 2.0, r0 * (1.0 + a),
                         (1e-3, math.pi - 1e-3), step_control=StepControl(grid_step=0.01))
        north = np.array(thetas)
        south = math.pi - north
        same = np.sin(north) == np.sin(south)
        assume(same.any())
        np.testing.assert_array_equal(p.r1_at(north[same]), p.r1_at(south[same]))
        np.testing.assert_allclose(p.r1_at(north), p.r1_at(south), rtol=1e-14)

    def test_a_stop_below_s0_caps_both_sides(self):
        # started off the equator on the pi/2 profile, the down run meets the
        # same sqrt(r1) domain edge, which caps the far side and the side past
        # the mirror angle pi - theta0 where the pi/2 profile stops
        rel = parse_relation("r2 = 3 - sqrt(r1)")
        whole = integrate_cm(rel, math.pi / 2.0, 0.5)
        p = integrate_cm(rel, 1.2, float(whole.r1_at(1.2)))
        assert p.meta["stop_reason"] == "left:f_domain_exit,right:f_domain_exit"
        assert p.meta["runs"] == 2
        assert p.theta_min == pytest.approx(whole.theta_min, abs=1e-8)
        assert p.theta_max == pytest.approx(whole.theta_max, abs=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1.2, 4.0), st.floats(1.0, 2.0), st.floats(-0.5, 0.5), st.floats(0.1, 3.0))
    def test_linear_hopf_closed_form(self, lam, r0, A, theta0):
        # dr1/ds = (lam - 1)(r1 - r0): r1 = r0 + A e^((lam - 1) s) = r0 + A sin^(lam - 1)
        p = integrate_cm(LinearHopf(lam, r0 * (1.0 - lam)), theta0,
                         r0 + A * math.sin(theta0) ** (lam - 1.0), (1e-3, math.pi - 1e-3),
                         step_control=StepControl(grid_step=0.01))
        assert p.meta["stop_reason"] == "completed"
        assert p.theta_min < theta0 < p.theta_max
        want = r0 + A * np.exp((lam - 1.0) * np.log(np.sin(p.grid)))
        assert np.max(np.abs(p.r1 - want) / np.abs(want)) <= 1e-10 * _growth(theta0, lam)

    @settings(max_examples=12, deadline=None)
    @given(explicit_members, st.one_of(st.floats(0.2, 2.9), st.sampled_from([0.0, math.pi])))
    def test_agrees_with_the_t_system(self, member, theta0):
        # the reference: today's 3-component state (r1, r, r') in t = ln tan(theta/2),
        # dr1/dt = -tanh(t)(F - r1), dr/dt = r' sech(t), dr'/dt = (F - r) sech(t)
        lam, r0, eps, a = member
        rel = _explicit(lam, r0, eps)
        r1_0 = r0 + a * math.sin(theta0) ** (lam + eps - 1.0)   # r0 at a pole
        p = integrate_cm(rel, theta0, r1_0, (1e-6, math.pi - 1e-6),
                         step_control=StepControl(grid_step=0.01))
        assert p.meta["stop_reason"] == "completed"

        def rhs(t, y):
            F = float(eval_F_float(rel, y[0]))
            sech = 1.0 / math.cosh(t)
            return [-math.tanh(t) * (F - y[0]), y[2] * sech, (F - y[1]) * sech]

        # a pole start is seeded at the launch angle that meta records
        start, y0 = math.log(math.tan(p.meta["theta0"] / 2.0)), [p.meta["r1_0"]] * 2 + [0.0]
        t = np.log(np.tan(p.grid / 2.0))
        want = np.empty((3, len(t)))
        for side, end in ((t < start, t[0]), (t >= start, t[-1])):
            if side.any():
                sol = solve_ivp(rhs, (start, end), y0, method="RK45", rtol=1e-12, atol=1e-14,
                                dense_output=True)
                want[:, side] = sol.sol(t[side])
        # both runs' errors grow with r1 - r0 (a pole start's runs each sit
        # about 3e-8 off the LinearHopf closed form of such a start)
        tol = 1e-10 * _growth(p.meta["theta0"], lam + eps)
        for got, ref in zip((p.r1, p.support.r, p.support.rdot_arr), want):
            assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))
