import math

import numpy as np
import pytest
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
from weingarten.integrate import InconsistentPoleStartError, IntegrationError, StepControl
from weingarten.relations import RelationError


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

    def test_start_outside_the_domain_of_F_raises(self):
        # F(-1) = sqrt(-1) + 1 is undefined: there is no first step to take
        with pytest.raises(IntegrationError, match="not defined at r1_0"):
            integrate_cm(parse_relation("r2 = sqrt(r1) + 1"), math.pi / 2.0, -1.0)


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
