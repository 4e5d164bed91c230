import math

import numpy as np
import pytest

from weingarten import (
    LinearHopf,
    PureKLinear,
    RoCProfile,
    integrate_cm,
    slope_restriction_profile,
    slope_theorem_check,
    umbilic_slope_estimate,
    vanishing_rate_estimate,
)
from weingarten.umbilic import UndefinedSlopeError


@pytest.fixture(scope="module")
def hopf3_profile():
    return integrate_cm(LinearHopf(3.0, -3.0), math.pi / 2.0, 2.0,
                        (1e-8, math.pi - 0.2))


class TestUmbilicSlope:
    def test_hopf_slope_equals_lambda(self, hopf3_profile):
        ua = umbilic_slope_estimate(hopf3_profile)
        assert ua.slope_estimate == pytest.approx(3.0, abs=1e-2)
        assert abs(ua.slope_estimate - (ua.vanishing_exponent + 1.0)) <= ua.slope_ci + 1e-9

    def test_hopf_small_lambda(self):
        p = integrate_cm(LinearHopf(0.1, 3.0), math.pi / 2.0, 1.0,
                         (1e-8, math.pi - 0.2))
        ua = umbilic_slope_estimate(p)
        assert ua.slope_estimate == pytest.approx(0.1, abs=1e-2)

    def test_sphere_is_undefined(self):
        p = integrate_cm(PureKLinear(1.0), math.pi / 2.0, 1.0,
                         (1e-8, math.pi - 1e-8))
        with pytest.raises(UndefinedSlopeError):
            umbilic_slope_estimate(p)

    def test_power_three_halves_family(self):
        # designed family with r2 - r1 = sin^1.5: slope 2.5
        prof = slope_restriction_profile(1.5, 0.0)
        ua = umbilic_slope_estimate(prof)
        assert ua.slope_estimate == pytest.approx(2.5, abs=5e-2)

    def test_off_axis_ring_reports_unbounded(self):
        # s = r2 - r1 = sin(2 theta) changes sign at the equator ring;
        # integrated CM gives r1 = r0 + int s cot = r0 + sin^2(theta)... with
        # s = sin 2 th: int sin2u cot u du = int 2 cos^2 u du = u + sin u cos u
        grid = np.linspace(0.05, math.pi - 0.05, 400)
        r1 = 1.0 + grid + np.sin(grid) * np.cos(grid)
        s = np.sin(2.0 * grid)
        prof = RoCProfile(grid, r1, r1 + s, meta={"value_noise": 1e-14})
        # a north-pole approach from theta_ref > pi/2 crosses the ring
        ua = umbilic_slope_estimate(prof, r0=1.0, side="north", theta_ref=2.0)
        assert ua.unbounded


    def test_ladder_queries_are_array_calls(self, hopf3_profile):
        calls = []

        def counting(theta):
            calls.append(np.shape(theta))
            return hopf3_profile.evaluator(theta)

        p = RoCProfile(hopf3_profile.grid, hopf3_profile.r1, hopf3_profile.r2, evaluator=counting,
                       relation=hopf3_profile.relation, meta=hopf3_profile.meta)
        ua = umbilic_slope_estimate(p, k_max=20)
        assert ua.slope_estimate == umbilic_slope_estimate(hopf3_profile, k_max=20).slope_estimate
        # one whole-ladder array (k_max + 1 rungs) for both radii
        assert calls == [(21,)]


class TestVanishingRate:
    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    @pytest.mark.parametrize("delta, expected", [
        (-1.0, "zero"), (0.0, "finite"), (1.0, "divergent"),
    ])
    def test_rate_classification(self, alpha, delta, expected):
        prof = slope_restriction_profile(alpha, delta)
        rate = vanishing_rate_estimate(prof, alpha)
        assert rate.classification == expected
        if expected == "finite":
            assert rate.value == pytest.approx(1.0, abs=1e-3)
        if expected == "zero":
            assert rate.value == 0.0

    def test_sphere_rate_zero(self):
        p = integrate_cm(PureKLinear(1.0), math.pi / 2.0, 1.0,
                         (1e-8, math.pi - 1e-8))
        rate = vanishing_rate_estimate(p, 1.5)
        assert rate.classification == "zero"

    def test_hopf_rate_at_two(self, hopf3_profile):
        # r2 - r1 = 2 r1 - 3 = sin^2(theta) for the A0 = -1 member
        rate = vanishing_rate_estimate(hopf3_profile, 2.0)
        assert rate.classification == "finite"
        assert rate.value == pytest.approx(1.0, abs=1e-3)


class TestSlopeTheoremCheck:
    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    @pytest.mark.parametrize("delta", [-1.0, 0.0, 1.0])
    def test_fixture_matrix_passes(self, alpha, delta):
        rep = slope_theorem_check(slope_restriction_profile(alpha, delta))
        assert rep["passed"]
        assert rep["mu"] == pytest.approx(alpha + 1.0, abs=5e-2)
        if delta == 0.0:
            assert rep["equality_checked"]
        if delta == 1.0:
            assert rep.get("alpha_is_lower_bound_only")

    def test_sphere_vacuous(self):
        p = integrate_cm(PureKLinear(1.0), math.pi / 2.0, 1.0,
                         (1e-8, math.pi - 1e-8))
        rep = slope_theorem_check(p)
        assert rep["passed"] and rep["vacuous"]

    def test_hopf_pass(self, hopf3_profile):
        rep = slope_theorem_check(hopf3_profile)
        assert rep["passed"]
        assert rep["mu"] >= 1.0 - rep["ci"]


def test_slope_lower_bound_over_matrix(integrated_matrix):
    # every strictly convex isolated-umbilic run reports mu >= 1 - ci
    for rel, profile, _, _ in integrated_matrix:
        fine = integrate_cm(rel, math.pi / 2.0, float(profile.r1_at(math.pi / 2.0)),
                            (1e-8, math.pi / 2.0))
        try:
            ua = umbilic_slope_estimate(fine)
        except (UndefinedSlopeError, ValueError):
            continue
        if ua.unbounded or not math.isfinite(ua.slope_estimate):
            continue
        if not ua.pole_convergent:
            continue  # not strictly convex at the pole: the bound's premise fails
        assert ua.slope_estimate >= 1.0 - ua.slope_ci - 5e-2, rel
