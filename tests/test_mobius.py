import ast
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from weingarten import (
    Calibration,
    CubicRoC,
    ExplicitF,
    Homothety,
    LinearHopf,
    MoebiusElement,
    ParallelTranslation,
    PureKLinear,
    Reciprocal,
    RoCProfile,
    SemiQuadratic,
    ads_invariants,
    apply_curvature,
    apply_factors,
    apply_roc,
    cm_residual,
    compose_factors,
    decompose,
    eval_F,
    induced_surface,
    integrate_cm,
    parse_relation,
    reciprocal_transform_closed,
    reparameterize,
    transform_relation,
    verify_transform_properties,
)
import weingarten
from weingarten.mobius import EmptyDomainError, to_semiquadratic
from conftest import random_moebius


@pytest.fixture(scope="module")
def sphere2():
    return integrate_cm(PureKLinear(1.0), math.pi / 2.0, 2.0,
                        (1e-6, math.pi - 1e-6))


@pytest.fixture(scope="module")
def hopf_closed():
    return integrate_cm(LinearHopf(3.0, -3.0), math.pi / 2.0, 2.0,
                        (1e-6, math.pi - 1e-6))


class TestPointAction:
    def test_identity(self):
        M = MoebiusElement(1, 0, 0, 1)
        out = apply_roc(M, (0.7, 1.9))
        assert out == (0.7, 1.9)
        assert all(isinstance(x, float) for x in out + apply_curvature(M, (0.7, 1.9)))

    def test_translation_subgroup(self):
        M = MoebiusElement(1, 0.4, 0, 1)
        out = apply_roc(M, (1.0, 2.0))
        assert float(out[0]) == pytest.approx(1.4)
        assert float(out[1]) == pytest.approx(2.4)

    def test_reciprocal_on_sphere_point(self):
        Q = MoebiusElement(0, -1, 1, 0)
        out = apply_roc(Q, (2.0, 2.0))
        assert float(out[0]) == pytest.approx(-0.5)
        assert float(out[1]) == pytest.approx(-0.5)

    def test_curvature_action_consistent_through_reciprocals(self, rng):
        for _ in range(50):
            M = random_moebius(rng)
            r = float(rng.uniform(0.2, 3.0))
            k = 1.0 / r
            r_img = apply_roc(M, (r, r))[0]
            k_img = apply_curvature(M, (k, k))[0]
            if np.isinf(r_img) or np.isinf(k_img):
                continue
            if abs(r_img) < 1e-8:
                continue
            assert k_img == pytest.approx(1.0 / r_img, rel=1e-9)

    def test_composition_law(self, rng):
        for _ in range(100):
            M1 = random_moebius(rng)
            M2 = random_moebius(rng)
            for _ in range(3):
                pt = tuple(rng.uniform(-5, 5, size=2))
                lhs = apply_roc(M2, apply_roc(M1, pt))
                rhs = apply_roc(M2 @ M1, pt)
                for a, b in zip(lhs, rhs):
                    if np.isinf(a) or np.isinf(b):
                        continue
                    if abs(b) > 1e3:
                        continue
                    assert a == pytest.approx(b, abs=1e-12 * max(1, abs(b)))


class TestDecompose:
    def test_identity(self):
        fl = decompose(MoebiusElement(1, 0, 0, 1))
        assert isinstance(fl[0], ParallelTranslation) and fl[0].v == 0.0
        assert isinstance(fl[1], Homothety) and fl[1].omega == 1.0

    def test_q_factorization(self):
        fl = decompose(MoebiusElement(0, -1, 1, 0))
        kinds = [type(f).__name__ for f in fl]
        assert kinds == ["ParallelTranslation", "Homothety", "Reciprocal", "ParallelTranslation"]
        assert np.max(np.abs(compose_factors(fl).matrix()
                             - MoebiusElement(0, -1, 1, 0).matrix())) <= 1e-15

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("k", range(2, 13))
    def test_small_lower_left_entry(self, k, sign):
        # the [N(a/c), A(1/c), Q, N(d/c)] factors cancel like 1/c; criterion 06's bounds hold
        a, b, c = -0.8048235340399925, -2.9651584140569427, sign * 10.0 ** -k
        M = MoebiusElement(a, b, c, (1.0 + b * c) / a)
        fl = decompose(M)
        assert np.max(np.abs(compose_factors(fl).matrix() - M.matrix())) <= 1e-12
        for x in np.linspace(-3.0, 3.0, 13):
            direct, via = apply_roc(M, (x, x))[0], apply_factors(fl, (x, x))[0]
            assert abs(direct - via) <= 1e-10

    @pytest.mark.parametrize("M", [
        MoebiusElement(0.0, -100.0, 0.01, 0.0),            # a = 0: A(10) Q
        MoebiusElement(1e-10, (1e-10 - 1.0) / 1e-2, 1e-2, 1.0),
        MoebiusElement(-1e-10, (-1e-10 - 1.0) / -1e-3, -1e-3, 1.0),
        MoebiusElement(1e-3, -2.0, 1e-4, (1.0 - 2e-4) / 1e-3),
    ])
    def test_small_lower_left_entry_with_smaller_a(self, M):
        # the pivot is the larger of |a| and |c|; criterion 06's bounds hold
        fl = decompose(M)
        assert np.max(np.abs(compose_factors(fl).matrix() - M.matrix())) <= 1e-12
        for x in np.linspace(-3.0, 3.0, 13):
            if abs(M.c * x + M.d) < 1e-2:
                continue
            direct, via = apply_roc(M, (x, x))[0], apply_factors(fl, (x, x))[0]
            if abs(direct) <= 1e3:
                assert abs(direct - via) <= 1e-10

    def test_random_matrices_product_and_application(self, rng):
        for i in range(100):
            if i % 4 == 0:
                a = float(rng.uniform(0.2, 2.0))
                M = MoebiusElement(a, float(rng.normal()), 0.0, 1.0 / a)
            else:
                M = random_moebius(rng)
            fl = decompose(M)
            err = np.max(np.abs(compose_factors(fl).matrix() - M.matrix()))
            assert err <= 1e-12
            pt = tuple(rng.uniform(0.3, 3.0, size=2))
            direct = apply_roc(M, pt)
            viafactors = apply_factors(fl, pt)
            for a_, b_ in zip(direct, viafactors):
                if np.isinf(a_) or np.isinf(b_):
                    continue
                if abs(a_) > 1e4:
                    continue
                assert b_ == pytest.approx(a_, abs=1e-10 * max(1.0, abs(a_)))


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteEntries:
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("position", range(4))
    def test_moebius_element_rejects(self, position, value):
        entries = [1.0, 0.0, 0.0, 1.0]
        entries[position] = value
        with pytest.raises(ValueError, match="not all finite"):
            MoebiusElement(*entries)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_calibration_rejects(self, value, sphere2):
        with pytest.raises(ValueError, match="finite and nonzero"):
            Calibration(value)
        with pytest.raises(ValueError, match="finite and nonzero"):
            reparameterize(MoebiusElement(1, 0.5, 0, 1), sphere2, value)


class TestExtremeFiniteEntries:
    # the determinant of the entries as given overflows or underflows
    @pytest.mark.parametrize("entries, normalized", [
        ((1e200, 0.0, 0.0, 1e200), (1.0, 0.0, 0.0, 1.0)),
        ((1e170, 1e170, 0.0, 1e170), (1.0, 1.0, 0.0, 1.0)),
        ((1e-200, 0.0, 0.0, 1e-200), (1.0, 0.0, 0.0, 1.0)),
    ])
    def test_normalized_to_det_one(self, entries, normalized):
        m = MoebiusElement(*entries)
        assert (m.a, m.b, m.c, m.d) == normalized and m.det == 1.0


class TestReparameterize:
    def test_translation_identity_angles(self, sphere2):
        rep = reparameterize(MoebiusElement(1, 0.5, 0, 1), sphere2, Calibration(1.0))
        assert np.max(np.abs(rep.theta_tilde - rep.theta)) <= 1e-12

    def test_homothety_identity_angles(self, sphere2):
        om = 1.7
        rep = reparameterize(MoebiusElement(om, 0, 0, 1 / om), sphere2, Calibration(om))
        assert np.max(np.abs(rep.theta_tilde - rep.theta)) <= 1e-12

    def test_reciprocal_on_sphere(self, sphere2):
        rep = reparameterize(MoebiusElement(0, -1, 1, 0), sphere2, Calibration(0.5))
        assert np.max(np.abs(rep.theta_tilde - rep.theta)) <= 1e-7

    def test_auto_calibration_covers_profile(self, hopf_closed, rng):
        M = random_moebius(rng)
        rep = reparameterize(M, hopf_closed, "auto")
        assert rep.mask.all()
        assert np.max(np.abs(np.sin(rep.theta_tilde))) <= 1.0 + 1e-12

    def test_zero_calibration_rejected(self, sphere2):
        with pytest.raises(ValueError):
            reparameterize(MoebiusElement(1, 0, 0, 1), sphere2, 0.0)


class TestInducedSurface:
    def test_translated_sphere(self, sphere2):
        out = induced_surface(MoebiusElement(1, 0.5, 0, 1), sphere2, Calibration(1.0))
        assert out.kind == "surface"
        assert np.allclose(out.profile.r1, 2.5, atol=1e-10)
        # h~ = h + v cos(theta) for normal translation by v
        tt = out.profile.grid
        want = 2.5 * np.cos(tt)
        got = out.embedding.h
        assert np.max(np.abs((got - got[0]) - (want - want[0]))) <= 1e-8

    def test_homothety_scales_by_omega_squared(self, sphere2):
        om = 1.3
        out = induced_surface(MoebiusElement(om, 0, 0, 1 / om), sphere2, Calibration(om))
        assert np.allclose(out.profile.r1, 2.0 * om ** 2, atol=1e-9)
        assert np.allclose(out.embedding.rho, 2.0 * om ** 2 * np.sin(out.profile.grid),
                           atol=1e-9)

    def test_image_satisfies_cm(self, hopf_closed, rng):
        M = random_moebius(rng)
        out = induced_surface(M, hopf_closed, "auto")
        interior = out.profile.restricted(0.05, math.pi - 0.05)
        finite = np.isfinite(interior.r1) & np.isfinite(interior.r2)
        assert finite.mean() > 0.9
        res = cm_residual(interior)
        assert np.nanmax(np.abs(res[finite])) <= 1e-6

    def test_sphere_through_center_maps_to_plane(self):
        grid = np.linspace(0.3, math.pi - 0.3, 101)
        p = RoCProfile(grid, np.full_like(grid, 2.0), np.full_like(grid, 2.0))
        out = induced_surface(MoebiusElement(-1, 1, 1, -2), p)
        assert out.kind == "plane"

    def test_cone_image(self):
        grid = np.linspace(0.3, math.pi / 2.0, 101)
        r2 = np.full_like(grid, 2.0)
        r1 = 2.0 + 0.5 * np.sin(grid) ** 2  # r2 = const: a torus-like band
        out = induced_surface(MoebiusElement(-1, 1, 1, -2), RoCProfile(grid, r1, r2))
        assert out.kind == "cone"


    def test_image_carries_transported_relation(self):
        rel = LinearHopf(3.0, -2.0)
        prof = integrate_cm(rel, math.pi / 2.0, 1.5, (0.05, math.pi - 0.05))
        M = MoebiusElement(1.0, 0.5, 0.0, 1.0)
        assert induced_surface(M, prof).profile.relation == transform_relation(M, rel)

    def test_folded_gauss_angle_map_is_an_empty_domain(self):
        # the pole -d/c = 1 is r1 at the equator, where theta~(theta) turns back
        prof = integrate_cm(parse_relation("r2 = 2*r1"), math.pi / 2.0, 1.0, (1e-3, 3.14))
        with pytest.raises(EmptyDomainError, match="folds"):
            induced_surface(MoebiusElement(1.0, 0.0, -1.0, 1.0), prof)


@pytest.fixture(scope="module")
def explicit_source():
    return integrate_cm(parse_relation("r2 = 2*r1 + sin(r1)/10"), math.pi / 2.0, 1.0,
                        (0.05, math.pi - 0.05))


# det-1 matrices whose pole -d/c clears the source radii (0 < r1 <= 1, r2 < 2.1)
matrices = st.tuples(st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(-0.15, 0.3)).map(
    lambda abc: MoebiusElement(abc[0], abc[1], abc[2], (1.0 + abc[1] * abc[2]) / abc[0]))


class TestImageEvaluator:
    @settings(max_examples=25, deadline=None)
    @given(M=matrices, thetas=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=20))
    def test_array_call_equals_point_calls(self, explicit_source, M, thetas):
        img = induced_surface(M, explicit_source).profile
        whole = img.evaluator(np.array(thetas))
        assert whole.shape == (2, len(thetas))
        np.testing.assert_array_equal(whole, np.array([img.evaluator(t) for t in thetas]).T)

    @settings(max_examples=25, deadline=None)
    @given(M=matrices)
    @example(M=MoebiusElement(1.0, 0.0, 2.225073858507203e-309, 1.0))  # was taken for a plane
    def test_matches_stored_samples(self, explicit_source, M):
        img = induced_surface(M, explicit_source).profile
        for got, want in ((img.r1_at(img.grid), img.r1), (img.r2_at(img.grid), img.r2)):
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @settings(max_examples=25, deadline=None)
    @given(M=matrices, data=st.data())
    def test_matches_a_pointwise_brentq_solve(self, explicit_source, M, data):
        # the scalar bracketed solve the array evaluator replaced, at a tighter xtol
        out = induced_surface(M, explicit_source)
        img, src = out.profile, out.source_theta
        queries = data.draw(st.lists(st.floats(img.theta_min, img.theta_max), min_size=1,
                                     max_size=10))

        def residual(th, tt):
            r1 = float(explicit_source.r1_at(th))
            return out.A * (M.c * r1 + M.d) * math.sin(th) - math.sin(tt)

        def source_angle(tt):
            i = min(max(int(np.searchsorted(img.grid, tt)), 1), len(img.grid) - 1)
            lo, hi = sorted(src[[i - 1, i]])
            lo = max(lo - 1e-12, explicit_source.theta_min)
            hi = min(hi + 1e-12, explicit_source.theta_max)
            if residual(lo, tt) * residual(hi, tt) > 0.0:
                return None  # an end sample: test_query_beyond_an_end_gives_that_end
            return brentq(residual, lo, hi, args=(tt,), xtol=1e-15)

        roots = [(tt, source_angle(tt)) for tt in queries]
        roots = [(tt, th) for tt, th in roots if th is not None]
        want = apply_roc(M, tuple(explicit_source.evaluator(np.array([th for _, th in roots]))))
        got = img.evaluator(np.array([tt for tt, _ in roots]))
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 1e-13 * np.maximum(1.0, np.abs(w)))

    @settings(max_examples=25, deadline=None)
    @given(M=matrices, n=st.integers(1, 600))
    def test_a_query_costs_a_few_source_calls(self, explicit_source, M, n):
        # one bracket call, one per Newton iteration and one for the radii,
        # however many angles the query holds
        calls = []

        def counting(theta):
            calls.append(np.shape(theta))
            return explicit_source.evaluator(theta)

        source = RoCProfile(explicit_source.grid, explicit_source.r1, explicit_source.r2,
                            evaluator=counting)
        img = induced_surface(M, source).profile
        calls.clear()
        img.evaluator(np.linspace(0.0, math.pi, n))
        assert 2 <= len(calls) <= 12

    @settings(max_examples=25, deadline=None)
    @given(M=matrices, gaps=st.lists(st.floats(1e-9, 0.05), min_size=2, max_size=2))
    def test_query_beyond_an_end_gives_that_end(self, explicit_source, M, gaps):
        # no sign change in the end bracket: the end sample is the nearer end
        img = induced_surface(M, explicit_source).profile
        gaps = np.array(gaps)
        for theta, end in ((img.theta_min - gaps, 0), (img.theta_max + gaps, -1)):
            got = img.evaluator(theta)
            np.testing.assert_array_equal(got[:, 0], got[:, 1])
            want = np.array([img.r1[end], img.r2[end]])
            assert np.all(np.abs(got[:, 0] - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


class TestReciprocalClosed:
    def test_sphere_radius_inverts(self, sphere2):
        out = reciprocal_transform_closed(sphere2)
        assert out.A == pytest.approx(0.5, abs=1e-10)
        assert np.allclose(out.profile.r1, -0.5, atol=1e-10)
        assert np.allclose(out.profile.r2, -0.5, atol=1e-10)

    def test_hopf_closed_image_is_closed(self, hopf_closed):
        out = reciprocal_transform_closed(hopf_closed)
        assert abs(out.embedding.rho[0]) <= 1e-6
        assert abs(out.embedding.rho[-1]) <= 1e-6
        res = cm_residual(out.profile.restricted(0.05, math.pi - 0.05))
        assert np.max(np.abs(res)) <= 1e-6
        assert np.all(np.isfinite(out.embedding.h))

    def test_open_profile_rejected(self):
        grid = np.linspace(0.5, 2.0, 64)
        cyl = RoCProfile(grid, np.ones_like(grid), np.ones_like(grid) * 2.0)
        with pytest.raises(ValueError):
            reciprocal_transform_closed(cyl)


class TestTransformRelation:
    def test_identity(self):
        rel = SemiQuadratic(0.3, 1.0, -0.2, 0.5)
        assert transform_relation(MoebiusElement(1, 0, 0, 1), rel) is rel

    def test_translation_on_hopf(self):
        rel = LinearHopf(3.0, -5.0)
        img = transform_relation(MoebiusElement(1, 2, 0, 1), rel)
        assert isinstance(img, LinearHopf)
        assert img.lam == pytest.approx(3.0)
        assert img.C == pytest.approx(-5.0 + 2.0 * (1.0 - 3.0))

    def test_invariant_ratio_preserved(self, rng):
        from weingarten.semiquadratic import invariants
        from conftest import random_normalized_sq

        for _ in range(100):
            M = random_moebius(rng)
            sq = random_normalized_sq(rng)
            before = invariants(sq)
            img = to_semiquadratic(transform_relation(M, sq))
            after = invariants(img)
            assert after.ratio == pytest.approx(before.ratio, abs=1e-9)

    def test_pushforward_matches_pointwise_action(self, rng):
        # points satisfying rel map to points satisfying the image relation
        rel = SemiQuadratic(0.4, 1.1, -0.3, 0.6)
        for _ in range(25):
            M = random_moebius(rng)
            img = to_semiquadratic(transform_relation(M, rel))
            r1 = float(rng.uniform(0.4, 2.5))
            r2 = eval_F(rel, r1)
            if np.isinf(r2):
                continue
            i1, i2 = apply_roc(M, (r1, r2))
            if np.isinf(i1) or np.isinf(i2):
                continue
            k1, k2 = 1.0 / i1, 1.0 / i2
            a, b, g, d = img.coefficients()
            resid = a * k1 * k2 + b * k1 + g * k2 + d
            scale = max(abs(k1some) for k1some in (k1, k2, 1.0)) ** 2
            assert abs(resid) <= 1e-8 * max(1.0, scale)

    def test_explicit_composition(self):
        M = MoebiusElement(1, 1, 0, 1)  # r -> r + 1
        img = transform_relation(M, CubicRoC(1.0))
        assert isinstance(img, ExplicitF)
        # image F~(x) = F(x-1) + 1
        got = float(eval_F(img, 2.5))
        assert got == pytest.approx(1.5 ** 3 + 1.0, rel=1e-12)


def _det_one(abc):
    a, b, c = abc
    return MoebiusElement(a, b, c, (1.0 + b * c) / a)


# det-1 matrices of every kind: a bounded away from 0, b and c of either sign
group_elements = st.tuples(
    st.one_of(st.floats(-3.0, -0.3), st.floats(0.3, 3.0)),
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(_det_one)
semiquadratic_variants = st.one_of(
    st.tuples(*[st.floats(-3, 3)] * 4).filter(lambda c: max(map(abs, c)) > 1e-3)
    .map(lambda c: SemiQuadratic(*c)),
    st.builds(LinearHopf, st.floats(-4, 4), st.floats(-5, 5)),
    st.builds(PureKLinear, st.floats(-3, 3).filter(lambda x: abs(x) > 1e-3)),
)


class TestGroupLaw:
    """transform_relation(M2, transform_relation(M1, R)) = transform_relation(M2 @ M1, R)."""

    @settings(max_examples=200, deadline=None)
    @given(rel=semiquadratic_variants, M1=group_elements, M2=group_elements)
    # subnormal coefficients: normalisation must not overflow on the way
    @example(rel=SemiQuadratic(2.2e-309, 0, 0, -1), M1=MoebiusElement(-1, 0, 0, -1),
             M2=MoebiusElement(-1, 1, 0, -1))
    @example(rel=LinearHopf(2.2e-309, 0), M1=MoebiusElement(-1, 0, 0, -1),
             M2=MoebiusElement(-1, 1, 0, -1))
    def test_semiquadratic_coefficients(self, rel, M1, M2):
        def unit(r):
            v = np.array(to_semiquadratic(r).coefficients())
            return v / np.linalg.norm(v)
        nested = unit(transform_relation(M2, transform_relation(M1, rel)))
        composed = unit(transform_relation(M2 @ M1, rel))
        assert min(np.max(np.abs(nested - composed)),
                   np.max(np.abs(nested + composed))) <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(M1=group_elements, M2=group_elements)
    def test_explicit_pointwise(self, M1, M2):
        rel = parse_relation("r2 = r1^2/4 + sin(r1) + 1")
        nested = transform_relation(M2, transform_relation(M1, rel))
        composed = transform_relation(M2 @ M1, rel)
        compared = 0
        for x in np.linspace(-3.0, 3.0, 41):
            # away from the poles of m^{-1} in both constructions
            if min(abs(M2.a - M2.c * x), abs((M2 @ M1).a - (M2 @ M1).c * x)) < 1e-3:
                continue
            try:
                want = eval_F(composed, x)
                got = eval_F(nested, x)
            except (ArithmeticError, ValueError):
                continue
            if np.isinf(want) or np.isinf(got) or abs(want) > 1e4:
                continue
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)
            compared += 1
        assert compared > 0


class TestVerifyTransformProperties:
    def test_translation_preserves_slope(self, hopf_closed):
        rep = verify_transform_properties(MoebiusElement(1, 0.5, 0, 1), hopf_closed,
                                          cal=Calibration(1.0))
        assert rep["passed"]
        assert rep["mu_image"] == pytest.approx(3.0, abs=5e-2)

    def test_umbilic_curvature_hit_gives_reciprocal_slope(self, hopf_closed):
        # umbilic curvature k0 = 1/1.5 = 2/3; choose -a/b = 2/3 with det 1
        M = MoebiusElement(2.0, -3.0, 1.0, -1.0)
        rep = verify_transform_properties(M, hopf_closed, cal="auto")
        assert rep["slope_in_set"]
        assert rep["distance_to_reciprocal"] < rep["distance_to_mu"]
        assert rep["mu_image"] == pytest.approx(1.0 / 3.0, abs=5e-2)

    def test_sphere_umbilic_everywhere(self, sphere2, rng):
        rep = verify_transform_properties(random_moebius(rng), sphere2)
        assert rep["umbilic_correspondence"]
        assert rep["passed"]


class TestAdsInvariants:
    def test_cmc_is_geodesic(self):
        prof = integrate_cm(SemiQuadratic(0, 1, 1, -4), math.pi / 2.0, 1.0,
                            (0.2, math.pi - 0.2))
        inv = ads_invariants(prof)
        assert max(inv.drifts()) <= 1e-6

    def test_lw_vertical_geodesic_lambda3_zero(self):
        # r1 + r2 = 2: psi constant, the lambda3 = 0 branch
        prof = integrate_cm(LinearHopf(-1.0, 2.0), math.pi / 2.0, 0.3,
                            (0.6, math.pi - 0.6))
        inv = ads_invariants(prof)
        assert np.max(np.abs(inv.lam3)) <= 1e-9
        assert max(inv.drifts()) <= 1e-6

    def test_non_lw_negative_control(self):
        prof = integrate_cm(LinearHopf(2.0, 0.0), math.pi / 2.0, 1.0,
                            (0.2, math.pi - 0.2))
        inv = ads_invariants(prof)
        assert max(inv.drifts()) >= 1e-2

    def test_sphere_rejected(self):
        prof = integrate_cm(PureKLinear(1.0), math.pi / 2.0, 1.0,
                            (0.2, math.pi - 0.2))
        with pytest.raises(ValueError):
            ads_invariants(prof)


PACKAGE_DIR = os.path.dirname(weingarten.__file__)


@pytest.mark.parametrize("module", ["weingarten.semiquadratic", "weingarten.mobius"])
def test_module_imports_in_fresh_interpreter(module):
    path = os.pathsep.join(filter(None, [os.path.dirname(PACKAGE_DIR),
                                         os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", f"import {module}"], check=True,
                   env=dict(os.environ, PYTHONPATH=path))


def test_no_function_level_imports():
    """mobius, semiquadratic and cli import only at module top.

    The image evaluator solves for source angles itself, so mobius needs no
    call-time import of scipy.optimize.brentq either.
    """
    found = {}
    for name in ("mobius", "semiquadratic", "cli"):
        with open(os.path.join(PACKAGE_DIR, f"{name}.py")) as fh:
            tree = ast.parse(fh.read())
        found[name] = sorted(
            (node.module or "", alias.name)
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names)
    assert found == {"mobius": [], "semiquadratic": [], "cli": []}
