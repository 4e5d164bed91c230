import math

import numpy as np
import pytest

from weingarten import (
    LinearHopf,
    MoebiusElement,
    PureKLinear,
    RoCProfile,
    SemiQuadratic,
    canal_classify,
    classification_report,
    integrate_cm,
    invariants,
    normalize,
    reduce_to_pure_linear,
    transform_relation,
    transitivity_solve,
    umbilic_curvatures,
    umbilic_slope_formula,
)
from weingarten.mobius import to_semiquadratic
from weingarten.relations import RelationError
from weingarten.semiquadratic import ParabolicRelationError
from conftest import random_normalized_sq


class TestInvariants:
    def test_cmc(self):
        inv = invariants(SemiQuadratic(0, 1, 1, -4))
        assert inv.lambda1 == 0.0
        assert inv.lambda2 == 4.0
        assert inv.klass == "elliptic"

    def test_lw_with_zero_discriminant_is_parabolic(self):
        # beta = gamma (an LW relation) with (beta+gamma)^2 = 4 alpha delta
        inv = invariants(SemiQuadratic(1.0, 1.0, 1.0, 1.0))
        assert inv.lambda1 == 0.0 and inv.lambda2 == 0.0
        assert inv.klass == "parabolic"

    def test_hopf_k_form(self):
        lam = 2.3
        inv = invariants(LinearHopf(lam, 7.0))
        assert inv.lambda1 == pytest.approx(-1.0 - lam)
        assert inv.lambda2 == pytest.approx((lam - 1.0) ** 2)


class TestNormalize:
    def test_cmc(self):
        out = normalize(SemiQuadratic(0, 1, 1, -4))
        assert out.coefficients() == pytest.approx((0.0, 0.5, 0.5, -2.0))
        assert invariants(out).lambda2 == pytest.approx(1.0)

    def test_already_normalized(self):
        sq = SemiQuadratic(0, 0.5, 0.5, -2.0)
        assert normalize(sq).coefficients() == pytest.approx(sq.coefficients())

    def test_negative_discriminant_rejected(self):
        with pytest.raises(RelationError):
            normalize(SemiQuadratic(1.0, 0.0, 0.0, 1.0))


class TestUmbilicCurvatures:
    def test_cmc(self):
        assert umbilic_curvatures(SemiQuadratic(0, 1, 1, -4)) == pytest.approx([2.0])

    def test_negative_discriminant_empty(self):
        assert umbilic_curvatures(SemiQuadratic(1.0, 0.0, 0.0, 1.0)) == []

    def test_pure_k_linear_flat_umbilic(self):
        assert umbilic_curvatures(SemiQuadratic(0.0, 2.0, -1.0, 0.0)) == pytest.approx([0.0])

    def test_quadratic_pair(self):
        ks = umbilic_curvatures(SemiQuadratic(1.0, 0.0, 0.0, -4.0))
        assert ks == pytest.approx([-2.0, 2.0])


class TestSlopeFormula:
    def test_cmc_slope_minus_one(self):
        out = umbilic_slope_formula(SemiQuadratic(0, 1, 1, -4))
        assert out["mu_plus"] == pytest.approx(-1.0)
        assert out["mu_minus"] == pytest.approx(-1.0)

    def test_hopf_three(self):
        out = umbilic_slope_formula(LinearHopf(3.0, -3.0))
        vals = sorted([out["mu_plus"], out["mu_minus"]])
        assert vals == pytest.approx([1.0 / 3.0, 3.0])

    def test_reciprocal_pair_property(self, rng):
        for _ in range(50):
            sq = random_normalized_sq(rng)
            out = umbilic_slope_formula(sq)
            if out["degenerate"]:
                continue
            assert out["mu_plus"] * out["mu_minus"] == pytest.approx(1.0, rel=1e-9)

    def test_parabolic_degenerate(self):
        out = umbilic_slope_formula(SemiQuadratic(0.0, 1.0, 0.0, 0.0))  # L1 = 1 = L2
        assert out["degenerate"]
        assert 0.0 in (out["mu_plus"], out["mu_minus"])


class TestTransitivity:
    def test_identity_pair(self):
        sq = normalize(SemiQuadratic(0, 1, 1, -4))
        M = transitivity_solve(sq, sq)
        img = to_semiquadratic(transform_relation(M, sq))
        got = np.array(img.coefficients())
        want = np.array(sq.coefficients())
        assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) <= 1e-9

    def test_cmc_to_shifted(self):
        src = SemiQuadratic(0.0, 0.5, 0.5, -2.0)
        tgt = SemiQuadratic(0.0, 0.5, 0.5, -1.0)
        M = transitivity_solve(src, tgt)
        assert abs(M.det - 1.0) <= 1e-12
        img = to_semiquadratic(transform_relation(M, src))
        got = np.array(img.coefficients())
        want = np.array(tgt.coefficients())
        assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) <= 1e-9

    def test_elliptic_to_pure_linear_target(self):
        src = normalize(SemiQuadratic(0.3, 0.9, 0.9, -0.4))  # Lambda1 = 0
        tgt = SemiQuadratic(0.0, 0.5, 0.5, 0.0)
        M = transitivity_solve(src, tgt)
        img = to_semiquadratic(transform_relation(M, src))
        got = np.array(img.coefficients())
        assert min(np.max(np.abs(got - np.array(tgt.coefficients()))),
                   np.max(np.abs(got + np.array(tgt.coefficients())))) <= 1e-9

    def test_mismatched_invariants_rejected(self):
        a = random_normalized_sq(np.random.default_rng(1), lam1=0.5)
        b = random_normalized_sq(np.random.default_rng(2), lam1=1.5)
        with pytest.raises(RelationError):
            transitivity_solve(a, b)

    def test_random_pairs(self, rng):
        failures = 0
        for i in range(50):
            src = random_normalized_sq(rng)
            l1 = invariants(src).lambda1
            if i % 5 == 0:
                sign = math.copysign(1.0, l1) if l1 else 1.0
                tgt = SemiQuadratic(float(rng.normal()), 0.5 * (l1 + sign),
                                    0.5 * (-l1 + sign), 0.0)
            else:
                tgt = random_normalized_sq(rng, lam1=l1 if i % 2 else -l1)
            M = transitivity_solve(src, tgt)
            img = to_semiquadratic(transform_relation(M, src))
            got = np.array(img.coefficients())
            want = np.array(tgt.coefficients())
            err = min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))
            if err > 1e-9 or abs(M.det - 1.0) > 1e-12:
                failures += 1
        assert failures == 0


class TestReduce:
    def test_cmc_reduces_to_minus_one(self):
        M, lam = reduce_to_pure_linear(SemiQuadratic(0, 1, 1, -4))
        assert lam == pytest.approx(-1.0, abs=1e-9)
        assert abs(M.det - 1.0) <= 1e-12

    def test_lambda1_two(self):
        sq = random_normalized_sq(np.random.default_rng(5), lam1=2.0)
        M, lam = reduce_to_pure_linear(sq)
        assert min(abs(lam - 3.0), abs(lam - 1.0 / 3.0)) <= 1e-9

    def test_sign_matches_class(self, rng):
        for _ in range(200):
            sq = random_normalized_sq(rng)
            inv = invariants(sq)
            M, lam = reduce_to_pure_linear(sq)
            if inv.klass == "elliptic":
                assert lam < 0.0
            elif inv.klass == "hyperbolic":
                assert lam > 0.0

    def test_parabolic_routed_to_canal(self):
        with pytest.raises(ParabolicRelationError):
            reduce_to_pure_linear(SemiQuadratic(0.5, 1.0, 0.0, 0.0))  # L1^2 = L2 = 1


def _coefficient_error(got, want):
    got, want = np.array(got.coefficients()), np.array(want.coefficients())
    return min(np.max(np.abs(got - want)), np.max(np.abs(got + want)))


class TestNormalFormEdgeCases:
    """The null directions of the relation's quadratic form where a coefficient vanishes."""

    EDGE = [
        SemiQuadratic(0.0, 0.5, 0.5, -2.0),     # alpha = 0, Lambda1 = 0 (CMC)
        SemiQuadratic(0.0, 2.0, -1.0, 3.0),     # alpha = 0, Lambda1 = 3
        SemiQuadratic(0.7, 1.5, -0.5, 0.0),     # delta = 0, Lambda1 = 2
        SemiQuadratic(-1.2, -0.2, -0.8, 0.0),   # delta = 0, beta + gamma = -1
        SemiQuadratic(0.0, 1.0, -1.0 / 3.0, 0.0).normalized(),  # already pure-linear
    ]

    @pytest.mark.parametrize("sq", EDGE)
    def test_reduce_hits_pure_linear(self, sq):
        M, lam = reduce_to_pure_linear(sq)
        assert abs(M.det - 1.0) <= 1e-12
        img = to_semiquadratic(transform_relation(M, normalize(sq)))
        assert abs(img.alpha) <= 1e-12 and abs(img.delta) <= 1e-12
        assert lam == pytest.approx(-img.beta / img.gamma)

    @pytest.mark.parametrize("sq", EDGE)
    def test_source_equals_target(self, sq):
        M = transitivity_solve(sq, sq)
        assert abs(M.det - 1.0) <= 1e-12
        assert _coefficient_error(to_semiquadratic(transform_relation(M, sq)), sq) <= 1e-9

    @pytest.mark.parametrize("src, tgt", [
        (SemiQuadratic(0.5, 1.0, 0.0, 0.0), SemiQuadratic(-2.0, 1.5, 0.5, -0.375)),  # L1 = 1, 1
        (SemiQuadratic(0.5, 1.0, 0.0, 0.0), SemiQuadratic(0.8, -0.4, 0.6, -0.3)),    # L1 = 1, -1
        (SemiQuadratic(0.0, 0.0, 1.0, -2.0), SemiQuadratic(0.0, 1.0, 0.0, -0.5)),    # k2 = 2 to k1 = 1/2
        (SemiQuadratic(0.0, 0.0, 1.0, -2.0), SemiQuadratic(0.0, 0.0, 1.0, 0.0)),     # onto k2 = 0
    ])
    def test_parabolic_pairs(self, src, tgt):
        assert invariants(src).klass == invariants(tgt).klass == "parabolic"
        M = transitivity_solve(src, tgt)
        assert abs(M.det - 1.0) <= 1e-12
        assert _coefficient_error(to_semiquadratic(transform_relation(M, src)), tgt) <= 1e-9


class TestCanalClassify:
    GRID = np.linspace(0.3, math.pi - 0.3, 101)

    def test_round_sphere(self):
        p = RoCProfile(self.GRID, np.full_like(self.GRID, 2.0), np.full_like(self.GRID, 2.0))
        rel = SemiQuadratic(0.0, 0.5, 0.5, -0.5)  # k1 + k2 = 1 with L1=0... parabolic form
        rel = SemiQuadratic(0.0, 1.0, 0.0, -0.5)  # k1 = 1/2: L1=1, L2=1
        assert canal_classify(rel, p) == "round sphere"

    def test_torus(self):
        # tube of radius 1/2 about a circle: k2 = 2 constant, k1 varies
        r1 = 0.5 + 0.3 * np.sin(self.GRID) ** 2
        p = RoCProfile(self.GRID, r1, np.full_like(self.GRID, 0.5))
        rel = SemiQuadratic(0.0, 0.0, 1.0, -2.0)  # k2 = 2
        assert canal_classify(rel, p) == "torus of revolution"

    def test_cylinder(self):
        grid = np.linspace(math.pi / 2.0 - 0.2, math.pi / 2.0 + 0.2, 33)
        p = RoCProfile(grid, np.full_like(grid, 1.5), np.full_like(grid, np.inf))
        rel = SemiQuadratic(0.0, 0.0, 1.0, 0.0)  # k2 = 0
        assert canal_classify(rel, p) == "cylinder"

    def test_cone(self):
        grid = np.linspace(0.5, 1.3, 33)
        p = RoCProfile(grid, 1.0 / np.sin(grid), np.full_like(grid, np.inf))
        rel = SemiQuadratic(0.0, 0.0, 1.0, 0.0)
        assert canal_classify(rel, p) == "cone"

    def test_plane(self):
        grid = np.linspace(0.5, 1.3, 33)
        p = RoCProfile(grid, np.full_like(grid, np.inf), np.full_like(grid, np.inf))
        rel = SemiQuadratic(0.0, 0.0, 1.0, 0.0)
        assert canal_classify(rel, p) == "plane"

    def test_inconsistent_profile_diagnosed(self):
        p = RoCProfile(self.GRID, np.full_like(self.GRID, 1.0),
                       1.0 + np.sin(self.GRID))  # r1 const but r2 varies: impossible
        rel = SemiQuadratic(0.0, 1.0, 0.0, -0.5)
        with pytest.raises(RelationError):
            canal_classify(rel, p)

    def test_integrated_torus_profile(self):
        # k2 = 2 constant: integrate r2 = 1/2 as ExplicitF via Hopf(0, 1/2)
        prof = integrate_cm(LinearHopf(0.0, 0.5), 1.2, 0.9, (0.7, 2.4))
        rel = SemiQuadratic(0.0, 0.0, 1.0, -2.0)
        assert canal_classify(rel, prof) == "torus of revolution"


def test_classification_report_cmc():
    rep = classification_report(SemiQuadratic(0, 1, 1, -4))
    assert rep["class"] == "elliptic"
    assert rep["lambda1"] == 0.0 and rep["lambda2"] == 4.0
    assert rep["umbilic_k"] == pytest.approx([2.0])
    assert rep["reduction"]["lambda"] == pytest.approx(-1.0)


def test_classification_report_lw_from_hk_text():
    from weingarten import parse_relation

    rel = parse_relation("2*H + 3*K = 1")
    rep = classification_report(rel)
    assert rep["lambda1"] == 0.0
