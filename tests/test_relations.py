import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from weingarten.relations import eval_F_float
from weingarten.projective import INF, ExtReal
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
        assert eval_F(rel, 0.25).is_inf

    def test_infinity_input(self):
        assert eval_F(LinearHopf(2.0, 1.0), INF).is_inf
        rel = SemiQuadratic(0.0, 1.0, 1.0, -4.0)
        assert float(eval_F(rel, INF)) == pytest.approx(0.25)

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
        assert not got.is_inf
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-12)


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
