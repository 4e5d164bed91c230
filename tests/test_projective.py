import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weingarten.projective import INF, ExtReal, frac_linear, frac_linear_array, proj_reciprocal


def test_infinity_is_a_single_point():
    assert INF.is_inf
    assert INF == ExtReal.infinity()
    assert INF != ExtReal(3.0)
    assert float(INF) == math.inf


def test_infinite_floats_become_the_point_at_infinity():
    for x in (math.inf, -math.inf):
        assert ExtReal(x).is_inf and ExtReal(x) == INF and hash(ExtReal(x)) == hash(INF)
    assert ExtReal(1e-320).reciprocal().is_inf  # 1/1e-320 overflows
    assert frac_linear(1e300, 0.0, 0.0, 1.0, -1e300).is_inf  # overflow to -inf


def test_frac_linear_projective_conventions():
    # (a*inf + b)/(c*inf + d) = a/c
    assert frac_linear(2.0, 5.0, 4.0, 1.0, INF) == ExtReal(0.5)
    # vanishing denominator maps to infinity
    assert frac_linear(1.0, 0.0, 1.0, -2.0, 2.0).is_inf
    # c = 0 at infinity stays at infinity
    assert frac_linear(1.0, 3.0, 0.0, 1.0, INF).is_inf


def test_frac_linear_zero_over_zero_raises():
    with pytest.raises(ArithmeticError):
        frac_linear(1.0, -2.0, 1.0, -2.0, 2.0)


def test_reciprocal():
    assert ExtReal(0.0).reciprocal().is_inf
    assert INF.reciprocal() == ExtReal(0.0)
    assert ExtReal(4.0).reciprocal() == ExtReal(0.25)
    arr = proj_reciprocal(np.array([2.0, 0.0, np.inf]))
    assert arr[0] == 0.5 and np.isinf(arr[1]) and arr[2] == 0.0


def test_array_map_matches_scalar():
    x = np.array([0.3, -1.7, np.inf, 2.0])
    got = frac_linear_array(0.6, 1.0, 0.5, -1.0, x)
    for xi, gi in zip(x, got):
        want = frac_linear(0.6, 1.0, 0.5, -1.0, ExtReal(xi) if np.isfinite(xi) else INF)
        if want.is_inf:
            assert np.isinf(gi)
        else:
            assert gi == pytest.approx(want.value, abs=1e-15)


@given(st.floats(-50, 50), st.floats(-5, 5))
def test_translation_matrix_adds(x, v):
    out = frac_linear(1.0, v, 0.0, 1.0, x)
    assert not out.is_inf
    assert out.value == pytest.approx(x + v, rel=1e-12, abs=1e-12)
