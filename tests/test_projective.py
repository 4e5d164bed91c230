import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weingarten.projective import frac_linear_array


def test_infinite_floats_become_the_point_at_infinity():
    assert frac_linear_array(1.0, 0.0, 0.0, 1.0, -math.inf) == math.inf
    assert frac_linear_array(0.0, 1.0, 1.0, 0.0, 1e-320) == math.inf  # 1/1e-320 overflows
    assert frac_linear_array(1e300, 0.0, 0.0, 1.0, -1e300) == math.inf  # overflow to -inf


def test_frac_linear_projective_conventions():
    # (a*inf + b)/(c*inf + d) = a/c
    assert frac_linear_array(2.0, 5.0, 4.0, 1.0, math.inf) == 0.5
    # vanishing denominator maps to infinity, 0/0 included
    assert frac_linear_array(1.0, 0.0, 1.0, -2.0, 2.0) == math.inf
    assert frac_linear_array(1.0, -2.0, 1.0, -2.0, 2.0) == math.inf
    # c = 0 at infinity stays at infinity
    assert frac_linear_array(1.0, 3.0, 0.0, 1.0, math.inf) == math.inf


def test_reciprocal():
    arr = frac_linear_array(0.0, 1.0, 1.0, 0.0, np.array([2.0, 0.0, np.inf, 4.0]))
    assert arr.tolist() == [0.5, math.inf, 0.0, 0.25]


def test_array_map_matches_scalar():
    x = np.array([0.3, -1.7, np.inf, 2.0])
    got = frac_linear_array(0.6, 1.0, 0.5, -1.0, x)
    for xi, gi in zip(x, got):
        one = frac_linear_array(0.6, 1.0, 0.5, -1.0, float(xi))
        assert isinstance(one, float)
        assert one == gi


@given(st.floats(-50, 50), st.floats(-5, 5))
def test_translation_matrix_adds(x, v):
    out = frac_linear_array(1.0, v, 0.0, 1.0, x)
    assert np.isfinite(out)
    assert out == pytest.approx(x + v, rel=1e-12, abs=1e-12)
