"""Shared numerical kernels: quadrature, finite differences, dense output.

The declared schemes for the whole package:

* dense ODE output -- the DOP853 interpolants of the run, as power
  coefficients, one array query at a time;
* quadrature -- adaptive Simpson, abs tol 1e-10 / rel tol 1e-8, and a
  fixed 4-point Gauss-Legendre rule for short segments of smooth data
  (the support, and the numeric multiplier's J and G2);
* derivatives of sampled data -- centered 4th-order stencils on uniform
  grids (one-sided 4th-order at the ends), quintic spline otherwise;
* maxima of sampled data -- grid argmax plus 3-point parabolic refinement.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.interpolate import make_interp_spline

__all__ = [
    "StackedDense",
    "adaptive_simpson",
    "cumulative_quadrature",
    "cumulative_simpson_uniform",
    "gauss_segments",
    "derivative_uniform",
    "derivative_samples",
    "refine_max_parabolic",
]

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8


def _dop853_power_matrix() -> np.ndarray:
    """M whose row k, dotted with scipy's 7 DOP853 interpolant rows F_j, is the
    x^(k+1) coefficient of the nested form x (F0 + (1 - x)(F1 + x (F2 + ...))),
    in which F_j carries x^(j//2 + 1) (1 - x)^((j + 1)//2)."""
    M = np.zeros((7, 7))
    for j in range(7):
        a, b = j // 2 + 1, (j + 1) // 2
        for i in range(b + 1):
            M[a + i - 1, j] = math.comb(b, i) * (-1) ** i
    return M


_DOP853_POWERS = _dop853_power_matrix()


class StackedDense:
    """A DOP853 ``OdeSolution``'s segments stacked once as power coefficients C,
    y = y_old + sum_k C[:, k] x^(k+1) with x = (t - t_old) / h and C the
    expanded nested form, so that a query of shape S costs a fixed number of
    numpy steps and gives values of shape (states,) + S.

    Segments are picked by OdeSolution's rule: a knot belongs to the lower-index one.
    """

    def __init__(self, sol):
        segs = sol.interpolants if sol.ascending else sol.interpolants[::-1]
        self.ts_sorted, self.side = sol.ts_sorted, sol.side
        self.t_old = np.array([s.t_old for s in segs])
        self.h = np.array([s.h for s in segs])
        coeffs = [(_DOP853_POWERS @ s.F).T for s in segs]
        self.C = np.moveaxis(np.array(coeffs), 0, -1)            # (states, powers, segments)
        self.y_old = np.array([s.y_old for s in segs]).T          # (states, segments)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.ts_sorted, t, side=self.side) - 1, 0, len(self.h) - 1)
        x = (t - self.t_old[seg]) / self.h[seg]
        powers = np.cumprod(np.broadcast_to(x, (self.C.shape[1],) + x.shape), axis=0)
        # summed over the power axis, not by einsum, whose rounding of one
        # point depends on how many other points share the call
        return (self.C[:, :, seg] * powers).sum(axis=1) + self.y_old[:, seg]


def _simpson(f, a, fa, b, fb, m, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
            + _adaptive(f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     abs_tol: float = QUAD_ABS_TOL, rel_tol: float = QUAD_REL_TOL,
                     max_depth: int = 48) -> float:
    """Adaptive Simpson integral of f over [a, b]."""
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(f, a, fa, b, fb, m, fm)
    tol = max(abs_tol, rel_tol * abs(whole))
    return sign * _adaptive(f, a, fa, b, fb, m, fm, whole, tol, max_depth)


def cumulative_quadrature(f: Callable[[float], float], grid: np.ndarray,
                          x0: float | None = None,
                          abs_tol: float = QUAD_ABS_TOL,
                          rel_tol: float = QUAD_REL_TOL) -> np.ndarray:
    """Cumulative integral of f from x0 to every grid point.

    x0 defaults to grid[0]; x0 may lie anywhere relative to the grid.
    """
    grid = np.asarray(grid, dtype=float)
    out = np.empty_like(grid)
    if x0 is None:
        x0 = float(grid[0])
    span = max(float(grid[-1] - grid[0]), abs(float(grid[0]) - x0), 1e-300)

    def panel(a: float, b: float) -> float:
        # scale the absolute budget with the panel so the sum stays within abs_tol
        tol = max(abs_tol * abs(b - a) / span, 1e-16)
        return adaptive_simpson(f, a, b, tol, rel_tol)

    # integrate from x0 to the nearest grid point, then panel by panel
    i_near = int(np.argmin(np.abs(grid - x0)))
    out[i_near] = panel(x0, float(grid[i_near]))
    for i in range(i_near + 1, len(grid)):
        out[i] = out[i - 1] + panel(float(grid[i - 1]), float(grid[i]))
    for i in range(i_near - 1, -1, -1):
        out[i] = out[i + 1] - panel(float(grid[i]), float(grid[i + 1]))
    return out


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


def gauss_segments(f: Callable[[np.ndarray], np.ndarray], a, b) -> np.ndarray:
    """Integrals of f over each [a[i], b[i]] by one 4-point Gauss-Legendre rule.

    f gets the nodes of up to 4096 segments per call, as an array of shape
    (segments, 4), which bounds the temporaries of long grids; each integral
    is the same whatever else the call holds.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _GAUSS_X
    sums = [(f(nodes[j:j + 4096]) * _GAUSS_W).sum(axis=-1) for j in range(0, len(nodes), 4096)]
    return half * np.concatenate([np.zeros(0)] + sums)


def cumulative_simpson_uniform(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values (4th-order composite).

    Even offsets chain composite Simpson pairs; odd offsets add a cubic
    (4-point) single panel, so every prefix integral is locally O(h^5).
    """
    f = np.asarray(f, dtype=float)
    n = len(f)
    out = np.zeros(n)
    if n < 4:
        if n == 2:
            out[1] = 0.5 * h * (f[0] + f[1])
        elif n == 3:
            out[1] = h / 12.0 * (5.0 * f[0] + 8.0 * f[1] - f[2])
            out[2] = h / 3.0 * (f[0] + 4.0 * f[1] + f[2])
        return out
    even_pairs = h / 3.0 * (f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    out[2::2] = np.cumsum(even_pairs)
    # odd points: one cubic panel over [x_{i-1}, x_i]
    odd = np.arange(1, n, 2)
    centered = odd[(odd >= 3) & (odd <= n - 2)]
    out[centered] = out[centered - 1] + h / 24.0 * (
        -f[centered - 2] + 13.0 * f[centered - 1] + 13.0 * f[centered] - f[centered + 1])
    if n >= 4:
        out[1] = out[0] + h / 24.0 * (9.0 * f[0] + 19.0 * f[1] - 5.0 * f[2] + f[3])
    if n % 2 == 0:
        out[-1] = out[-2] + h / 24.0 * (f[-4] - 5.0 * f[-3] + 19.0 * f[-2] + 9.0 * f[-1])
    return out


# 4th-order one-sided stencils for the first derivative (forward; mirror for backward)
_ONESIDED4 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_OFFSET1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0  # derivative at second node


def derivative_uniform(values: np.ndarray, h: float) -> np.ndarray:
    """4th-order first derivative of uniformly sampled values."""
    y = np.asarray(values, dtype=float)
    n = len(y)
    if n < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    d[0] = np.dot(_ONESIDED4, y[:5]) / h
    d[1] = np.dot(_OFFSET1, y[:5]) / h
    d[-1] = -np.dot(_ONESIDED4, y[-5:][::-1]) / h
    d[-2] = -np.dot(_OFFSET1, y[-5:][::-1]) / h
    return d


def derivative_samples(x: np.ndarray, y: np.ndarray, order: int = 1) -> np.ndarray:
    """Derivative of scattered samples via a C^2 spline of degree >= 4."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = 5 if len(x) > 5 else max(3, len(x) - 1)
    spl = make_interp_spline(x, y, k=k)
    return spl.derivative(order)(x)


def refine_max_parabolic(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Argmax of sampled data with 3-point parabolic refinement.

    Returns (x_max, y_max); falls back to the grid point at the ends.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    i = int(np.argmax(y))
    if i == 0 or i == len(y) - 1:
        return float(x[i]), float(y[i])
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2 ** 2 * (y0 - y1) + x1 ** 2 * (y2 - y0) + x0 ** 2 * (y1 - y2)) / denom
    if a >= 0.0:
        return float(x1), float(y1)
    xm = -b / (2.0 * a)
    if not (x0 <= xm <= x2):
        return float(x1), float(y1)
    c = y1 - a * x1 ** 2 - b * x1
    return float(xm), float(a * xm ** 2 + b * xm + c)
