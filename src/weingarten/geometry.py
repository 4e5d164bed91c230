"""Support functions, radii of curvature, and profile curves.

Conventions (used package-wide):

* theta is the Gauss angle between the rotation axis (+z) and the
  outward normal, in [0, pi]; theta = 0 / pi are the poles.
* r(theta) is the support function; the radii of curvature are
  r1 = r + r'*cot(theta) (parallels) and r2 = r + r'' (profile curve).
* A curve theta -> (r1, r2) comes from a surface of revolution iff it
  satisfies the derived Codazzi-Mainardi equation
  dr1/dtheta = (r2 - r1)*cot(theta).
* Profiles are frequently sampled uniformly in the monotone coordinate
  t = ln(tan(theta/2)) (so sin(theta) = sech(t), cos(theta) = -tanh(t)),
  which keeps pole approaches well resolved; sampled-data derivatives
  are then 4th-order centered differences in t with the exact chain rule.

Pole handling: cot(theta) is only evaluated for theta in
[POLE_EPS, pi - POLE_EPS]; values at the poles must enter as declared
limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import make_interp_spline

from .numerics import (
    adaptive_simpson,
    cumulative_quadrature,
    cumulative_simpson_uniform,
    derivative_samples,
    derivative_uniform,
)
from .projective import ExtReal

__all__ = [
    "POLE_EPS",
    "GaussAngle",
    "RoCPoint",
    "RoCProfile",
    "SupportProfile",
    "ProfileCurve3D",
    "SingularEvaluationError",
    "FlatPointError",
    "t_of_theta",
    "theta_of_t",
    "curvatures_from_support",
    "support_from_r1",
    "embed_profile",
    "cm_residual",
    "integrated_cm_check",
]

POLE_EPS = 1e-6


class SingularEvaluationError(ValueError):
    """cot(theta) requested at a pole without a declared limit."""


class FlatPointError(ValueError):
    """Operation undefined at a flat point (infinite radius of curvature)."""


def t_of_theta(theta):
    """Monotone log-tangent coordinate t = ln tan(theta/2)."""
    theta = np.asarray(theta, dtype=float)
    return np.log(np.tan(theta / 2.0))


def theta_of_t(t):
    t = np.asarray(t, dtype=float)
    return 2.0 * np.arctan(np.exp(t))


@dataclass(frozen=True)
class GaussAngle:
    """Gauss angle in radians, constrained to [0, pi]."""

    value: float

    def __post_init__(self):
        if not (0.0 <= self.value <= math.pi):
            raise ValueError(f"Gauss angle {self.value} outside [0, pi]")

    @property
    def is_pole(self) -> bool:
        return self.value <= POLE_EPS or self.value >= math.pi - POLE_EPS

    @property
    def interior(self) -> bool:
        return not self.is_pole

    def __float__(self) -> float:
        return self.value


def as_angle(theta) -> float:
    """Accept a GaussAngle or plain radians; return validated radians."""
    if isinstance(theta, GaussAngle):
        return theta.value
    th = float(theta)
    if not (0.0 <= th <= math.pi):
        raise ValueError(f"Gauss angle {th} outside [0, pi]")
    return th


@dataclass(frozen=True)
class RoCPoint:
    """One point of the radii-of-curvature diagram."""

    r1: ExtReal
    r2: ExtReal


def _is_uniform(x: np.ndarray, rtol: float = 1e-6) -> bool:
    # tolerance sized for coordinate round-trip noise; spacing wobble at
    # this level perturbs 4th-order stencils far below their truncation
    if len(x) < 3:
        return True
    d = np.diff(x)
    return float(np.max(np.abs(d - d[0]))) <= rtol * max(abs(float(d[0])), 1e-300)


class RoCProfile:
    """Sampled curve theta -> (r1, r2) in the extended RoC plane.

    ``grid`` is strictly increasing; np.inf marks flat samples in r2.
    ``pole_values`` holds declared finite limits at theta in {0, pi}.
    Every field is declared in ``__slots__`` and set by the constructor,
    so attaching any other attribute raises AttributeError.  Optional
    keyword fields, all ``None`` unless given:

    * ``evaluator`` -- dense values theta -> array([r1, r2]) for
      analytically or ODE-densely constructed profiles;
    * ``relation`` -- the Weingarten relation the curve satisfies;
    * ``support`` -- the SupportProfile of the same surface;
    * ``s_fn`` -- exact excess theta -> r2 - r1 (scalar in, scalar out),
      used where differences of interpolated radii drown in noise;
    * ``r1_excess_fn`` -- exact theta -> r1 - r0 against the umbilic
      value r0 at the pole (scalar in, scalar out).
    """

    __slots__ = ("grid", "r1", "r2", "pole_values", "evaluator", "relation", "support",
                 "s_fn", "r1_excess_fn", "tolerance", "meta", "_spl_r1", "_spl_r2")

    def __init__(self, grid, r1, r2, *, pole_values: Optional[dict] = None,
                 evaluator: Optional[Callable] = None,
                 relation=None,
                 support: Optional["SupportProfile"] = None,
                 s_fn: Optional[Callable] = None,
                 r1_excess_fn: Optional[Callable] = None,
                 tolerance: float = 1e-8,
                 meta: Optional[dict] = None):
        self.grid = np.asarray(grid, dtype=float)
        self.r1 = np.asarray(r1, dtype=float)
        self.r2 = np.asarray(r2, dtype=float)
        if self.grid.ndim != 1 or len(self.grid) != len(self.r1) or len(self.grid) != len(self.r2):
            raise ValueError("grid, r1, r2 must be 1-d arrays of equal length")
        if len(self.grid) > 1 and not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if len(self.grid) and (self.grid[0] < 0.0 or self.grid[-1] > math.pi):
            raise ValueError("grid must lie in [0, pi]")
        self.pole_values = dict(pole_values) if pole_values else {}
        self.evaluator = evaluator
        self.relation = relation
        self.support = support
        self.s_fn = s_fn
        self.r1_excess_fn = r1_excess_fn
        self.tolerance = float(tolerance)
        self.meta = dict(meta) if meta else {}
        self._spl_r1 = None
        self._spl_r2 = None

    def __len__(self) -> int:
        return len(self.grid)

    def point(self, i: int) -> RoCPoint:
        return RoCPoint(ExtReal(float(self.r1[i])), ExtReal(float(self.r2[i])))

    def _spline(self, which: str):
        vals = self.r1 if which == "r1" else self.r2
        if np.any(~np.isfinite(vals)):
            raise FlatPointError(f"{which} has non-finite samples; cannot interpolate")
        key = "_spl_" + which
        if getattr(self, key) is None:
            k = min(5, len(self.grid) - 1)
            setattr(self, key, make_interp_spline(self.grid, vals, k=k))
        return getattr(self, key)

    def r1_at(self, theta):
        if self.evaluator is not None:
            return np.asarray(self.evaluator(theta))[0]
        return self._spline("r1")(theta)

    def r2_at(self, theta):
        if self.evaluator is not None:
            return np.asarray(self.evaluator(theta))[1]
        return self._spline("r2")(theta)

    @property
    def theta_min(self) -> float:
        return float(self.grid[0])

    @property
    def theta_max(self) -> float:
        return float(self.grid[-1])

    def restricted(self, lo: float, hi: float) -> "RoCProfile":
        mask = (self.grid >= lo) & (self.grid <= hi)
        return RoCProfile(self.grid[mask], self.r1[mask], self.r2[mask],
                          pole_values=self.pole_values, evaluator=self.evaluator,
                          relation=self.relation, support=self.support, s_fn=self.s_fn,
                          r1_excess_fn=self.r1_excess_fn, tolerance=self.tolerance,
                          meta=self.meta)


class SupportProfile:
    """Sampled support function with trustworthy first/second derivatives.

    Sources, in order of preference: analytic callbacks (``r_fun``,
    ``rdot_fun``, ``rddot_fun``), stored derivative arrays from an exact
    construction (``rdot``, ``rddot``), or a spline of degree >= 4
    through the samples.  Callbacks given to the constructor are
    array-first: a 1-d theta array in gives an array out, a 0-d theta
    gives a scalar; ``from_callables`` adapts scalar callbacks.  Every
    field is declared in ``__slots__`` and set by the constructor.
    """

    __slots__ = ("grid", "r", "rdot_arr", "rddot_arr", "r_fun", "rdot_fun", "rddot_fun",
                 "meta", "_spl")

    def __init__(self, grid, r, *, rdot=None, rddot=None,
                 r_fun: Optional[Callable] = None,
                 rdot_fun: Optional[Callable] = None,
                 rddot_fun: Optional[Callable] = None,
                 meta: Optional[dict] = None):
        self.grid = np.asarray(grid, dtype=float)
        self.r = np.asarray(r, dtype=float)
        if len(self.grid) > 1 and not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")
        self.rdot_arr = None if rdot is None else np.asarray(rdot, dtype=float)
        self.rddot_arr = None if rddot is None else np.asarray(rddot, dtype=float)
        self.r_fun = r_fun
        self.rdot_fun = rdot_fun
        self.rddot_fun = rddot_fun
        self.meta = dict(meta) if meta else {}
        self._spl = None

    @classmethod
    def from_callables(cls, grid, r_fun, rdot_fun, rddot_fun, meta=None) -> "SupportProfile":
        """Analytic support from scalar callbacks theta -> value."""
        def array_first(fun):
            vec = np.vectorize(fun, otypes=[float])
            return lambda theta: vec(theta) if np.ndim(theta) else fun(float(theta))

        r_fun, rdot_fun, rddot_fun = (array_first(f) for f in (r_fun, rdot_fun, rddot_fun))
        grid = np.asarray(grid, dtype=float)
        return cls(grid, r_fun(grid), r_fun=r_fun, rdot_fun=rdot_fun, rddot_fun=rddot_fun,
                   meta=meta)

    @property
    def analytic(self) -> bool:
        return self.rdot_fun is not None and self.rddot_fun is not None

    def _spline(self):
        if self._spl is None:
            k = min(5, len(self.grid) - 1)
            if k < 4 and len(self.grid) >= 5:
                k = 4
            self._spl = make_interp_spline(self.grid, self.r, k=k)
        return self._spl

    def value(self, theta):
        if self.r_fun is not None:
            return self.r_fun(theta)
        return self._spline()(theta)

    def rdot(self, theta):
        if self.rdot_fun is not None:
            return self.rdot_fun(theta)
        if self.rdot_arr is not None and np.ndim(theta) and len(np.asarray(theta)) == len(self.grid) \
                and np.allclose(theta, self.grid, rtol=0, atol=0):
            return self.rdot_arr
        return self._spline().derivative(1)(theta)

    def rddot(self, theta):
        if self.rddot_fun is not None:
            return self.rddot_fun(theta)
        if self.rddot_arr is not None and np.ndim(theta) and len(np.asarray(theta)) == len(self.grid) \
                and np.allclose(theta, self.grid, rtol=0, atol=0):
            return self.rddot_arr
        return self._spline().derivative(2)(theta)


@dataclass
class ProfileCurve3D:
    """Profile curve in cylindrical coordinates (rho, h) over the Gauss angle."""

    grid: np.ndarray
    rho: np.ndarray
    h: np.ndarray
    meta: dict = field(default_factory=dict)

    def slope_residual(self) -> np.ndarray:
        """dh/drho + tan(theta) at interior samples, via sampled derivatives."""
        dh = derivative_samples(self.grid, self.h)
        drho = derivative_samples(self.grid, self.rho)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = dh / drho
        return slope + np.tan(self.grid)


# ---------------------------------------------------------------------------
# operations


def _check_interior(grid: np.ndarray) -> np.ndarray:
    """Mask of samples where cot(theta) may be evaluated."""
    return (grid >= POLE_EPS) & (grid <= math.pi - POLE_EPS)


def curvatures_from_support(s: SupportProfile, pole_limits: Optional[dict] = None) -> RoCProfile:
    """Radii of curvature r1 = r + r'*cot(theta), r2 = r + r'' on the grid.

    Samples at the poles need analytic limits in ``pole_limits``
    (theta -> (r1, r2)); otherwise they raise SingularEvaluationError.
    """
    grid = s.grid
    interior = _check_interior(grid)
    if not np.all(interior) and not pole_limits:
        bad = grid[~interior]
        raise SingularEvaluationError(
            f"support sampled at pole angle(s) {bad[:3]}... without analytic limits")
    r = s.value(grid)
    rd = s.rdot(grid)
    rdd = s.rddot(grid)
    r1 = np.empty_like(r)
    r2 = r + rdd
    r1[interior] = r[interior] + rd[interior] / np.tan(grid[interior])
    pole_values = {}
    if not np.all(interior):
        for i in np.nonzero(~interior)[0]:
            th = float(grid[i])
            key = min(pole_limits, key=lambda k: abs(k - th))
            r1[i], r2[i] = pole_limits[key]
            pole_values[th] = pole_limits[key]

    evaluator = None
    if s.analytic and s.r_fun is not None:
        def evaluator(th, _s=s):
            th = np.asarray(th, dtype=float)
            rv = _s.r_fun(th)
            r1v = rv + _s.rdot_fun(th) / np.tan(th)
            r2v = rv + _s.rddot_fun(th)
            return np.array([r1v, r2v])
    return RoCProfile(grid, r1, r2, pole_values=pole_values or None,
                      evaluator=evaluator, meta={"source": "support"})


def support_from_r1(p: RoCProfile, anchor_angle, anchor_value: float) -> SupportProfile:
    """Particular solution of r + r'*cot(theta) = r1 through the anchor.

    Uses the integrated-by-parts form
        r(theta) = r1(theta) - cos(theta)*(C0 + I(theta)),
        I(theta) = integral_{theta0}^{theta} r1'(u)/cos(u) du,
        C0 = (r1(theta0) - anchor_value)/cos(theta0),
    with r1' eliminated through the derived Codazzi-Mainardi equation, so
    the integrand (r2 - r1)/sin(u) stays finite across theta = pi/2.  The
    profile is assumed CM-consistent to its construction tolerance.
    """
    theta0 = as_angle(anchor_angle)
    if abs(math.cos(theta0)) < 1e-12:
        raise SingularEvaluationError("anchor angle may not sit at theta = pi/2")
    if not (p.theta_min - 1e-12 <= theta0 <= p.theta_max + 1e-12):
        raise ValueError("anchor angle outside the profile domain")
    if np.any(~np.isfinite(p.r1)) or np.any(~np.isfinite(p.r2)):
        raise FlatPointError("support recovery requires finite radii on the grid")

    def g(u: float) -> float:
        return (p.r2_at(u) - p.r1_at(u)) / math.sin(u)

    grid = p.grid
    t = t_of_theta(grid)
    if _is_uniform(t) and len(grid) >= 5:
        # integral of g dtheta = (r2 - r1) dt on the uniform-t samples,
        # re-anchored at theta0 by one short adaptive segment
        S = cumulative_simpson_uniform(p.r2 - p.r1, float(t[1] - t[0]))
        i0 = int(np.argmin(np.abs(grid - theta0)))
        seg = adaptive_simpson(g, theta0, float(grid[i0]))
        integral = S - S[i0] + seg
    else:
        integral = cumulative_quadrature(g, grid, x0=theta0)
    c0 = (float(p.r1_at(theta0)) - float(anchor_value)) / math.cos(theta0)
    cosg = np.cos(grid)
    sing = np.sin(grid)
    r = p.r1 - cosg * (c0 + integral)
    rdot = sing * (c0 + integral)
    gvals = (p.r2 - p.r1) / sing
    rddot = cosg * (c0 + integral) + sing * gvals
    return SupportProfile(grid, r, rdot=rdot, rddot=rddot,
                          meta={"anchor_angle": theta0, "anchor_value": float(anchor_value)})


def embed_profile(p: RoCProfile, h_anchor: float = 0.0) -> ProfileCurve3D:
    """Cylindrical profile curve: rho = r1*sin(theta), dh/dtheta = -r2*sin(theta).

    The integration constant is fixed by h(grid[0]) = h_anchor.  Grids
    uniform in theta or in t = ln tan(theta/2) integrate their samples with
    the composite Simpson rule; anything else takes the adaptive path.
    """
    if np.any(np.isinf(p.r1)) or np.any(np.isinf(p.r2)):
        raise FlatPointError("flat sample (infinite radius); embed only finite profiles")
    rho = p.r1 * np.sin(p.grid)

    t = t_of_theta(p.grid)
    if _is_uniform(t):
        # dh/dt = -r2 sin(theta) * dtheta/dt = -r2 sin^2(theta)
        f = -p.r2 * np.sin(p.grid) ** 2
        h = h_anchor + cumulative_simpson_uniform(f, float(t[1] - t[0]))
    elif _is_uniform(p.grid):
        f = -p.r2 * np.sin(p.grid)
        h = h_anchor + cumulative_simpson_uniform(f, float(p.grid[1] - p.grid[0]))
    else:
        def integrand(u: float) -> float:
            return -float(p.r2_at(u)) * math.sin(u)

        h = h_anchor + cumulative_quadrature(integrand, p.grid, x0=float(p.grid[0]))
    return ProfileCurve3D(p.grid, rho, h, meta={"h_anchor": float(h_anchor)})


def _r1_derivative(p: RoCProfile) -> np.ndarray:
    """dr1/dtheta on the grid by the declared scheme."""
    t = t_of_theta(p.grid)
    if _is_uniform(t):
        dt = float(t[1] - t[0])
        return derivative_uniform(p.r1, dt) / np.sin(p.grid)
    if _is_uniform(p.grid):
        return derivative_uniform(p.r1, float(p.grid[1] - p.grid[0]))
    return derivative_samples(p.grid, p.r1)


def cm_residual(p: RoCProfile) -> np.ndarray:
    """Per-sample defect of the derived Codazzi-Mainardi equation.

    residual = dr1/dtheta - (r2 - r1)*cot(theta); zero (to construction
    tolerance) exactly when the profile comes from a surface of revolution.
    """
    interior = _check_interior(p.grid)
    if not np.all(interior):
        raise SingularEvaluationError("cm_residual needs an interior grid")
    d = _r1_derivative(p)
    with np.errstate(invalid="ignore"):
        flux = (p.r2 - p.r1) / np.tan(p.grid)
    return d - flux


def integrated_cm_check(p: RoCProfile, theta_a, theta_b) -> float:
    """Defect of the integrated Codazzi-Mainardi relationship on [a, b].

    defect = r1(b) - r1(a) - integral_a^b (r2 - r1)*cot(u) du.
    """
    a = as_angle(theta_a)
    b = as_angle(theta_b)
    for th in (a, b):
        if th < POLE_EPS or th > math.pi - POLE_EPS:
            raise SingularEvaluationError("integration endpoints must be interior")

    def integrand(u: float) -> float:
        return (float(p.r2_at(u)) - float(p.r1_at(u))) / math.tan(u)

    integral = adaptive_simpson(integrand, a, b)
    return float(p.r1_at(b)) - float(p.r1_at(a)) - integral
