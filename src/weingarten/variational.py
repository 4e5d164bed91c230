"""Lagrangians, Jacobi last multipliers, and first integrals for r2 = F(r1).

In support-function form the relation r2 = F(r1) is the quasi-linear ODE
r'' + r - F(r' cot(theta) + r) = 0.  A Lagrangian L(theta, r, r') whose
Euler-Lagrange expression equals Phi * (r'' + r - F) exists exactly when
Phi solves the linear multiplier PDE; the translation-invariant solution
is

    Phi0(u) = exp(J(u)) / |u - F(u)|,    J(u) = int du/(u - F(u)),

evaluated at u = r1 = r' cot(theta) + r, with Lagrangian
L0 = tan^2(theta) * G2(r1) where G2'' = Phi0.  The key exact identities
G1 = (u - F) Phi0 (inner antiderivative of Phi0) and Phi0' = Phi0 F'/(u-F)
keep the whole verification chain quadrature-free except for G2 itself.

Every multiplier is a Jacobi last multiplier of the characteristic
system; the ratio of two JLMs is a first integral, and all of them are
f(I, Q) * Phi0 for the two basic first integrals

    I = exp(-J(r1)) / sin(theta),
    Q = [r - r1(I, theta)]/cos(theta) + anchor terms,

where the level curve x = r1(C, u) of I solves x' = cot(u) (F(x) - x),
the Codazzi-Mainardi equation itself, through x(theta) = r1.  Multiplier
methods, Lagrangian values and partials take floats or arrays, and each
check samples its trajectory and evaluates its partials in one array pass.
Where a scalar state raises SingularMultiplierError, an array state gives
NaN in that entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.optimize import brentq

from .geometry import POLE_EPS, SupportProfile
from .numerics import gauss_segments
from .relations import (
    CubicRoC,
    LinearHopf,
    PureKLinear,
    RelationError,
    WeingartenRelation,
    _F_or_nan,
    eval_F_float,
    eval_F_prime,
    fixed_points,
)

_EPS = np.finfo(float).eps
_GAUSS12 = np.polynomial.legendre.leggauss(12)   # GeneralSpec's nested rdot quadrature
_GAUSS32 = np.polynomial.legendre.leggauss(32)   # each panel of second_variation

__all__ = [
    "VariationalState",
    "Multiplier",
    "SingularMultiplierError",
    "L0Spec",
    "HopfL1Spec",
    "CubicL1Spec",
    "GeneralSpec",
    "LagrangianSpec",
    "phi0",
    "lagrangian_eval",
    "lagrangian_partials",
    "euler_lagrange_residual",
    "helmholtz_residual",
    "first_integral_I",
    "first_integral_Q",
    "jlm_ratio_check",
    "second_variation",
    "sine_perturbation_basis",
    "general_lagrangian",
]


class SingularMultiplierError(ValueError):
    """Evaluation at or across a fixed point of F."""


@dataclass(frozen=True)
class VariationalState:
    """A point (theta, r, dr/dtheta) of the first-order jet, or equal-shape arrays of them."""

    theta: float
    r: float
    rdot: float

    def __post_init__(self):
        th = self.theta
        if not np.all((POLE_EPS <= th) & (th <= math.pi - POLE_EPS)):
            raise ValueError("variational states must have an interior Gauss angle")

    @property
    def r1(self) -> float:
        return self.rdot / np.tan(self.theta) + self.r


def _like(u, values):
    """``values`` as a float for a scalar ``u``, else as an array."""
    return float(values) if np.ndim(u) == 0 else values


def _closed_forms(rel: WeingartenRelation):
    """Numpy (J, Phi0, G2) for the relations with a closed-form multiplier, else None."""
    if isinstance(rel, CubicRoC):
        g2 = rel.gamma ** 2

        def w(u):
            return np.abs(1.0 - g2 * u ** 2)
        return (lambda u: np.log(np.abs(u)) - 0.5 * np.log(w(u)),
                lambda u: w(u) ** -1.5,
                lambda u: -np.sqrt(w(u)) / g2)
    if isinstance(rel, LinearHopf) and not rel.degenerate:
        lam, C = rel.lam, rel.C
    elif isinstance(rel, PureKLinear) and rel.lam not in (0.0, 1.0):
        lam, C = 1.0 / rel.lam, 0.0
    else:
        return None

    def g(u):
        return np.abs((1.0 - lam) * u - C)
    if abs(lam - 2.0) <= 1e-9:
        def G2(u):
            return np.log(g(u)) / (1.0 - lam)
    else:
        def G2(u):
            return g(u) ** ((2.0 - lam) / (1.0 - lam)) / (2.0 - lam)
    return (lambda u: np.log(g(u)) / (1.0 - lam), lambda u: g(u) ** (lam / (1.0 - lam)), G2)


_J_STOP = 690.0                # |J| where the reach ends, so that exp(J) stays finite
_J_PANEL = 0.1                 # about the change of J, or of ln(distance to an end), per panel
_MAX_PANELS = 2 ** 16          # per side, whatever the estimate asks for
_FRACTIONS = np.logspace(-16.0, 0.0, 513)[:-1]   # of a side, geometric toward either end


class _Panels:
    """One side of the numeric J: 4-point Gauss panels from the base point toward
    an interval end, J summed at their edges outward from the base point, and G2
    likewise on its first query.  A query adds one segment from the edge below it, as
    ``geometry.support_by_quadrature`` does, so no value depends on another query.

    The panels equidistribute max(|J'|, 1/(distance to the nearer end),
    4/max(1, |base|)) / 0.1 over samples geometric toward both ends of the side
    and toward the edge of F's domain inside it, if any (array k-section): J
    moves about 0.1 per panel, and the panels shrink geometrically toward a
    fixed point or that edge.  The reach ends where |J| first reaches 690 (one
    root solve) or at the edge.
    """

    def __init__(self, rel: WeingartenRelation, sign: float, base: float, end: float,
                 interval: tuple[float, float]):
        self.rel, self.sign, self.out = rel, sign, math.copysign(1.0, end - base)
        span = end - base
        u = np.unique(np.concatenate([[base, end], base + span * _FRACTIONS,
                                      end - span * _FRACTIONS]))[::int(self.out)]   # base first
        jp = self._jp(u)
        edge, i = end, int(np.argmin(np.isfinite(jp)))   # i: the first undefined sample, or 0
        if i:   # F's domain ends between samples i - 1 and i: sample toward its edge
            edge = self._domain_edge(u[i - 1], u[i])
            u = np.unique(np.concatenate([u[:i], [edge], edge - (edge - base) * _FRACTIONS]))
            u = u[::int(self.out)]
            jp = self._jp(u)
        # the estimated |J| stays below the stop with a margin, and F is defined
        ok = np.abs(cumulative_trapezoid(jp, u, initial=0.0)) <= 1.1 * _J_STOP
        keep = np.logical_and.accumulate(ok)
        u, jp, complete = u[keep], jp[keep], keep.all()
        near = np.min(np.abs(u[:, None] - np.array([*interval, edge])), axis=1)
        rho = np.maximum(np.maximum(np.abs(jp), 1.0 / np.maximum(near, 1e-14 * abs(span))),
                         4.0 / max(1.0, abs(base))) / _J_PANEL
        N = np.abs(cumulative_trapezoid(rho, u, initial=0.0))
        n = min(math.ceil(N[-1]), _MAX_PANELS)
        self.edges = np.interp(np.linspace(0.0, N[-1], n + 1), N, u)
        self.J_sums = np.cumsum(np.append(0.0, gauss_segments(self._jp, self.edges[:-1],
                                                              self.edges[1:])))
        # an interval end gets the pad that Multiplier._inside allows, F's domain edge none
        self.reach = self.edges[-1] + self.out * (1e-12 if complete and edge == end else 0.0)
        i = int(np.argmin(np.abs(self.J_sums) < _J_STOP))   # first edge past the reach, or 0
        if i:
            self.reach = (brentq(lambda x: abs(self(np.array([x]))[0]) - _J_STOP,
                                 *sorted(self.edges[i - 1:i + 1]), xtol=4 * _EPS, rtol=4 * _EPS)
                          if np.isfinite(self.J_sums[i]) else self.edges[i - 1])
            self.edges, self.J_sums = self.edges[:i], self.J_sums[:i]

    def _jp(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return 1.0 / (u - _F_or_nan(self.rel, u))

    def _domain_edge(self, a: float, b: float) -> float:
        """The last point from ``a`` toward ``b`` where J' is finite, to adjacent floats or
        for 12 passes; each pass evaluates 65 points and shrinks the bracket 64-fold."""
        for _ in range(12):
            x = np.linspace(a, b, 65)
            j = int(np.argmin(np.isfinite(self._jp(x))))   # the first undefined point
            a, b = x[j - 1], x[j]
        return float(a)

    def _g2_integrand(self, u: np.ndarray) -> np.ndarray:
        return self.sign * np.exp(self(u))

    @cached_property
    def G2_sums(self) -> np.ndarray:
        return np.cumsum(np.append(0.0, gauss_segments(self._g2_integrand, self.edges[:-1],
                                                       self.edges[1:])))

    def __call__(self, u: np.ndarray, g2: bool = False) -> np.ndarray:
        """J at u past the base point, or G2 with ``g2``."""
        sums, f = (self.G2_sums, self._g2_integrand) if g2 else (self.J_sums, self._jp)
        flat = np.ravel(u)
        k = np.searchsorted(self.out * self.edges, self.out * flat, side="right") - 1
        return (sums[k] + gauss_segments(f, self.edges[k], flat)).reshape(np.shape(u))


class Multiplier:
    """The translation-invariant multiplier Phi0 and its antiderivatives.

    Valid on a fixed-point-free interval around ``base_point``; linear
    Hopf and cubic relations use their closed forms (matching the
    literature normalization), everything else sums J' = 1/(u - F(u)) and
    G2' = +-exp(J) over Gauss panels from the base point (``_Panels``, one
    table per side, built on first use).  Every method takes a float (and
    returns a float) or an array.
    """

    def __init__(self, rel: WeingartenRelation, base_point: float,
                 interval: Optional[tuple[float, float]] = None):
        self.rel = rel
        self.base_point = float(base_point)
        F0 = float(eval_F_float(rel, self.base_point))
        if not math.isfinite(F0) or F0 == self.base_point:
            raise SingularMultiplierError(
                f"base point {base_point} is a fixed point (or pole) of F")
        self._sign = math.copysign(1.0, self.base_point - F0)
        if interval is None:
            interval = self._enclosing_interval()
        self.interval = (float(interval[0]), float(interval[1]))
        self._forms = _closed_forms(rel)   # numpy (J, Phi0, G2), or None for numeric J

    # -- construction helpers ------------------------------------------------

    def _enclosing_interval(self) -> tuple[float, float]:
        width = max(10.0, 10.0 * abs(self.base_point))
        fps = fixed_points(self.rel, (self.base_point - width, self.base_point + width))
        lo = max([fp for fp in fps if fp < self.base_point], default=self.base_point - width)
        hi = min([fp for fp in fps if fp > self.base_point], default=self.base_point + width)
        pad = 1e-12 * max(1.0, abs(lo), abs(hi))
        return (lo + pad, hi - pad)

    def _inside(self, u: np.ndarray) -> np.ndarray:
        return (u >= self.interval[0] - 1e-12) & (u <= self.interval[1] + 1e-12)

    def _check(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if not np.all(self._inside(u)):
            raise SingularMultiplierError(
                f"argument outside the fixed-point-free interval {self.interval}")
        return u

    @cached_property
    def _sides(self) -> dict:
        """The numeric J's panel tables, keyed by ``below`` the base point."""
        return {end < self.base_point: _Panels(self.rel, self._sign, self.base_point, end,
                                               self.interval)
                for end in self.interval if end != self.base_point}

    def defined(self, u) -> np.ndarray:
        """Mask of the arguments every method accepts: inside the interval
        and, for a numeric J, within the reach of its panels."""
        u = np.asarray(u, dtype=float)
        if self._forms is not None:
            return self._inside(u)
        lo, hi = (getattr(self._sides.get(below), "reach", self.base_point)
                  for below in (True, False))
        return self._inside(u) & (u >= lo) & (u <= hi)

    def _numeric(self, u: np.ndarray, g2: bool = False) -> np.ndarray:
        """The numeric J (G2 if ``g2``), anchored at the base point."""
        if not np.all(self.defined(u)):
            raise SingularMultiplierError("argument beyond the multiplier's reach")
        out = np.zeros(u.shape)
        for below, side in self._sides.items():
            on = u < self.base_point if below else u > self.base_point
            if on.any():
                out[on] = side(u[on], g2)
        return out

    # -- core evaluations ----------------------------------------------------

    def J(self, u):
        """Antiderivative of 1/(u - F(u)); closed form where available."""
        x = self._check(u)
        return _like(u, self._forms[0](x) if self._forms else self._numeric(x))

    def phi0(self, u):
        """Phi0(u) = exp(J(u))/|u - F(u)| (strictly positive)."""
        x = self._check(u)
        if self._forms:
            return _like(u, self._forms[1](x))
        return _like(u, np.exp(self.J(x)) / np.abs(x - eval_F_float(self.rel, x)))

    def G1(self, u):
        """The inner antiderivative of Phi0: G1(u) = (u - F(u)) * Phi0(u).

        This is the anchor choice that makes the Euler-Lagrange identity
        for L0 exact (the integration constant must vanish).
        """
        x = self._check(u)
        return _like(u, self.phi0(x) * (x - eval_F_float(self.rel, x)))

    def G2(self, u):
        """Outer antiderivative of Phi0 (second antiderivative, convex)."""
        x = self._check(u)
        return _like(u, self._forms[2](x) if self._forms else self._numeric(x, g2=True))

    def I_exp(self, u):
        """exp(int du/(F - u)) = exp(-J(u)) (the angular part of I)."""
        return _like(u, np.exp(-self.J(u)))


def _mult_at(rel: WeingartenRelation, state: VariationalState,
             mult: Optional[Multiplier]) -> Multiplier:
    """``mult``, else the multiplier based at the state's (middle) r1."""
    if mult is not None:
        return mult
    r1 = np.ravel(state.r1)
    return Multiplier(rel, float(r1[len(r1) // 2]))


def phi0(rel: WeingartenRelation, u: float, base_point: Optional[float] = None,
         mult: Optional[Multiplier] = None) -> float:
    """Convenience wrapper: the standard multiplier at u."""
    if mult is None:
        mult = Multiplier(rel, base_point if base_point is not None else u)
    return mult.phi0(u)


# ---------------------------------------------------------------------------
# Lagrangian specifications


@dataclass(frozen=True)
class L0Spec:
    """L0 = tan^2(theta) * G2(r1): valid away from theta = pi/2."""


@dataclass(frozen=True)
class HopfL1Spec:
    """L1 = [rdot^2 + 2 C r - (1 - lam) r^2] / (2 sin^lam theta) for r2 = lam r1 + C."""


@dataclass(frozen=True)
class CubicL1Spec:
    """L1 = 1/(2 cos^2(theta) rho) + gamma^2 r / sin^3(theta) for r2 = gamma^2 r1^3."""


@dataclass
class GeneralSpec:
    """L = iint f(I, Q) Phi0 + g1 rdot + g2 for a user-chosen f over (I, Q)."""

    f: Callable[[float, Optional[float]], float]
    needs_Q: bool = False
    g1: Optional[Callable[[float, float], float]] = None
    g2: Optional[Callable[[float, float], float]] = None


LagrangianSpec = Union[L0Spec, HopfL1Spec, CubicL1Spec, GeneralSpec]


def _require(rel, cls, spec_name):
    if not isinstance(rel, cls):
        raise RelationError(f"{spec_name} needs a {cls.__name__} relation")


def _phi_of_spec(spec: LagrangianSpec, rel: WeingartenRelation,
                 mult: Multiplier) -> Callable[[float, float, float], float]:
    """The multiplier Phi(theta, r, rdot) attached to a Lagrangian kind, for
    floats or equal-shape arrays (a GeneralSpec's f is called point by point)."""
    if isinstance(spec, L0Spec):
        def phi(theta, r, rdot):
            return mult.phi0(rdot / np.tan(theta) + r)
    elif isinstance(spec, HopfL1Spec):
        _require(rel, LinearHopf, "HopfL1")
        lam = rel.lam

        def phi(theta, r, rdot):
            return np.sin(theta) ** (-lam)
    elif isinstance(spec, CubicL1Spec):
        _require(rel, CubicRoC, "CubicL1")

        def phi(theta, r, rdot):
            rho = rdot * np.cos(theta) + r * np.sin(theta)
            return 1.0 / rho ** 3
    elif isinstance(spec, GeneralSpec):
        f = np.vectorize(spec.f, otypes=[float])

        def phi(theta, r, rdot):
            st = VariationalState(theta, r, rdot)
            I = first_integral_I(rel, st, mult)
            Q = first_integral_Q(rel, st, mult) if spec.needs_Q else None
            return f(I, Q) * mult.phi0(st.r1)
    else:
        raise TypeError(f"unknown Lagrangian spec {spec!r}")
    return phi


def _l0_domain(state: VariationalState, mult: Multiplier):
    """(r1, mask) of an L0 state; the mask marks where L0 is undefined (|cos(theta)|
    < 1e-9 or ``mult`` undefined at r1), and r1 moves to the base point there so
    that ``mult`` accepts it.  A scalar state raises SingularMultiplierError."""
    u = state.r1
    bad = (np.abs(np.cos(state.theta)) < 1e-9) | ~mult.defined(u)
    if np.ndim(u) == 0:
        if bad:
            raise SingularMultiplierError(f"L0 is undefined at theta = {state.theta}, r1 = {u}")
        return u, False
    return np.where(bad, mult.base_point, u), bad


def lagrangian_eval(spec: LagrangianSpec, rel: WeingartenRelation,
                    state: VariationalState, mult: Optional[Multiplier] = None) -> float:
    """Value of the Lagrangian at a first-order jet state, or at a state of arrays."""
    th, r, rd = state.theta, state.r, state.rdot
    if isinstance(spec, L0Spec):
        mult = _mult_at(rel, state, mult)
        u, bad = _l0_domain(state, mult)
        val = np.where(bad, np.nan, np.tan(th) ** 2 * mult.G2(u))
    elif isinstance(spec, HopfL1Spec):
        _require(rel, LinearHopf, "HopfL1")
        lam, C = rel.lam, rel.C
        val = (rd ** 2 + 2.0 * C * r - (1.0 - lam) * r ** 2) / (2.0 * np.sin(th) ** lam)
    elif isinstance(spec, CubicL1Spec):
        _require(rel, CubicRoC, "CubicL1")
        rho = rd * np.cos(th) + r * np.sin(th)
        val = 1.0 / (2.0 * np.cos(th) ** 2 * rho) + rel.gamma ** 2 * r / np.sin(th) ** 3
    elif isinstance(spec, GeneralSpec):
        phi = _phi_of_spec(spec, rel, _mult_at(rel, state, mult))
        # nested fixed-order Gauss-Legendre in rdot, anchored at rdot = 0: the
        # outer nodes s on a new last axis, the inner nodes of [0, s] on one more
        nodes, weights = _GAUSS12
        half = 0.5 * np.asarray(rd, dtype=float)[..., None]
        sub = 0.5 * (half * nodes + half)
        u = sub[..., None] * nodes + sub[..., None]
        inner = sub * np.sum(weights * phi(np.expand_dims(th, (-2, -1)),
                                           np.expand_dims(r, (-2, -1)), u), axis=-1)
        val = half[..., 0] * np.sum(weights * inner, axis=-1)
        if spec.g1 is not None:
            val = val + np.vectorize(spec.g1, otypes=[float])(th, r) * rd
        if spec.g2 is not None:
            val = val + np.vectorize(spec.g2, otypes=[float])(th, r)
    else:
        raise TypeError(f"unknown Lagrangian spec {spec!r}")
    return _like(val, val)


def lagrangian_partials(spec: LagrangianSpec, rel: WeingartenRelation,
                        state: VariationalState, mult: Optional[Multiplier] = None,
                        analytic: bool = True) -> dict:
    """First/second partials of L needed by the expanded Euler-Lagrange form.

    Returns {'L_r', 'L_rdot', 'L_rdot_rdot', 'L_r_rdot', 'L_theta_rdot',
    'L_rr'}; analytic rules for the named kinds, centered differences with
    one Richardson level otherwise (or when analytic=False).  A state of
    arrays gives arrays from one pass over all states; for L0 their
    entries are NaN where L0 is undefined.
    """
    th, r, rd = state.theta, state.r, state.rdot
    bad = False
    if isinstance(spec, (L0Spec, GeneralSpec)):
        mult = _mult_at(rel, state, mult)
    if isinstance(spec, L0Spec):
        u, bad = _l0_domain(state, mult)
    if not analytic or isinstance(spec, GeneralSpec):
        parts = _numeric_partials(spec, rel, state, mult)
    elif isinstance(spec, L0Spec):
        tan = np.tan(th)
        P = mult.phi0(u)
        G1 = mult.G1(u)
        parts = {
            "L_r": tan ** 2 * G1,
            "L_rdot": tan * G1,
            "L_rdot_rdot": P,
            "L_r_rdot": tan * P,
            "L_theta_rdot": G1 / np.cos(th) ** 2 - tan * P * rd / np.sin(th) ** 2,
            "L_rr": tan ** 2 * P,
        }
    elif isinstance(spec, HopfL1Spec):
        _require(rel, LinearHopf, "HopfL1")
        lam, C = rel.lam, rel.C
        s = np.sin(th) ** lam
        parts = {
            "L_r": (C - (1.0 - lam) * r) / s,
            "L_rdot": rd / s,
            "L_rdot_rdot": 1.0 / s,
            "L_r_rdot": 0.0 * s,
            "L_theta_rdot": -lam * rd / (s * np.tan(th)),
            "L_rr": -(1.0 - lam) / s,
        }
    elif isinstance(spec, CubicL1Spec):
        _require(rel, CubicRoC, "CubicL1")
        g2c = rel.gamma ** 2
        rho = rd * np.cos(th) + r * np.sin(th)
        sec = 1.0 / np.cos(th)
        parts = {
            "L_r": -0.5 * sec ** 2 * np.sin(th) / rho ** 2 + g2c / np.sin(th) ** 3,
            "L_rdot": -0.5 * sec / rho ** 2,
            "L_rdot_rdot": 1.0 / rho ** 3,
            "L_r_rdot": np.tan(th) / rho ** 3,
            "L_theta_rdot": (-0.5 * sec * np.tan(th) / rho ** 2
                             + sec * (r * np.cos(th) - rd * np.sin(th)) / rho ** 3),
            "L_rr": sec ** 2 * np.sin(th) ** 2 / rho ** 3,
        }
    else:
        raise TypeError(f"unknown Lagrangian spec {spec!r}")
    return {key: _like(th, np.where(bad, np.nan, value)) for key, value in parts.items()}


def _numeric_partials(spec: LagrangianSpec, rel: WeingartenRelation,
                      state: VariationalState, mult: Optional[Multiplier]) -> dict:
    """Richardson-extrapolated first derivatives of L, and direct cross/central
    stencils for the second ones (nested FD would amplify inner-estimate noise
    by 1/h).  Each stencil is one call of L for every state at once, its
    offsets along a new first axis; a scalar state runs as an array of one,
    so it gets the bits of the same state inside an array."""
    shape = np.shape(state.r1)
    th, r, rd = (np.ravel(v) for v in np.broadcast_arrays(state.theta, state.r, state.rdot))

    def L(theta, rr, rrd):
        return lagrangian_eval(spec, rel, VariationalState(theta, rr, rrd), mult)

    def d1(fun, x):
        h = 1e-5 * (1.0 + np.abs(x))
        f = fun(x + np.multiply.outer([1.0, -1.0, 0.5, -0.5], h))
        return (4.0 * (f[2] - f[3]) / h - (f[0] - f[1]) / (2.0 * h)) / 3.0

    def d2(fun, x):
        h = 5e-4 * (1.0 + np.abs(x))
        f = fun(x + np.multiply.outer([1.0, 0.0, -1.0, 0.5, -0.5], h))
        raw_h = (f[0] - 2.0 * f[1] + f[2]) / h ** 2
        raw_half = (f[3] - 2.0 * f[1] + f[4]) / (h / 2.0) ** 2
        return (4.0 * raw_half - raw_h) / 3.0

    def cross(fun, x, y):
        hx = 5e-4 * (1.0 + np.abs(x))
        hy = 5e-4 * (1.0 + np.abs(y))
        sx, sy = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])
        f = fun(x + np.multiply.outer(np.concatenate([sx, sx / 2.0]), hx),
                y + np.multiply.outer(np.concatenate([sy, sy / 2.0]), hy))
        raw_h = (f[0] - f[1] - f[2] + f[3]) / (4.0 * hx * hy)
        raw_half = (f[4] - f[5] - f[6] + f[7]) / (4.0 * (hx / 2.0) * (hy / 2.0))
        return (4.0 * raw_half - raw_h) / 3.0

    parts = {"L_r": d1(lambda x: L(th, x, rd), r),
             "L_rdot": d1(lambda x: L(th, r, x), rd),
             "L_rdot_rdot": d2(lambda x: L(th, r, x), rd),
             "L_r_rdot": cross(lambda x, y: L(th, x, y), r, rd),
             "L_theta_rdot": cross(lambda x, y: L(x, r, y), th, rd),
             "L_rr": d2(lambda x: L(th, x, rd), r)}
    return {key: value.reshape(shape) for key, value in parts.items()}


def euler_lagrange_residual(spec: LagrangianSpec, rel: WeingartenRelation,
                            trajectory: SupportProfile,
                            thetas: Optional[np.ndarray] = None,
                            mult: Optional[Multiplier] = None,
                            analytic: bool = False) -> dict:
    """The expanded Euler-Lagrange expression along a support trajectory.

    Returns per-sample arrays: 'el' (the expanded form), 'multiplier_form'
    (Phi * (r'' + r - F)), and their difference 'defect', all from one
    partials pass over the samples.  Samples where either form is NaN (for
    L0: at theta = pi/2 or outside the multiplier) are flagged 'skipped'
    and get NaN in every column; Phi and F are evaluated only where 'el'
    is a number.  ``mult=None`` means, for L0 and general Lagrangians, the
    multiplier based at the middle sample's r1.
    """
    if thetas is None:
        lo, hi = trajectory.grid[0], trajectory.grid[-1]
        thetas = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 25)
    thetas = np.asarray(thetas, dtype=float)
    rs, rds, rdds = trajectory.value(thetas), trajectory.rdot(thetas), trajectory.rddot(thetas)
    state = VariationalState(thetas, rs, rds)
    if isinstance(spec, (L0Spec, GeneralSpec)):
        mult = _mult_at(rel, state, mult)
    parts = lagrangian_partials(spec, rel, state, mult, analytic=analytic)
    el = (parts["L_rdot_rdot"] * rdds + parts["L_r_rdot"] * rds
          + parts["L_theta_rdot"] - parts["L_r"])
    kept = ~np.isnan(el)
    mf = np.full(len(thetas), np.nan)
    mf[kept] = _phi_of_spec(spec, rel, mult)(thetas[kept], rs[kept], rds[kept]) \
        * (rdds[kept] + rs[kept] - eval_F_float(rel, state.r1[kept]))
    skipped = ~kept | np.isnan(mf)
    el[skipped] = np.nan
    return {"theta": thetas, "el": el,
            "multiplier_form": mf, "defect": el - mf, "skipped": skipped}


def helmholtz_residual(rel: WeingartenRelation,
                       phi: Optional[Callable[[float, float, float], float]],
                       states: Sequence[VariationalState],
                       mult: Optional[Multiplier] = None) -> np.ndarray:
    """Residual of d/dtheta(dE/dr'') - dE/dr' for E = Phi * (r'' + r - F).

    ``phi=None`` checks the raw equation (Phi = 1), whose residual is
    F'(r1) * cot(theta) wherever F' != 0.  The r''-dependence cancels, so
    the residual is a function of (theta, r, rdot) alone:

        Phi_theta + rdot * Phi_r + (F - r) * Phi_rdot + Phi * F' * cot(theta).
    """
    r1 = np.array([st.r1 for st in states])
    slopes = eval_F_prime(rel, r1)
    if phi is None:
        return slopes / np.tan([st.theta for st in states])
    out = np.empty(len(states))
    values = eval_F_float(rel, r1)
    for i, (st, Fp, F) in enumerate(zip(states, slopes, values)):
        th, r, rd = st.theta, st.r, st.rdot

        def d(fun, x):
            h = 1e-6 * (1.0 + abs(x))
            return (fun(x + h) - fun(x - h)) / (2.0 * h)

        phi_t = d(lambda x: phi(x, r, rd), th)
        phi_r = d(lambda x: phi(th, x, rd), r)
        phi_rd = d(lambda x: phi(th, r, x), rd)
        out[i] = phi_t + rd * phi_r + (F - r) * phi_rd + phi(th, r, rd) * Fp / math.tan(th)
    return out


def first_integral_I(rel: WeingartenRelation, state: VariationalState,
                     mult: Optional[Multiplier] = None) -> float:
    """I = exp(int^{r1} du/(F - u)) / sin(theta), anchored at the base point."""
    return _mult_at(rel, state, mult).I_exp(state.r1) / np.sin(state.theta)


def _level_curves(rel: WeingartenRelation, interval: tuple[float, float],
                  th: np.ndarray, r1: np.ndarray, theta_base: float) -> np.ndarray:
    """(x, q) at theta_base along the level curves of I from (th_i, r1_i), in one run.

    Curve i runs over s in [0, 1] at u_i = th_i + s (theta_base - th_i)
    with x' = cot(u) (F(x) - x) du/ds and q' = (F(x) - x)/sin(u) du/ds.
    A curve that reaches an end of ``interval`` gets NaN and the others
    run again without it; a failed run splits into one run per curve, so
    that only the curves that fail on their own get NaN.
    """
    lo, hi = interval
    out = np.full((2, len(th)), np.nan)
    live = np.arange(len(th))
    while live.size:
        k, start, span = live.size, th[live], theta_base - th[live]

        def rhs(s, y):
            u = start + s * span
            g = (eval_F_float(rel, y[:k]) - y[:k]) * span
            return np.concatenate([g / np.tan(u), g / np.sin(u)])

        def leaves(s, y):
            return np.min((y[:k] - lo) * (hi - y[:k]))
        leaves.terminal = True

        try:
            sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([r1[live], np.zeros(k)]),
                            method="DOP853", rtol=1e-13, atol=1e-14, events=leaves)
        except ArithmeticError:   # F left its domain on a curve
            sol = None
        if sol is not None and sol.status == 0:
            out[:, live] = sol.y[:, -1].reshape(2, k)
        elif sol is not None and sol.status == 1:
            x = sol.y_events[0][-1][:k]
            live = np.delete(live, np.argmin((x - lo) * (hi - x)))
            continue
        elif k > 1:
            for i in live:
                out[:, [i]] = _level_curves(rel, interval, th[[i]], r1[[i]], theta_base)
        break
    return out


def first_integral_Q(rel: WeingartenRelation, state: VariationalState,
                     mult: Optional[Multiplier] = None,
                     theta_base: float = 1e-3):
    """The second first integral, integrated along the level curve of I.

    The level curve x = r1(C, u) of I through the state solves
    x' = cot(u) (F(x) - x), the Codazzi-Mainardi equation itself, from
    x(theta) = r1.  One ODE run from theta to theta_base carries x along
    with the integral of the integrated-by-parts form, whose integrand
    (F(r1(C,u)) - r1(C,u))/sin(u) is regular through theta = pi/2:

        Q = [r - r1(C,theta)]/cos(theta) + r1(C,theta_base)/cos(theta_base)
            + int_{theta_base}^theta (F - r1)(C,u)/sin(u) du.

    Different anchors shift Q by a function of I only, which is again a
    first integral.  The near-pole default anchor reproduces the
    anchor-free convention up to O(theta_base^2) when the level curve
    r1(C, u) has a finite pole limit; trajectories whose r1 diverges at
    the pole (e.g. constant-mean-curvature ones) need an interior
    theta_base instead.  A state of arrays gives an array from one run
    over all its level curves.  A level curve that starts outside the
    multiplier's fixed-point-free interval, leaves it before theta_base
    or fails to integrate, or a state at theta = pi/2, raises
    SingularMultiplierError for a scalar state and gives NaN in an array.
    """
    if not math.isfinite(theta_base):   # solve_ivp never ends a run over a NaN span
        raise ValueError(f"theta_base must be finite, not {theta_base!r}")
    m = _mult_at(rel, state, mult)
    th, r, r1 = (np.ravel(v).astype(float) for v in
                 np.broadcast_arrays(state.theta, state.r, state.r1))
    if np.ndim(state.theta) == 0:
        if abs(math.cos(th[0])) < 1e-9:
            raise SingularMultiplierError("Q is evaluated away from theta = pi/2")
        m._check(r1)
    ok = (np.abs(np.cos(th)) >= 1e-9) & m._inside(r1)
    x_base, minus_integral = _level_curves(rel, m.interval, th[ok], r1[ok], theta_base)
    Q = np.full(th.shape, np.nan)
    Q[ok] = (r[ok] - r1[ok]) / np.cos(th[ok]) + x_base / math.cos(theta_base) - minus_integral
    if np.ndim(state.theta) == 0:
        if math.isnan(Q[0]):
            raise SingularMultiplierError(f"level curve of I from theta={th[0]} did not reach "
                                          f"theta_base={theta_base} in {m.interval}")
        return float(Q[0])
    return Q.reshape(np.shape(state.r1))


def jlm_ratio_check(rel: WeingartenRelation,
                    phi_a: Callable[[float, float, float], float],
                    phi_b: Callable[[float, float, float], float],
                    trajectory: SupportProfile,
                    thetas: Optional[np.ndarray] = None) -> np.ndarray:
    """d/dtheta log(phi_a/phi_b) along a solution trajectory.

    Near zero exactly when both are Jacobi last multipliers (their ratio
    is then a first integral).  Centered differences in theta along the
    trajectory.
    """
    if thetas is None:
        lo, hi = trajectory.grid[0], trajectory.grid[-1]
        thetas = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 15)
    thetas = np.asarray(thetas, dtype=float)
    h = 1e-5
    ths = np.concatenate([thetas + h, thetas - h])
    log_ratio = np.array([math.log(abs(phi_a(*p))) - math.log(abs(phi_b(*p)))
                          for p in zip(ths, trajectory.value(ths), trajectory.rdot(ths))])
    return (log_ratio[:len(thetas)] - log_ratio[len(thetas):]) / (2.0 * h)


def sine_perturbation_basis(n: int, theta1: float, theta2: float,
                            rng: Optional[np.random.Generator] = None,
                            extra_random: int = 0):
    """Boundary-vanishing fields v_k = sin(k pi (theta-theta1)/(theta2-theta1)).

    Returns a list of (v, vdot) callable pairs; ``extra_random`` appends
    random smooth combinations of the first ``n`` modes.
    """
    span = theta2 - theta1

    def make(coeffs: np.ndarray):
        ks = np.arange(1, len(coeffs) + 1)

        def v(th):
            x = (np.asarray(th) - theta1) / span
            return sum(c * np.sin(k * math.pi * x) for k, c in zip(ks, coeffs))

        def vd(th):
            x = (np.asarray(th) - theta1) / span
            return sum(c * (k * math.pi / span) * np.cos(k * math.pi * x)
                       for k, c in zip(ks, coeffs))
        return v, vd

    basis = []
    for k in range(1, n + 1):
        coeffs = np.zeros(k)
        coeffs[-1] = 1.0
        basis.append(make(coeffs))
    if extra_random:
        rng = rng or np.random.default_rng(0)
        for _ in range(extra_random):
            basis.append(make(rng.normal(size=n) / np.arange(1, n + 1) ** 2))
    return basis


def second_variation(spec: LagrangianSpec, rel: WeingartenRelation,
                     r_star: SupportProfile, v, interval: tuple[float, float],
                     mult: Optional[Multiplier] = None):
    """delta^2 S = int f1 v^2 + 2 f2 v v' + f3 v'^2 over the interval.

    f1/f2/f3 are the second partials of L on the trajectory (analytic for
    the named kinds, numeric for a GeneralSpec); for L0 the
    interval must avoid theta = pi/2 (where tan^2 blows up) and the
    integrand also equals Phi0(r1) (tan(theta) v + v')^2.  A field
    (v, v') of (k, n) rows gives k values from one partials pass.
    """
    th1, th2 = float(interval[0]), float(interval[1])
    if isinstance(spec, L0Spec) and th1 < math.pi / 2.0 < th2:
        raise SingularMultiplierError(
            "L0 stability intervals must lie inside (0, pi/2) or (pi/2, pi)")
    v_fun, vd_fun = v
    # smooth integrand on a closed interval: two 32-point Gauss panels
    nodes, weights = _GAUSS32
    edges = np.array([th1, 0.5 * (th1 + th2), th2])
    half = 0.5 * np.diff(edges)[:, None]
    ths = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes).ravel()
    state = VariationalState(ths, r_star.value(ths), r_star.rdot(ths))
    parts = lagrangian_partials(spec, rel, state, mult)
    vv, vd = v_fun(ths), vd_fun(ths)
    integrand = (parts["L_rr"] * vv ** 2 + 2.0 * parts["L_r_rdot"] * vv * vd
                 + parts["L_rdot_rdot"] * vd ** 2)
    values = np.sum((half * weights).ravel() * integrand, axis=-1)
    return float(values) if np.ndim(values) == 0 else values


def general_lagrangian(rel: WeingartenRelation,
                       f: Callable[[float, Optional[float]], float],
                       trajectory: SupportProfile,
                       mult: Optional[Multiplier] = None,
                       needs_Q: bool = False,
                       registered: Optional[str] = None,
                       tol: float = 1e-6) -> dict:
    """Build Phi = f(I, Q) * Phi0 and verify it is a Jacobi last multiplier.

    Checks the multiplier PDE residual along the trajectory; when a
    closed-form (g1, g2) pair is registered ('hopf' or 'cubic'), the
    corresponding L1 Lagrangian is returned and the Euler-Lagrange
    multiplier identity verified.  Without a registered pair the report
    carries the required gauge defect d(g1)/d(theta) - d(g2)/d(r) sampled
    along the trajectory (the pair itself is under-determined).
    """
    lo, hi = trajectory.grid[0], trajectory.grid[-1]
    thetas = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 12)
    inner = thetas[(thetas >= POLE_EPS) & (thetas <= math.pi - POLE_EPS)]
    states = [VariationalState(*p) for p in
              zip(inner, trajectory.value(inner), trajectory.rdot(inner))]
    if mult is None:
        mult = Multiplier(rel, states[len(states) // 2].r1)
    general = GeneralSpec(f=f, needs_Q=needs_Q)
    phi = _phi_of_spec(general, rel, mult)
    pde = helmholtz_residual(rel, phi, states, mult)
    report: dict = {"pde_residual_max": float(np.max(np.abs(pde))),
                    "pde_residual": pde, "theta": thetas}
    if report["pde_residual_max"] > tol:
        report["is_jlm"] = False
        report["diagnostic"] = "multiplier PDE residual exceeds tolerance: not a JLM"
        return report
    report["is_jlm"] = True

    spec = {"hopf": HopfL1Spec(), "cubic": CubicL1Spec()}.get(registered)
    if spec is not None:
        res = euler_lagrange_residual(spec, rel, trajectory, thetas=thetas, mult=mult)
        report["spec"] = spec
        report["el_defect_max"] = float(np.nanmax(np.abs(res["defect"])))
    else:
        report["spec"] = general
        # required gauge defect: g1_theta - g2_r must equal
        # Phi*(r''+r-F) - EL(quadrature part), which is rdot-independent
        sampled = inner[:: max(1, len(inner) // 2)]
        report["g_defect_required"] = -euler_lagrange_residual(
            general, rel, trajectory, thetas=sampled, mult=mult)["defect"]
    return report
