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

where r1(C, theta) inverts C = exp(-J(x))/sin(theta) at fixed C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .geometry import POLE_EPS, SupportProfile
from .numerics import adaptive_simpson
from .relations import (
    CubicRoC,
    LinearHopf,
    PureKLinear,
    RelationError,
    WeingartenRelation,
    eval_F_float,
    eval_F_prime,
    fixed_points,
)

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
    """A point (theta, r, dr/dtheta) of the first-order jet."""

    theta: float
    r: float
    rdot: float

    def __post_init__(self):
        th = self.theta
        if not (POLE_EPS <= th <= math.pi - POLE_EPS):
            raise ValueError("variational states must have an interior Gauss angle")

    @property
    def r1(self) -> float:
        return self.rdot / math.tan(self.theta) + self.r


class Multiplier:
    """The translation-invariant multiplier Phi0 and its antiderivatives.

    Valid on a fixed-point-free interval around ``base_point``; linear
    Hopf and cubic relations use their closed forms (matching the
    literature normalization), everything else integrates
    J' = 1/(u - F(u)) densely from the base point.
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
        self._dense = None
        self._closed = isinstance(rel, (LinearHopf, PureKLinear, CubicRoC)) \
            and not (isinstance(rel, LinearHopf) and rel.degenerate) \
            and not (isinstance(rel, PureKLinear) and rel.lam in (0.0, 1.0))

    # -- construction helpers ------------------------------------------------

    def _enclosing_interval(self) -> tuple[float, float]:
        width = max(10.0, 10.0 * abs(self.base_point))
        fps = fixed_points(self.rel, (self.base_point - width, self.base_point + width))
        lo = max([fp for fp in fps if fp < self.base_point], default=self.base_point - width)
        hi = min([fp for fp in fps if fp > self.base_point], default=self.base_point + width)
        pad = 1e-12 * max(1.0, abs(lo), abs(hi))
        return (lo + pad, hi - pad)

    def _check(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if np.any(u < self.interval[0] - 1e-12) or np.any(u > self.interval[1] + 1e-12):
            raise SingularMultiplierError(
                f"argument outside the fixed-point-free interval {self.interval}")
        return u

    def _hopf_params(self):
        rel = self.rel
        if isinstance(rel, LinearHopf):
            return rel.lam, rel.C
        if isinstance(rel, PureKLinear):
            return 1.0 / rel.lam, 0.0
        raise TypeError

    def _dense_J(self):
        if self._dense is None:
            def rhs(u, y):
                F = float(eval_F_float(self.rel, u))
                j = 1.0 / (u - F)
                return [j, self._sign * math.exp(min(y[0], 700.0))]

            def ev(u, y):
                return 690.0 - abs(y[0])
            ev.terminal = True

            lo, hi = self.interval
            sols = {}
            for end in (lo, hi):
                if end == self.base_point:
                    continue
                sols[end < self.base_point] = solve_ivp(
                    rhs, (self.base_point, end), [0.0, 0.0], method="RK45",
                    rtol=1e-12, atol=1e-14, dense_output=True, events=ev)
            self._dense = sols
        return self._dense

    def _J_and_G2(self, u: float) -> tuple[float, float]:
        """Numeric (J(u), G2(u)) anchored at the base point."""
        if u == self.base_point:
            return 0.0, 0.0
        sols = self._dense_J()
        key = u < self.base_point
        if key not in sols:
            raise SingularMultiplierError("argument outside the integrated interval")
        sol = sols[key]
        tmin, tmax = min(sol.t[0], sol.t[-1]), max(sol.t[0], sol.t[-1])
        if not (tmin - 1e-12 <= u <= tmax + 1e-12):
            raise SingularMultiplierError("argument beyond the multiplier's reach")
        y = sol.sol(u)
        return float(y[0]), float(y[1])

    # -- core evaluations ----------------------------------------------------

    def J(self, u: float) -> float:
        """Antiderivative of 1/(u - F(u)); closed form where available."""
        u = float(self._check(u))
        rel = self.rel
        if self._closed:
            if isinstance(rel, (LinearHopf, PureKLinear)):
                lam, C = self._hopf_params()
                g = (1.0 - lam) * u - C
                return math.log(abs(g)) / (1.0 - lam)
            if isinstance(rel, CubicRoC):
                w = 1.0 - rel.gamma ** 2 * u ** 2
                return math.log(abs(u)) - 0.5 * math.log(abs(w))
        return self._J_and_G2(u)[0]

    def phi0(self, u: float) -> float:
        """Phi0(u) = exp(J(u))/|u - F(u)| (strictly positive)."""
        u = float(self._check(u))
        rel = self.rel
        if self._closed:
            if isinstance(rel, (LinearHopf, PureKLinear)):
                lam, C = self._hopf_params()
                g = (1.0 - lam) * u - C
                return abs(g) ** (lam / (1.0 - lam))
            if isinstance(rel, CubicRoC):
                return abs(1.0 - rel.gamma ** 2 * u ** 2) ** -1.5
        F = float(eval_F_float(rel, u))
        return math.exp(self.J(u)) / abs(u - F)

    def G1(self, u: float) -> float:
        """The inner antiderivative of Phi0: G1(u) = (u - F(u)) * Phi0(u).

        This is the anchor choice that makes the Euler-Lagrange identity
        for L0 exact (the integration constant must vanish).
        """
        u = float(self._check(u))
        F = float(eval_F_float(self.rel, u))
        return (u - F) * self.phi0(u)

    def G2(self, u: float) -> float:
        """Outer antiderivative of Phi0 (second antiderivative, convex)."""
        u = float(self._check(u))
        rel = self.rel
        if self._closed:
            if isinstance(rel, (LinearHopf, PureKLinear)):
                lam, C = self._hopf_params()
                g = (1.0 - lam) * u - C
                if abs(lam - 2.0) <= 1e-9:
                    return math.log(abs(g)) / (1.0 - lam)
                p = (2.0 - lam) / (1.0 - lam)
                return abs(g) ** p / (2.0 - lam)
            if isinstance(rel, CubicRoC):
                return -math.sqrt(abs(1.0 - rel.gamma ** 2 * u ** 2)) / rel.gamma ** 2
        return self._J_and_G2(u)[1]

    def I_exp(self, u: float) -> float:
        """exp(int du/(F - u)) = exp(-J(u)) (the angular part of I)."""
        return math.exp(-self.J(float(self._check(u))))

    def r1_of_level(self, C: float, theta: float, hint: Optional[float] = None) -> float:
        """Invert C = exp(-J(x))/sin(theta) for x on the multiplier interval.

        J is monotone on a fixed-point-free interval, so the level set is
        a single point; the bracket grows geometrically from ``hint``.
        """
        target = -math.log(C * math.sin(theta))  # J(x) = target
        lo, hi = self.interval
        x0 = hint if hint is not None else self.base_point

        def g(x: float) -> float:
            return self.J(x) - target

        g0 = g(x0)
        if g0 == 0.0:
            return x0
        # grow toward the side where J moves toward the target
        step = max(1e-6, 1e-3 * abs(x0))
        for direction in (+1.0, -1.0):
            a, fa = x0, g0
            s = step * direction
            for _ in range(200):
                b = a + s
                if b <= lo:
                    b = lo + 1e-13 * max(1.0, abs(lo))
                if b >= hi:
                    b = hi - 1e-13 * max(1.0, abs(hi))
                try:
                    fb = g(b)
                except SingularMultiplierError:
                    break
                if fa * fb <= 0.0:
                    if fb == 0.0:
                        return b
                    lo_b, hi_b = (a, b) if a < b else (b, a)
                    return brentq(g, lo_b, hi_b, xtol=1e-14, maxiter=200)
                a, fa = b, fb
                s *= 2.0
                if b in (lo + 1e-13 * max(1.0, abs(lo)), hi - 1e-13 * max(1.0, abs(hi))):
                    break
        raise SingularMultiplierError(
            f"could not bracket r1 for first-integral level {C} at theta={theta}")


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

    kind: str = "L0"


@dataclass(frozen=True)
class HopfL1Spec:
    """L1 = [rdot^2 + 2 C r - (1 - lam) r^2] / (2 sin^lam theta) for r2 = lam r1 + C."""

    kind: str = "HopfL1"


@dataclass(frozen=True)
class CubicL1Spec:
    """L1 = 1/(2 cos^2(theta) rho) + gamma^2 r / sin^3(theta) for r2 = gamma^2 r1^3."""

    kind: str = "CubicL1"


@dataclass
class GeneralSpec:
    """L = iint f(I, Q) Phi0 + g1 rdot + g2 for a user-chosen f over (I, Q)."""

    f: Callable[[float, Optional[float]], float]
    needs_Q: bool = False
    g1: Optional[Callable[[float, float], float]] = None
    g2: Optional[Callable[[float, float], float]] = None
    name: str = "general"
    kind: str = "General"
    quad_nodes: int = 12


LagrangianSpec = Union[L0Spec, HopfL1Spec, CubicL1Spec, GeneralSpec]


def _require(rel, cls, spec_name):
    if not isinstance(rel, cls):
        raise RelationError(f"{spec_name} needs a {cls.__name__} relation")


def _phi_of_spec(spec: LagrangianSpec, rel: WeingartenRelation,
                 mult: Multiplier) -> Callable[[float, float, float], float]:
    """The multiplier Phi(theta, r, rdot) attached to a Lagrangian kind."""
    if isinstance(spec, L0Spec):
        def phi(theta, r, rdot):
            return mult.phi0(rdot / math.tan(theta) + r)
        return phi
    if isinstance(spec, HopfL1Spec):
        _require(rel, LinearHopf, "HopfL1")
        lam = rel.lam

        def phi(theta, r, rdot):
            return math.sin(theta) ** (-lam)
        return phi
    if isinstance(spec, CubicL1Spec):
        _require(rel, CubicRoC, "CubicL1")

        def phi(theta, r, rdot):
            rho = rdot * math.cos(theta) + r * math.sin(theta)
            return 1.0 / rho ** 3
        return phi
    if isinstance(spec, GeneralSpec):
        def phi(theta, r, rdot):
            st = VariationalState(theta, r, rdot)
            I = first_integral_I(rel, st, mult)
            Q = first_integral_Q(rel, st, mult) if spec.needs_Q else None
            return spec.f(I, Q) * mult.phi0(st.r1)
        return phi
    raise TypeError(f"unknown Lagrangian spec {spec!r}")


def lagrangian_eval(spec: LagrangianSpec, rel: WeingartenRelation,
                    state: VariationalState, mult: Optional[Multiplier] = None) -> float:
    """Value of the Lagrangian at a first-order jet state."""
    th, r, rd = state.theta, state.r, state.rdot
    if isinstance(spec, L0Spec):
        if abs(math.cos(th)) < 1e-9:
            raise SingularMultiplierError("L0 is singular at theta = pi/2")
        mult = mult or Multiplier(rel, state.r1)
        return math.tan(th) ** 2 * mult.G2(state.r1)
    if isinstance(spec, HopfL1Spec):
        _require(rel, LinearHopf, "HopfL1")
        lam, C = rel.lam, rel.C
        return (rd ** 2 + 2.0 * C * r - (1.0 - lam) * r ** 2) / (2.0 * math.sin(th) ** lam)
    if isinstance(spec, CubicL1Spec):
        _require(rel, CubicRoC, "CubicL1")
        rho = rd * math.cos(th) + r * math.sin(th)
        return 1.0 / (2.0 * math.cos(th) ** 2 * rho) + rel.gamma ** 2 * r / math.sin(th) ** 3
    if isinstance(spec, GeneralSpec):
        mult = mult or Multiplier(rel, state.r1)
        phi = _phi_of_spec(spec, rel, mult)
        # nested fixed-order Gauss-Legendre in rdot, anchored at rdot = 0
        nodes, weights = np.polynomial.legendre.leggauss(spec.quad_nodes)

        def inner(sigma: float) -> float:
            half = 0.5 * sigma
            pts = half * nodes + half
            return float(half * np.sum(weights * [phi(th, r, u) for u in pts])) if sigma != 0.0 else 0.0

        half = 0.5 * rd
        pts = half * nodes + half
        val = float(half * np.sum(weights * [inner(s) for s in pts])) if rd != 0.0 else 0.0
        if spec.g1 is not None:
            val += spec.g1(th, r) * rd
        if spec.g2 is not None:
            val += spec.g2(th, r)
        return val
    raise TypeError(f"unknown Lagrangian spec {spec!r}")


def lagrangian_partials(spec: LagrangianSpec, rel: WeingartenRelation,
                        state: VariationalState, mult: Optional[Multiplier] = None,
                        analytic: bool = True) -> dict:
    """First/second partials of L needed by the expanded Euler-Lagrange form.

    Returns {'L_r', 'L_rdot', 'L_rdot_rdot', 'L_r_rdot', 'L_theta_rdot',
    'L_rr'}; analytic rules for the named kinds, centered differences with
    one Richardson level otherwise (or when analytic=False).
    """
    th, r, rd = state.theta, state.r, state.rdot
    if analytic and isinstance(spec, L0Spec):
        mult = mult or Multiplier(rel, state.r1)
        u = state.r1
        tan = math.tan(th)
        P = mult.phi0(u)
        G1 = mult.G1(u)
        return {
            "L_r": tan ** 2 * G1,
            "L_rdot": tan * G1,
            "L_rdot_rdot": P,
            "L_r_rdot": tan * P,
            "L_theta_rdot": G1 / math.cos(th) ** 2 - tan * P * rd / math.sin(th) ** 2,
            "L_rr": tan ** 2 * P,
        }
    if analytic and isinstance(spec, HopfL1Spec):
        _require(rel, LinearHopf, "HopfL1")
        lam, C = rel.lam, rel.C
        s = math.sin(th) ** lam
        return {
            "L_r": (C - (1.0 - lam) * r) / s,
            "L_rdot": rd / s,
            "L_rdot_rdot": 1.0 / s,
            "L_r_rdot": 0.0,
            "L_theta_rdot": -lam * rd / (s * math.tan(th)),
            "L_rr": -(1.0 - lam) / s,
        }
    if analytic and isinstance(spec, CubicL1Spec):
        _require(rel, CubicRoC, "CubicL1")
        g2c = rel.gamma ** 2
        rho = rd * math.cos(th) + r * math.sin(th)
        sec = 1.0 / math.cos(th)
        return {
            "L_r": -0.5 * sec ** 2 * math.sin(th) / rho ** 2 + g2c / math.sin(th) ** 3,
            "L_rdot": -0.5 * sec / rho ** 2,
            "L_rdot_rdot": 1.0 / rho ** 3,
            "L_r_rdot": math.tan(th) / rho ** 3,
            "L_theta_rdot": (-0.5 * sec * math.tan(th) / rho ** 2
                             + sec * (r * math.cos(th) - rd * math.sin(th)) / rho ** 3),
            "L_rr": sec ** 2 * math.sin(th) ** 2 / rho ** 3,
        }

    # numeric partials: Richardson-extrapolated first derivatives, direct
    # cross/central stencils for the second derivatives (nested FD would
    # amplify inner-estimate noise by 1/h)
    def L(theta, rr, rrd):
        return lagrangian_eval(spec, rel, VariationalState(theta, rr, rrd), mult)

    def d1(fun, x):
        h = 1e-5 * (1.0 + abs(x))
        a = (fun(x + h) - fun(x - h)) / (2.0 * h)
        b = (fun(x + h / 2.0) - fun(x - h / 2.0)) / h
        return (4.0 * b - a) / 3.0

    def d2(fun, x):
        def raw(h):
            return (fun(x + h) - 2.0 * fun(x) + fun(x - h)) / h ** 2
        h = 5e-4 * (1.0 + abs(x))
        return (4.0 * raw(h / 2.0) - raw(h)) / 3.0

    def cross(fun, x, y):
        def raw(hx, hy):
            return (fun(x + hx, y + hy) - fun(x + hx, y - hy)
                    - fun(x - hx, y + hy) + fun(x - hx, y - hy)) / (4.0 * hx * hy)
        hx = 5e-4 * (1.0 + abs(x))
        hy = 5e-4 * (1.0 + abs(y))
        return (4.0 * raw(hx / 2.0, hy / 2.0) - raw(hx, hy)) / 3.0

    L_r = d1(lambda x: L(th, x, rd), r)
    L_rdot = d1(lambda x: L(th, r, x), rd)
    L_rdot_rdot = d2(lambda x: L(th, r, x), rd)
    L_r_rdot = cross(lambda x, y: L(th, x, y), r, rd)
    L_theta_rdot = cross(lambda x, y: L(x, r, y), th, rd)
    L_rr = d2(lambda x: L(th, x, rd), r)
    return {"L_r": L_r, "L_rdot": L_rdot, "L_rdot_rdot": L_rdot_rdot,
            "L_r_rdot": L_r_rdot, "L_theta_rdot": L_theta_rdot, "L_rr": L_rr}


def euler_lagrange_residual(spec: LagrangianSpec, rel: WeingartenRelation,
                            trajectory: SupportProfile,
                            thetas: Optional[np.ndarray] = None,
                            mult: Optional[Multiplier] = None,
                            analytic: bool = False) -> dict:
    """The expanded Euler-Lagrange expression along a support trajectory.

    Returns per-sample arrays: 'el' (the expanded form), 'multiplier_form'
    (Phi * (r'' + r - F)), and their difference 'defect'.  Samples where
    the Lagrangian is singular are skipped and flagged.
    """
    if thetas is None:
        lo, hi = trajectory.grid[0], trajectory.grid[-1]
        thetas = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 25)
    el = np.full(len(thetas), np.nan)
    mf = np.full(len(thetas), np.nan)
    r1, phis, rdd_plus_r = np.full((3, len(thetas)), np.nan)
    skipped = np.zeros(len(thetas), dtype=bool)
    needs_mult = isinstance(spec, (L0Spec, GeneralSpec))
    for i, th in enumerate(np.asarray(thetas, dtype=float)):
        r = float(trajectory.value(th))
        rd = float(trajectory.rdot(th))
        rdd = float(trajectory.rddot(th))
        try:
            state = VariationalState(th, r, rd)
            m = mult if (mult is not None or not needs_mult) \
                else Multiplier(rel, state.r1)
            parts = lagrangian_partials(spec, rel, state, m, analytic=analytic)
            phi = _phi_of_spec(spec, rel, m)(th, r, rd)
        except (SingularMultiplierError, ValueError, ZeroDivisionError):
            skipped[i] = True
            continue
        el[i] = (parts["L_rdot_rdot"] * rdd + parts["L_r_rdot"] * rd
                 + parts["L_theta_rdot"] - parts["L_r"])
        r1[i] = rd / math.tan(th) + r
        phis[i] = phi
        rdd_plus_r[i] = rdd + r
    kept = ~skipped
    mf[kept] = phis[kept] * (rdd_plus_r[kept] - eval_F_float(rel, r1[kept]))
    return {"theta": np.asarray(thetas, dtype=float), "el": el,
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
    out = np.empty(len(states))
    r1 = np.array([st.r1 for st in states])
    slopes = eval_F_prime(rel, r1)
    values = eval_F_float(rel, r1)
    for i, (st, Fp, F) in enumerate(zip(states, slopes, values)):
        th, r, rd = st.theta, st.r, st.rdot
        if phi is None:
            out[i] = Fp / math.tan(th)
            continue

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
    m = mult or Multiplier(rel, state.r1)
    return m.I_exp(state.r1) / math.sin(state.theta)


def first_integral_Q(rel: WeingartenRelation, state: VariationalState,
                     mult: Optional[Multiplier] = None,
                     theta_base: float = 1e-3) -> float:
    """The second first integral, by root-solving the level function r1(C, u).

    Written in the integrated-by-parts form whose integrand
    (F(r1(C,u)) - r1(C,u))/sin(u) is regular through theta = pi/2:

        Q = [r - r1(C,theta)]/cos(theta) + r1(C,theta_base)/cos(theta_base)
            + int_{theta_base}^theta (F - r1)(C,u)/sin(u) du.

    Different anchors shift Q by a function of I only, which is again a
    first integral.  The near-pole default anchor reproduces the
    anchor-free convention up to O(theta_base^2) when the level curve
    r1(C, u) has a finite pole limit; trajectories whose r1 diverges at
    the pole (e.g. constant-mean-curvature ones) need an interior
    theta_base instead.
    """
    m = mult or Multiplier(rel, state.r1)
    th = state.theta
    if abs(math.cos(th)) < 1e-9:
        raise SingularMultiplierError("Q is evaluated away from theta = pi/2")
    C = first_integral_I(rel, state, m)
    if C <= 0.0:
        raise SingularMultiplierError("first integral level must be positive")

    hint = state.r1

    def r1_level(u: float, guess: float) -> float:
        return m.r1_of_level(C, u, hint=guess)

    r1_th = r1_level(th, hint)

    cache = {"guess": r1_th}

    def integrand(u: float) -> float:
        x = r1_level(u, cache["guess"])
        cache["guess"] = x
        return (float(eval_F_float(rel, x)) - x) / math.sin(u)

    integral = adaptive_simpson(integrand, theta_base, th,
                                abs_tol=1e-11, rel_tol=1e-9)
    r1_base = r1_level(theta_base, cache["guess"])
    return ((state.r - r1_th) / math.cos(th)
            + r1_base / math.cos(theta_base) + integral)


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

    def log_ratio(th: float) -> float:
        r = float(trajectory.value(th))
        rd = float(trajectory.rdot(th))
        return math.log(abs(phi_a(th, r, rd))) - math.log(abs(phi_b(th, r, rd)))

    out = np.empty(len(thetas))
    for i, th in enumerate(np.asarray(thetas, dtype=float)):
        h = 1e-5
        out[i] = (log_ratio(th + h) - log_ratio(th - h)) / (2.0 * h)
    return out


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
                     mult: Optional[Multiplier] = None,
                     analytic: bool = True) -> float:
    """delta^2 S = int f1 v^2 + 2 f2 v v' + f3 v'^2 over the interval.

    f1/f2/f3 are the second partials of L on the trajectory; for L0 the
    interval must avoid theta = pi/2 (where tan^2 blows up) and the
    integrand also equals Phi0(r1) (tan(theta) v + v')^2.
    """
    th1, th2 = float(interval[0]), float(interval[1])
    if isinstance(spec, L0Spec) and th1 < math.pi / 2.0 < th2:
        raise SingularMultiplierError(
            "L0 stability intervals must lie inside (0, pi/2) or (pi/2, pi)")
    v_fun, vd_fun = v

    def integrand(th: float) -> float:
        r = float(r_star.value(th))
        rd = float(r_star.rdot(th))
        state = VariationalState(th, r, rd)
        parts = lagrangian_partials(spec, rel, state, mult, analytic=analytic)
        vv = float(v_fun(th))
        vd = float(vd_fun(th))
        return (parts["L_rr"] * vv ** 2 + 2.0 * parts["L_r_rdot"] * vv * vd
                + parts["L_rdot_rdot"] * vd ** 2)

    # smooth integrand on a closed interval: two 32-point Gauss panels
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = 0.0
    for a, b in ((th1, 0.5 * (th1 + th2)), (0.5 * (th1 + th2), th2)):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        total += half * sum(w * integrand(mid + half * x) for x, w in zip(nodes, weights))
    return total


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
    states = []
    for th in thetas:
        try:
            states.append(VariationalState(float(th), float(trajectory.value(th)),
                                           float(trajectory.rdot(th))))
        except ValueError:
            continue
    if mult is None:
        mult = Multiplier(rel, states[len(states) // 2].r1)

    def phi(th, r, rd):
        st = VariationalState(th, r, rd)
        I = first_integral_I(rel, st, mult)
        Q = first_integral_Q(rel, st, mult) if needs_Q else None
        return f(I, Q) * mult.phi0(st.r1)

    pde = helmholtz_residual(rel, phi, states, mult)
    report: dict = {"pde_residual_max": float(np.max(np.abs(pde))),
                    "pde_residual": pde, "theta": thetas}
    if report["pde_residual_max"] > tol:
        report["is_jlm"] = False
        report["diagnostic"] = "multiplier PDE residual exceeds tolerance: not a JLM"
        return report
    report["is_jlm"] = True

    spec: Optional[LagrangianSpec] = None
    if registered == "hopf":
        spec = HopfL1Spec()
    elif registered == "cubic":
        spec = CubicL1Spec()
    if spec is not None:
        res = euler_lagrange_residual(spec, rel, trajectory, thetas=thetas, mult=mult)
        report["spec"] = spec
        report["el_defect_max"] = float(np.nanmax(np.abs(res["defect"])))
    else:
        spec = GeneralSpec(f=f, needs_Q=needs_Q)
        report["spec"] = spec
        # required gauge defect: g1_theta - g2_r must equal
        # Phi*(r''+r-F) - EL(quadrature part), which is rdot-independent
        defects = []
        sampled = states[:: max(1, len(states) // 2)]
        values = eval_F_float(rel, np.array([st.r1 for st in sampled]))
        for st, F in zip(sampled, values):
            rdd = float(trajectory.rddot(st.theta))
            parts = lagrangian_partials(spec, rel, st, mult, analytic=False)
            el_quad = (parts["L_rdot_rdot"] * rdd + parts["L_r_rdot"] * st.rdot
                       + parts["L_theta_rdot"] - parts["L_r"])
            defects.append(phi(st.theta, st.r, st.rdot) * (rdd + st.r - F) - el_quad)
        report["g_defect_required"] = np.asarray(defects)
    return report
