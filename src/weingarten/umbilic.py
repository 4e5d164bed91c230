"""Umbilic-slope and vanishing-rate estimation at a pole.

The umbilic slope at an on-axis umbilic is the limit of
(r2 - r0)/(r1 - r0) as theta approaches the pole.  For strictly convex
isolated umbilics the slope is at least 1, and whenever
(r2 - r1)/sin(theta)^alpha tends to a nonzero constant the slope equals
alpha + 1; the same ratio may also tend to 0 or diverge while the slope
stays alpha + 1 (logarithmic corrections), so the extrapolator fits the
ladder values against 1/ln(2 csc theta) rather than assuming a power law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import RoCProfile
from .numerics import adaptive_simpson
from .relations import fixed_points

__all__ = [
    "UmbilicAnalysis",
    "RateEstimate",
    "UndefinedSlopeError",
    "umbilic_slope_estimate",
    "vanishing_rate_estimate",
    "slope_theorem_check",
    "slope_restriction_profile",
]


class UndefinedSlopeError(ValueError):
    """Totally umbilic tail: the defining ratio is 0/0 everywhere."""


@dataclass
class UmbilicAnalysis:
    slope_estimate: float
    slope_ci: float
    vanishing_exponent: float
    vanishing_coefficient: float
    side: str
    unbounded: bool = False
    rate_class: str = "finite"
    pole_convergent: bool = True   # r1 -> r0 along the approach (strict convexity)
    notes: str = ""
    samples: dict = field(default_factory=dict)


@dataclass
class RateEstimate:
    value: float
    classification: str  # 'zero' | 'finite' | 'divergent'
    ci: float
    samples: dict = field(default_factory=dict)


def _ladder(profile: RoCProfile, side: str, theta_ref: Optional[float],
            k_max: int) -> np.ndarray:
    lo, hi = profile.theta_min, profile.theta_max
    if side == "north":
        ref = theta_ref if theta_ref is not None else min(0.4, 0.5 * (lo + hi))
        thetas = ref * 0.5 ** np.arange(k_max + 1)
        thetas = thetas[thetas >= lo * (1.0 - 1e-12)]
    else:
        ref = theta_ref if theta_ref is not None else max(math.pi - 0.4, 0.5 * (lo + hi))
        thetas = math.pi - (math.pi - ref) * 0.5 ** np.arange(k_max + 1)
        thetas = thetas[thetas <= hi * (1.0 + 1e-12)]
    if len(thetas) < 4:
        raise ValueError("profile does not approach the pole closely enough for a ladder")
    return thetas


def _value_noise(profile: RoCProfile) -> float:
    """Absolute noise floor of interpolated r1/r2 values."""
    return float(profile.meta.get("value_noise", 1e-10))


def _pole_distance(thetas: np.ndarray, side: str) -> np.ndarray:
    return thetas if side == "north" else math.pi - thetas


def _radii(profile: RoCProfile, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r1 and s = r2 - r1 on the ladder from one evaluator call, s via a direct
    excess evaluator when available."""
    if profile.evaluator is not None:
        r1, r2 = np.asarray(profile.evaluator(thetas), dtype=float)
    else:
        r1, r2 = profile.r1_at(thetas), profile.r2_at(thetas)
    if profile.s_fn is not None:
        return r1, np.asarray([float(profile.s_fn(th)) for th in thetas])
    return r1, np.asarray(r2 - r1, dtype=float)


def _log_fit(pole_dist: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Extrapolate pole-limit values by least squares in 1/ln(2 csc theta).

    Returns (limit, ci); exact for sequences constant or polynomial in
    that variable, and asymptotically correct for pure power tails
    (which decay geometrically along the ladder).
    """
    x = 1.0 / np.log(2.0 / np.sin(pole_dist))
    m = min(10, len(x))
    xs, ys = x[-m:], values[-m:]
    if len(xs) < 3 or abs(xs[0] - xs[-1]) < 1e-12:
        return float(ys[-1]), float(np.max(np.abs(ys - ys[-1]))) if len(ys) > 1 else 0.0
    A2 = np.vstack([np.ones_like(xs), xs, xs * xs]).T
    A1 = np.vstack([np.ones_like(xs), xs]).T
    c2, *_ = np.linalg.lstsq(A2, ys, rcond=None)
    c1, *_ = np.linalg.lstsq(A1, ys, rcond=None)
    resid = ys - A2 @ c2
    rms = float(np.sqrt(np.mean(resid ** 2)))
    ci = abs(c2[0] - c1[0]) + 4.0 * rms + abs(ys[-1] - c2[0]) * 0.05
    return float(c2[0]), float(ci)


def umbilic_slope_estimate(profile: RoCProfile, r0: Optional[float] = None,
                           side: str = "auto", theta_ref: Optional[float] = None,
                           k_max: int = 20) -> UmbilicAnalysis:
    """Extrapolated umbilic slope lim (r2 - r0)/(r1 - r0) at a pole.

    ``r0`` defaults to the declared pole value, the attached relation's
    diagonal fixed point, or the extrapolated pole limit of r1, in that
    order.  An interior sign change of r2 - r1 on the approach is an
    off-axis umbilic ring and the slope is reported unbounded; a totally
    umbilic tail raises UndefinedSlopeError.
    """
    if side == "auto":
        north_gap = profile.theta_min
        south_gap = math.pi - profile.theta_max
        side = "north" if north_gap <= south_gap else "south"
    thetas = _ladder(profile, side, theta_ref, k_max)
    r1, s = _radii(profile, thetas)
    noise = _value_noise(profile)
    scale = max(float(np.max(np.abs(r1))), 1e-30)
    if np.all(np.abs(s) <= max(1e-13 * scale, 10.0 * noise)):
        raise UndefinedSlopeError("r2 == r1 along the pole approach (totally umbilic)")

    # off-axis umbilic: a genuine sign change away from the pole
    meaningful = np.abs(s) > 1e3 * noise
    prod = s[:-1] * s[1:]
    sign_changes = np.nonzero((prod < 0.0) & meaningful[:-1] & meaningful[1:])[0]
    if len(sign_changes):
        return UmbilicAnalysis(slope_estimate=math.inf, slope_ci=math.inf,
                               vanishing_exponent=math.nan, vanishing_coefficient=math.nan,
                               side=side, unbounded=True,
                               notes="interior sign change of r2 - r1: off-axis umbilic ring, "
                                     "slope unbounded")

    if r0 is None:
        pole_key = 0.0 if side == "north" else math.pi
        for key, val in profile.pole_values.items():
            if abs(key - pole_key) < 1e-9:
                r0 = 0.5 * (float(val[0]) + float(val[1])) if np.ndim(val) else float(val)
        if r0 is None and profile.relation is not None:
            # the umbilic radius may sit outside the observed range when r1
            # diverges at the pole, so search a generous window as well
            lo = max(min(float(r1.min()) - 1.0, -100.0), -1e6)
            hi = min(max(float(r1.max()) + 1.0, 100.0), 1e6)
            roots = fixed_points(profile.relation, (lo, hi)) if lo < hi else []
            if len(roots) == 1:
                r0 = roots[0]
            elif len(roots) > 1:
                r0 = min(roots, key=lambda x: abs(x - r1[-1]))
        if r0 is None:
            r0, _ = _log_fit(_pole_distance(thetas, side), r1)

    if profile.r1_excess_fn is not None:
        denom = np.asarray([float(profile.r1_excess_fn(th)) for th in thetas])
        good = np.abs(denom) > 1e-280
    else:
        denom = r1 - r0
        good = np.abs(denom) > 1e3 * noise
    if good.sum() < 4:
        raise UndefinedSlopeError("r1 sits at the umbilic value along the whole approach")
    mu = np.full_like(denom, np.nan)
    mu[good] = 1.0 + s[good] / denom[good]
    slope, ci = _log_fit(_pole_distance(thetas[good], side), mu[good])

    # does r1 actually converge to r0 along the approach?  (strict
    # convexity at the pole; the >= 1 bound only applies when it does)
    dvals = np.abs(denom[good])
    convergent = bool(dvals[-1] <= 2.0 * dvals[0] + 10.0 * noise)

    alpha = slope - 1.0
    rate = _rate_estimate(profile, alpha, side, thetas, s)
    return UmbilicAnalysis(slope_estimate=slope, slope_ci=ci,
                           vanishing_exponent=alpha,
                           vanishing_coefficient=rate.value,
                           rate_class=rate.classification, side=side,
                           pole_convergent=convergent,
                           samples={"theta": thetas, "mu": mu, "r0": r0})


def vanishing_rate_estimate(profile: RoCProfile, alpha: float, side: str = "north",
                            theta_ref: Optional[float] = None,
                            k_max: int = 20) -> RateEstimate:
    """Limit of (r2 - r1)/sin(theta)^alpha at the pole.

    Divergence is a reported outcome ('divergent'), detected from ladder
    increments that fail to decay (this catches logarithmic divergence,
    which never doubles between ladder rungs) or from ratios that grow
    by more than 2x on three consecutive rungs.
    """
    thetas = _ladder(profile, side, theta_ref, k_max)
    return _rate_estimate(profile, alpha, side, thetas, _radii(profile, thetas)[1])


def _rate_estimate(profile: RoCProfile, alpha: float, side: str,
                   thetas: np.ndarray, s: np.ndarray) -> RateEstimate:
    """vanishing_rate_estimate on a ladder whose r2 - r1 values are known."""
    noise = _value_noise(profile)
    pole_dist = _pole_distance(thetas, side)
    if profile.s_fn is None:
        # drop rungs where r2 - r1 has drowned in interpolation noise
        keep = np.abs(s) > 1e3 * noise
        if keep.sum() < 4:
            return RateEstimate(0.0, "zero", float(np.max(np.abs(s), initial=0.0)),
                                {"theta": thetas, "g": s})
        thetas, s, pole_dist = thetas[keep], s[keep], pole_dist[keep]
    g = s / np.sin(pole_dist) ** alpha
    samples = {"theta": thetas, "g": g}

    finite = np.isfinite(g)
    if finite.sum() < 4:
        return RateEstimate(math.inf, "divergent", math.inf, samples)
    g = g[finite]
    pole_dist = pole_dist[finite]
    gabs = np.abs(g)

    # ratio doubling rule
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = gabs[1:] / gabs[:-1]
    doubling = 0
    for rr in ratios:
        doubling = doubling + 1 if rr > 2.0 else 0
        if doubling >= 3:
            return RateEstimate(math.inf, "divergent", math.inf, samples)

    # non-decaying increments on a growing sequence
    inc = np.abs(np.diff(g))
    if len(inc) >= 6:
        head = float(np.median(inc[:3]))
        tail = float(np.median(inc[-3:]))
        growing = gabs[-1] > 2.0 * gabs[0] + 1e-300
        if growing and tail > 0.5 * head and tail > 1e-9 * max(1.0, gabs[-1]):
            return RateEstimate(math.inf, "divergent", math.inf, samples)

    value, ci = _log_fit(pole_dist, g)
    floor = max(ci, 1e-6 * float(np.max(gabs)) if np.max(gabs) > 0 else 0.0, 1e-12)
    cls = "zero" if abs(value) <= floor else "finite"
    if cls == "zero":
        value = 0.0
    return RateEstimate(value, cls, ci, samples)


def slope_theorem_check(profile: RoCProfile, side: str = "auto",
                        tol: float = 5e-2) -> dict:
    """Numerical check of the pole slope restrictions on a profile.

    Verifies mu_p >= 1 (up to the extrapolation uncertainty) and, when a
    finite vanishing rate with nonzero coefficient is found at
    alpha = mu_p - 1, verifies |mu_p - (alpha + 1)| <= tol.  A totally
    umbilic approach passes vacuously.
    """
    try:
        analysis = umbilic_slope_estimate(profile, side=side)
    except UndefinedSlopeError:
        return {"passed": True, "vacuous": True,
                "reason": "totally umbilic approach (round sphere case)"}
    if analysis.unbounded:
        return {"passed": True, "vacuous": False, "unbounded": True,
                "reason": "off-axis umbilic ring: slope unbounded as required"}
    mu = analysis.slope_estimate
    ci = analysis.slope_ci
    result = {
        "vacuous": False,
        "mu": mu,
        "ci": ci,
        "alpha": analysis.vanishing_exponent,
        "gamma": analysis.vanishing_coefficient,
        "rate_class": analysis.rate_class,
        "pole_convergent": analysis.pole_convergent,
    }
    if analysis.pole_convergent:
        result["passed"] = bool(mu >= 1.0 - ci - tol)
    else:
        # radii diverge at the pole: not strictly convex there, so the
        # slope lower bound does not apply (the ratio limit is still
        # the relation's diagonal slope and is reported)
        result["passed"] = True
        result["premise_failed"] = "r1 does not converge to the umbilic value"
    if analysis.rate_class == "finite":
        result["equality_checked"] = True
        result["passed"] = result["passed"] and abs(mu - (analysis.vanishing_exponent + 1.0)) <= tol
    else:
        result["equality_checked"] = False
        result["alpha_is_lower_bound_only"] = analysis.rate_class == "divergent"
    return result


def slope_restriction_profile(alpha: float, delta: float, r0: float = 1.0,
                              theta_max: float = 1.2) -> RoCProfile:
    """Fixture family with r2 - r1 = sin(theta)^alpha * ln(2 csc theta)^delta.

    r1 follows from the integrated Codazzi-Mainardi relationship,
    r1(theta) = r0 + integral_0^theta s(u) cot(u) du (quadrature; exact
    closed forms exist for delta in {0, 1}).  All members have umbilic
    slope alpha + 1 at the north pole, while the vanishing rate at
    exponent alpha tends to 0, a nonzero constant, or infinity for
    delta = -1, 0, +1 respectively.
    """
    if alpha <= 1.0:
        raise ValueError("fixture needs alpha > 1 for an integrable cotangent flux")
    if theta_max >= math.pi / 2.0:
        raise ValueError("fixture domain must stay on the north side of the equator")

    def s_of(theta: float) -> float:
        L = math.log(2.0 / math.sin(theta))
        return math.sin(theta) ** alpha * L ** delta

    def excess_of(theta: float) -> float:
        """r1(theta) - r0 = integral_0^theta s(u) cot(u) du, well conditioned."""
        if delta == 0.0:
            return math.sin(theta) ** alpha / alpha
        if delta == 1.0:
            L = math.log(2.0 / math.sin(theta))
            return math.sin(theta) ** alpha * (L / alpha + 1.0 / alpha ** 2)

        # substitute u = e^v: the integrand decays like e^(alpha*v), so a
        # truncated log-variable quadrature keeps full relative accuracy
        # at any ladder depth
        def f(v: float) -> float:
            u = math.exp(v)
            return s_of(u) / math.tan(u) * u

        v_hi = math.log(theta)
        v_lo = v_hi - 30.0 / alpha
        return adaptive_simpson(f, v_lo, v_hi, abs_tol=0.0, rel_tol=1e-10)

    def r1_of(theta: float) -> float:
        return r0 + excess_of(theta)

    def evaluator(theta):
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 0:
            r1v = r1_of(float(theta))
            return np.array([r1v, r1v + s_of(float(theta))])
        r1v = np.array([r1_of(float(th)) for th in theta])
        sv = np.array([s_of(float(th)) for th in theta])
        return np.array([r1v, r1v + sv])

    grid = np.geomspace(1e-7, theta_max, 160)
    vals = evaluator(grid)
    return RoCProfile(grid, vals[0], vals[1], evaluator=evaluator,
                      pole_values={0.0: (r0, r0)}, s_fn=s_of, r1_excess_fn=excess_of,
                      meta={"fixture": f"sin^{alpha} * ln(2csc)^{delta}",
                            "value_noise": 1e-13})
