"""The determinant-one fractional-linear action on curvature space.

A matrix M = [[a, b], [c, d]] with ad - bc = 1 acts on the radii of
curvature as r -> (a r + b)/(c r + d) and on the principal curvatures
as k -> (d k + c)/(b k + a); the two are intertwined by k = 1/r.  The
action descends to surfaces of revolution: the image profile is
parameterised by sin(theta~) = A * (c*rho + d*sin(theta)) for a nonzero
calibration constant A, with axis distance rho~ = A*(a*rho + b*sin(theta)).
Every such matrix factors into parallel translations along the normal
(N), homotheties about the origin (A) and the reciprocal map (Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.interpolate import make_interp_spline

from .geometry import (
    FlatPointError,
    ProfileCurve3D,
    RoCPoint,
    RoCProfile,
    _is_uniform,
    t_of_theta,
)
from .numerics import cumulative_simpson_uniform, derivative_samples, refine_max_parabolic
from .projective import frac_linear, frac_linear_array
from .relations import (
    CubicRoC,
    ExplicitF,
    LinearHopf,
    PureKLinear,
    RelationError,
    SemiQuadratic,
    WeingartenRelation,
    _F_prime_or_nan,
    eval_F_prime,
    to_semiquadratic,
)
from .umbilic import UndefinedSlopeError, umbilic_slope_estimate
from . import expressions as ex

__all__ = [
    "MoebiusElement",
    "Calibration",
    "ParallelTranslation",
    "Homothety",
    "Reciprocal",
    "EmptyDomainError",
    "apply_roc",
    "apply_curvature",
    "decompose",
    "compose_factors",
    "apply_factors",
    "reparameterize",
    "induced_surface",
    "reciprocal_transform_closed",
    "transform_relation",
    "verify_transform_properties",
    "ads_invariants",
]


class EmptyDomainError(ValueError):
    """The reparameterization admits no Gauss angles (|RHS| > 1 everywhere)."""


@dataclass(frozen=True)
class MoebiusElement:
    """Element of the determinant-one group, normalized on construction.

    A positive determinant is rescaled to exactly 1 by dividing through
    by its square root; a non-positive determinant is rejected.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det <= 0.0:
            raise ValueError(f"determinant {det} is not positive")
        if abs(det - 1.0) > 1e-12:
            s = math.sqrt(det)
            object.__setattr__(self, "a", self.a / s)
            object.__setattr__(self, "b", self.b / s)
            object.__setattr__(self, "c", self.c / s)
            object.__setattr__(self, "d", self.d / s)

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    def inverse(self) -> "MoebiusElement":
        return MoebiusElement(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "MoebiusElement") -> "MoebiusElement":
        m = self.matrix() @ other.matrix()
        return MoebiusElement(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @property
    def is_identity(self) -> bool:
        return (abs(self.a - 1) < 1e-14 and abs(self.d - 1) < 1e-14
                and abs(self.b) < 1e-14 and abs(self.c) < 1e-14)

    def to_json(self) -> list:
        return [self.a, self.b, self.c, self.d]


@dataclass(frozen=True)
class Calibration:
    """Nonzero speed constant of the induced surface transformation."""

    A: float

    def __post_init__(self):
        if self.A == 0.0:
            raise ValueError("calibration constant must be nonzero")


@dataclass(frozen=True)
class ParallelTranslation:
    """Normal translation by distance v; matrix [[1, v], [0, 1]]."""

    v: float

    def moebius(self) -> MoebiusElement:
        return MoebiusElement(1.0, self.v, 0.0, 1.0)

    def to_json(self) -> dict:
        return {"type": "parallel_translation", "parameter": self.v}


@dataclass(frozen=True)
class Homothety:
    """Scaling about the origin by omega^2; matrix [[omega, 0], [0, 1/omega]]."""

    omega: float

    def moebius(self) -> MoebiusElement:
        return MoebiusElement(self.omega, 0.0, 0.0, 1.0 / self.omega)

    def to_json(self) -> dict:
        return {"type": "homothety", "parameter": self.omega}


@dataclass(frozen=True)
class Reciprocal:
    """The reciprocal map (r1, r2) -> (-1/r1, -1/r2); matrix [[0, -1], [1, 0]]."""

    def moebius(self) -> MoebiusElement:
        return MoebiusElement(0.0, -1.0, 1.0, 0.0)

    def to_json(self) -> dict:
        return {"type": "reciprocal", "parameter": None}


Factor = Union[ParallelTranslation, Homothety, Reciprocal]


def apply_roc(M: MoebiusElement, p):
    """Componentwise fractional-linear image of an RoC point or array pair."""
    if isinstance(p, RoCPoint):
        return RoCPoint(frac_linear(M.a, M.b, M.c, M.d, p.r1),
                        frac_linear(M.a, M.b, M.c, M.d, p.r2))
    if isinstance(p, (tuple, list)) and len(p) == 2 and np.ndim(p[0]) == 0 \
            and not isinstance(p[0], np.ndarray):
        return (frac_linear(M.a, M.b, M.c, M.d, p[0]),
                frac_linear(M.a, M.b, M.c, M.d, p[1]))
    r1, r2 = p
    return (frac_linear_array(M.a, M.b, M.c, M.d, r1),
            frac_linear_array(M.a, M.b, M.c, M.d, r2))


def apply_curvature(M: MoebiusElement, k):
    """Curvature-space action k -> (d k + c)/(b k + a), paired with apply_roc."""
    if isinstance(k, (tuple, list)) and len(k) == 2 and np.ndim(k[0]) == 0 \
            and not isinstance(k[0], np.ndarray):
        return (frac_linear(M.d, M.c, M.b, M.a, k[0]),
                frac_linear(M.d, M.c, M.b, M.a, k[1]))
    k1, k2 = k
    return (frac_linear_array(M.d, M.c, M.b, M.a, k1),
            frac_linear_array(M.d, M.c, M.b, M.a, k2))


def decompose(M: MoebiusElement) -> list[Factor]:
    """Factor into N/A/Q generators (product in list order reproduces M).

    c = 0:  [N(a*b), A(a)];   c != 0:  [N(a/c), A(1/c), Q, N(d/c)].
    """
    if abs(M.c) <= 1e-14 * max(1.0, abs(M.a), abs(M.b), abs(M.d)):
        return [ParallelTranslation(M.a * M.b), Homothety(M.a)]
    return [ParallelTranslation(M.a / M.c), Homothety(1.0 / M.c),
            Reciprocal(), ParallelTranslation(M.d / M.c)]


def compose_factors(factors: list[Factor]) -> MoebiusElement:
    m = np.eye(2)
    for f in factors:
        m = m @ f.moebius().matrix()
    return MoebiusElement(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def apply_factors(factors: list[Factor], p):
    """Apply the factor list to an RoC point (rightmost factor first)."""
    for f in reversed(factors):
        p = apply_roc(f.moebius(), p)
    return p


# ---------------------------------------------------------------------------
# reparameterization and induced surface transformations


@dataclass
class Reparameterization:
    """The Gauss-angle map of an induced surface transformation."""

    M: MoebiusElement
    A: float                      # calibration actually used (sign included)
    theta: np.ndarray             # admissible source angles
    theta_tilde: np.ndarray       # image angles on the standard branch
    mask: np.ndarray              # admissible-sample mask on the source grid
    auto_calibrated: bool
    reversed_branch: bool = False


def _rho_of(profile: RoCProfile) -> np.ndarray:
    return profile.r1 * np.sin(profile.grid)


def reparameterize(M: MoebiusElement, profile: RoCProfile,
                   cal: Optional[Calibration | float | str] = "auto",
                   reversed_branch: bool = False) -> Reparameterization:
    """Image Gauss angles from sin(theta~) = A*(c*rho + d*sin(theta)).

    With cal='auto', A is 1/max|c*rho + d*sin(theta)| (grid maximum with
    3-point parabolic refinement), which makes the map defined on the
    whole profile.  The branch follows the two-piece arcsine keyed on
    theta <= pi/2; ``reversed_branch`` exposes the orientation-reversed
    assignment.  The admissible sub-domain is where |RHS| <= 1.
    """
    if np.any(~np.isfinite(profile.r1)):
        raise FlatPointError("reparameterization needs finite r1 on the grid")
    theta = profile.grid
    w = M.c * _rho_of(profile) + M.d * np.sin(theta)
    if cal == "auto" or cal is None:
        _, wmax = refine_max_parabolic(theta, np.abs(w))
        if wmax <= 0.0:
            raise EmptyDomainError("c*rho + d*sin(theta) vanishes identically")
        A = 1.0 / wmax
        auto = True
    else:
        A = cal.A if isinstance(cal, Calibration) else float(cal)
        if A == 0.0:
            raise ValueError("calibration constant must be nonzero")
        auto = False
    u = A * w
    # prefer the branch with sin(theta~) >= 0; flip A's sign if needed
    meaning = np.abs(u) > 1e-14
    if meaning.any() and np.all(u[meaning] <= 0.0):
        A = -A
        u = -u
    mask = (u >= -1e-12) & (u <= 1.0 + 1e-12)
    if not mask.any():
        raise EmptyDomainError("no Gauss angles satisfy |A*(c*rho + d*sin)| <= 1")
    uu = np.clip(u[mask], 0.0, 1.0)
    th = theta[mask]
    base = np.arcsin(uu)
    north = th <= math.pi / 2.0
    if not reversed_branch:
        theta_tilde = np.where(north, base, math.pi - base)
    else:
        theta_tilde = np.where(north, math.pi - base, base)
    return Reparameterization(M=M, A=A, theta=th, theta_tilde=theta_tilde,
                              mask=mask, auto_calibrated=auto,
                              reversed_branch=reversed_branch)


@dataclass
class TransformedSurface:
    """Image of a surface of revolution under the induced transformation."""

    kind: str                     # 'surface' | 'plane' | 'cone'
    M: MoebiusElement
    A: Optional[float] = None
    profile: Optional[RoCProfile] = None
    embedding: Optional[ProfileCurve3D] = None
    source_theta: Optional[np.ndarray] = None
    notes: str = ""


def _equator_patched_h(theta: np.ndarray, theta_tilde: np.ndarray,
                       r2_img: np.ndarray, rep: Reparameterization,
                       r2_src: np.ndarray, h_anchor: float,
                       patch_width: float = 1e-3) -> np.ndarray:
    """Cumulative h~ = h_anchor - int r2~ sin(theta~) d(theta~) over the source grid.

    Written as an integral over the source angle with density
    d(theta~)/d(theta) = A (c r2 + d) cos(theta)/cos(theta~), which extends
    continuously through theta = pi/2 (where cos(theta~) can vanish) with
    limit -r2~(pi/2) sqrt(A (c r2(pi/2) + d)); samples inside a patch of
    half-width ``patch_width`` around the equator are replaced by a local
    quadratic through that limit before the composite quadrature.
    """
    M = rep.M
    A = rep.A
    if np.any(~np.isfinite(r2_img)):
        raise FlatPointError("image profile hits a flat point during h integration")
    cos_tt = np.cos(theta_tilde)
    with np.errstate(divide="ignore", invalid="ignore"):
        dtt = A * (M.c * r2_src + M.d) * np.cos(theta) / cos_tt
        f = -r2_img * np.sin(theta_tilde) * dtt

    half = math.pi / 2.0
    near = np.abs(theta - half) < patch_width
    if near.any():
        i_eq = int(np.argmin(np.abs(theta - half)))
        r2_eq = float(np.interp(half, theta, r2_src))
        r2i_eq = float(np.interp(half, theta, r2_img))
        arg = A * (M.c * r2_eq + M.d)
        if arg > 0.0 and abs(cos_tt[i_eq]) < 1e-3:
            mid_limit = -r2i_eq * math.sqrt(arg)
            # quadratic through the two patch edges and the analytic limit
            lo = np.nonzero(theta < half - patch_width)[0]
            hi = np.nonzero(theta > half + patch_width)[0]
            if len(lo) and len(hi):
                x0, x2 = theta[lo[-1]], theta[hi[0]]
                y0, y2 = f[lo[-1]], f[hi[0]]
                xs = theta[near] - half
                d0, d2 = x0 - half, x2 - half
                # Lagrange through (d0, y0), (0, mid), (d2, y2)
                f[near] = (y0 * xs * (xs - d2) / (d0 * (d0 - d2))
                           + mid_limit * (xs - d0) * (xs - d2) / (d0 * d2)
                           + y2 * xs * (xs - d0) / (d2 * (d2 - d0)))

    if np.any(~np.isfinite(f)):
        raise FlatPointError("axis-height integrand is singular away from the equator patch")

    # integrate in the uniform-in-t coordinate when available, otherwise
    # through a quintic-spline antiderivative of the sampled integrand
    t = t_of_theta(theta)
    if _is_uniform(t, rtol=1e-5):
        integral = cumulative_simpson_uniform(f * np.sin(theta), float(t[1] - t[0]))
    elif len(theta) >= 6:
        anti = make_interp_spline(theta, f, k=5).antiderivative()
        integral = anti(theta) - anti(theta[0])
    else:
        integral = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(theta))])
    return h_anchor + integral


def induced_surface(M: MoebiusElement, profile: RoCProfile,
                    cal: Optional[Calibration | float | str] = "auto",
                    h_anchor: float = 0.0,
                    reversed_branch: bool = False) -> TransformedSurface:
    """The surface of revolution whose RoC diagram is the image of the input.

    Degenerate cases follow the classification: r1 = -d/c identically
    means the source is a sphere through the inversion center and the
    image is a plane; r2 = -d/c identically (r1 not) gives a cone.
    """
    if abs(M.c) > 0.0:
        pole = -M.d / M.c
        scale = max(1.0, abs(pole))
        if np.all(np.abs(profile.r1 - pole) <= 1e-10 * scale):
            return TransformedSurface(kind="plane", M=M,
                                      notes="r1 = -d/c identically: image is a plane")
        if np.all(np.abs(profile.r2 - pole) <= 1e-10 * scale):
            return TransformedSurface(kind="cone", M=M,
                                      notes="r2 = -d/c identically: image is a cone")

    rep = reparameterize(M, profile, cal, reversed_branch=reversed_branch)
    theta = rep.theta
    order = np.argsort(rep.theta_tilde)
    theta_sorted = theta[order]
    tt_sorted = rep.theta_tilde[order]
    keep = np.ones(len(tt_sorted), dtype=bool)
    keep[1:] = np.diff(tt_sorted) > 1e-12
    theta_src = theta_sorted[keep]
    tt = tt_sorted[keep]
    if len(tt) < 5:
        raise EmptyDomainError("admissible domain too small for a profile")

    r1_src = np.asarray(profile.r1_at(theta_src), dtype=float)
    r2_src = np.asarray(profile.r2_at(theta_src), dtype=float)
    r1_img = frac_linear_array(M.a, M.b, M.c, M.d, r1_src)
    r2_img = frac_linear_array(M.a, M.b, M.c, M.d, r2_src)

    rho_img = rep.A * (M.a * r1_src * np.sin(theta_src) + M.b * np.sin(theta_src))
    finite = np.isfinite(r1_img) & np.isfinite(r2_img)
    try:
        h_img = _equator_patched_h(theta_src, tt, r2_img, rep, r2_src, h_anchor)
    except FlatPointError:
        h_img = np.full_like(tt, np.nan)

    inv_map = None
    if profile.evaluator is not None:
        inv_map = _ImageEvaluator(M, rep, profile, theta_src, tt)

    # the image satisfies the transported relation; it has none when the
    # source has none or the transport is undefined
    relation = None
    if profile.relation is not None:
        try:
            relation = transform_relation(M, profile.relation)
        except RelationError:
            pass
    img = RoCProfile(tt, r1_img, r2_img,
                     evaluator=inv_map,
                     relation=relation,
                     tolerance=profile.tolerance,
                     meta={"transform_of": profile.meta.get("relation", "profile"),
                           "matrix": M.to_json(), "calibration": rep.A,
                           "value_noise": profile.meta.get("value_noise", 1e-10)})
    emb = ProfileCurve3D(tt, rho_img, h_img, meta={"h_anchor": h_anchor})
    return TransformedSurface(kind="surface", M=M, A=rep.A, profile=img,
                              embedding=emb, source_theta=theta_src,
                              notes="" if finite.all() else "image contains flat samples")


class _ImageEvaluator:
    """Dense (r1~, r2~)(theta~) by inverting the Gauss-angle map."""

    def __init__(self, M: MoebiusElement, rep: Reparameterization,
                 source: RoCProfile, theta_src: np.ndarray, theta_img: np.ndarray):
        self.M = M
        self.A = rep.A
        self.reversed_branch = rep.reversed_branch
        self.source = source
        self.theta_src = theta_src
        self.theta_img = theta_img

    def _theta_of(self, tt: float) -> float:
        from scipy.optimize import brentq

        i = int(np.searchsorted(self.theta_img, tt))
        i = min(max(i, 1), len(self.theta_img) - 1)
        lo, hi = self.theta_src[i - 1], self.theta_src[i]
        lo = max(lo - 1e-12, self.source.theta_min)
        hi = min(hi + 1e-12, self.source.theta_max)
        target = math.sin(tt)

        def eqn(th: float) -> float:
            r1v = float(self.source.r1_at(th))
            return self.A * (self.M.c * r1v + self.M.d) * math.sin(th) - target

        flo, fhi = eqn(lo), eqn(hi)
        if flo * fhi > 0.0:
            return lo if abs(flo) < abs(fhi) else hi
        return brentq(eqn, lo, hi, xtol=1e-14)

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        scalar = theta.ndim == 0
        thetas = np.atleast_1d(theta)
        r1 = np.empty_like(thetas)
        r2 = np.empty_like(thetas)
        for j, tt in enumerate(thetas):
            th = self._theta_of(float(tt))
            r1[j] = frac_linear_array(self.M.a, self.M.b, self.M.c, self.M.d,
                                      np.array([float(self.source.r1_at(th))]))[0]
            r2[j] = frac_linear_array(self.M.a, self.M.b, self.M.c, self.M.d,
                                      np.array([float(self.source.r2_at(th))]))[0]
        if scalar:
            return np.array([float(r1[0]), float(r2[0])])
        return np.array([r1, r2])


def reciprocal_transform_closed(profile: RoCProfile, h_anchor: float = 0.0) -> TransformedSurface:
    """Reciprocal transformation of a closed, strictly convex surface.

    Calibrates with A = 1/rho(pi/2) so the image is again closed and
    strictly convex; the axis-height integrand extends continuously
    through the equator with limit sqrt(K(pi/2)) and is patched there.
    """
    lo, hi = profile.theta_min, profile.theta_max
    if lo > 1e-3 or hi < math.pi - 1e-3:
        raise ValueError("profile does not cover the sphere: not a closed surface")
    if np.any(~np.isfinite(profile.r1)) or np.any(~np.isfinite(profile.r2)) \
            or np.any(profile.r1 <= 0.0) or np.any(profile.r2 <= 0.0):
        raise ValueError("profile is not strictly convex (radii must be finite positive)")
    rho_eq = float(profile.r1_at(math.pi / 2.0))
    result = induced_surface(MoebiusElement(0.0, -1.0, 1.0, 0.0), profile,
                             cal=Calibration(1.0 / rho_eq), h_anchor=h_anchor)
    result.notes = "reciprocal transform, A = 1/rho(pi/2)"
    return result


# ---------------------------------------------------------------------------
# relation transport


def _semiquadratic_pushforward(M: MoebiusElement, rel: SemiQuadratic) -> SemiQuadratic:
    """Coefficients of the relation satisfied by the image curvatures."""
    a, b, c, d = M.a, M.b, M.c, M.d
    al, be, ga, de = rel.coefficients()
    bg = be + ga
    al2 = al * a * a + de * b * b - bg * a * b
    cross = bg * b * c - al * a * c - de * b * d
    be2 = be + cross
    ga2 = ga + cross
    de2 = al * c * c + de * d * d - bg * c * d
    if max(abs(al2), abs(be2), abs(ga2), abs(de2)) == 0.0:
        raise RelationError("transformed relation degenerates to 0 = 0")
    return SemiQuadratic(al2, be2, ga2, de2)


def _canonicalize(rel: SemiQuadratic) -> WeingartenRelation:
    """Fold back into the named r-form families when exact."""
    al, be, ga, de = rel.coefficients()
    if de == 0.0 and be != 0.0:
        lam = -ga / be
        C = -al / be
        if C == 0.0 and lam != 0.0:
            return PureKLinear(1.0 / lam)
        return LinearHopf(lam, C)
    if de == 0.0 and al == 0.0 and ga != 0.0:
        return PureKLinear(-be / ga)
    return rel.normalized()


def transform_relation(M: MoebiusElement, rel: WeingartenRelation) -> WeingartenRelation:
    """Relation satisfied by the image surface's curvatures.

    Semi-quadratic relations stay semi-quadratic (normalized when the
    discriminant invariant is positive); linear Hopf relations may leave
    their family and come back as SemiQuadratic.  Explicit relations are
    composed symbolically: F~ = m o F o m^{-1} with m(u) = (au+b)/(cu+d).
    """
    if M.is_identity:
        return rel
    if isinstance(rel, (SemiQuadratic, LinearHopf, PureKLinear)):
        image = _semiquadratic_pushforward(M, to_semiquadratic(rel))
        if isinstance(rel, SemiQuadratic):
            return image.normalized()
        return _canonicalize(image)
    if isinstance(rel, (CubicRoC, ExplicitF)):
        if isinstance(rel, CubicRoC):
            g2 = rel.gamma ** 2
            tree: ex.Expr = ex.BinOp("*", ex.Const(g2),
                                     ex.BinOp("^", ex.Var("r1"), ex.Const(3)))
        else:
            tree = rel.expr
        # r1 = (d*r1~ - b)/(a - c*r1~)
        r1t = ex.Var("r1")
        inv_arg = ex.BinOp("/",
                           ex.BinOp("-", ex.BinOp("*", ex.Const(M.d), r1t), ex.Const(M.b)),
                           ex.BinOp("-", ex.Const(M.a), ex.BinOp("*", ex.Const(M.c), r1t)))
        inner = ex.substitute(tree, {"r1": inv_arg})
        outer = ex.BinOp("/",
                         ex.BinOp("+", ex.BinOp("*", ex.Const(M.a), inner), ex.Const(M.b)),
                         ex.BinOp("+", ex.BinOp("*", ex.Const(M.c), inner), ex.Const(M.d)))
        return ExplicitF(outer)
    raise RelationError(f"cannot transform relation of type {type(rel).__name__}")


def verify_transform_properties(M: MoebiusElement, profile: RoCProfile,
                                cal="auto", slope_tol: float = 5e-2) -> dict:
    """Check the structural invariants of the induced transformation.

    (1) umbilic samples map to umbilic samples; (2) the ellipticity sign
    sign(-F') is preserved sample-wise; (3) the measured image umbilic
    slope lies in {mu, 1/mu} within ``slope_tol`` (both distances are
    reported).
    """
    result: dict = {"matrix": M.to_json()}
    out = induced_surface(M, profile, cal=cal)
    if out.kind != "surface":
        result["degenerate"] = out.kind
        result["passed"] = True
        return result
    img = out.profile
    theta_src = out.source_theta

    r1s = np.asarray(profile.r1_at(theta_src), dtype=float)
    r2s = np.asarray(profile.r2_at(theta_src), dtype=float)
    scale_s = float(np.max(np.abs(np.concatenate([r1s, r2s]))))
    finite_img = np.isfinite(img.r1) & np.isfinite(img.r2)
    scale_i = float(np.max(np.abs(np.concatenate([img.r1[finite_img], img.r2[finite_img]]))))
    umb_src = np.abs(r2s - r1s) <= 1e-8 * scale_s
    umb_img = np.zeros_like(umb_src)
    umb_img[finite_img] = np.abs(img.r2[finite_img] - img.r1[finite_img]) <= 1e-6 * scale_i
    result["umbilic_correspondence"] = bool(np.all(umb_src == (umb_src & umb_img))
                                            and np.all(umb_img[umb_src]))

    rel = profile.relation
    if rel is not None and img.relation is not None:
        step = max(1, len(theta_src) // 32)
        r1v = r1s[::step]
        r1i = frac_linear_array(M.a, M.b, M.c, M.d, r1v)
        # samples where either F' is undefined are skipped
        slope_src = _F_prime_or_nan(rel, r1v)
        slope_img = _F_prime_or_nan(img.relation, r1i)
        ok = ~(np.isnan(slope_src) | np.isnan(slope_img))
        if ok.any():
            result["ellipticity_sign_preserved"] = bool(np.all(
                np.copysign(1.0, -slope_src[ok]) == np.copysign(1.0, -slope_img[ok])))

    try:
        src_est = umbilic_slope_estimate(profile)
        img_est = umbilic_slope_estimate(img)

        def curvature_plane_slope(est) -> float:
            # the defining limit lives in the curvature plane; it matches
            # the RoC-plane ratio unless the umbilic radius is 0 or inf,
            # where the two planes' slopes are reciprocals
            r0 = float(est.samples.get("r0", 1.0))
            mu = est.slope_estimate
            if abs(r0) < 1e-8 or abs(r0) > 1e8:
                return 1.0 / mu if mu != 0 else math.inf
            return mu

        mu_src = curvature_plane_slope(src_est)
        mu_img = curvature_plane_slope(img_est)
        d_same = abs(mu_img - mu_src)
        d_recip = abs(mu_img - 1.0 / mu_src) if mu_src != 0 else math.inf
        result["mu_source"] = mu_src
        result["mu_image"] = mu_img
        result["distance_to_mu"] = d_same
        result["distance_to_reciprocal"] = d_recip
        result["slope_in_set"] = bool(min(d_same, d_recip) <= slope_tol)
    except (UndefinedSlopeError, ValueError):
        result["slope_in_set"] = None  # totally umbilic or no pole approach
    checks = [v for k, v in result.items()
              if k in ("umbilic_correspondence", "ellipticity_sign_preserved", "slope_in_set")
              and v is not None]
    result["passed"] = bool(all(checks)) if checks else True
    return result


# ---------------------------------------------------------------------------
# anti-de-Sitter Killing pairings


@dataclass
class AdsInvariants:
    theta: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray
    lam3: np.ndarray

    def drifts(self) -> tuple[float, float, float]:
        """Per-invariant drift (max - min), relative to the joint scale.

        Normalizing by the largest invariant magnitude keeps the measure
        meaningful when one pairing is identically zero (which happens,
        e.g., for mean-curvature-type geodesics through the light cone).
        """
        scale = max(float(np.max(np.abs(lam)))
                    for lam in (self.lam1, self.lam2, self.lam3))
        scale = max(scale, 1e-12)
        out = []
        for lam in (self.lam1, self.lam2, self.lam3):
            spread = float(np.max(lam) - np.min(lam))
            out.append(spread / scale)
        return tuple(out)


def ads_invariants(profile: RoCProfile, n_samples: int = 200) -> AdsInvariants:
    """Killing pairings of the anti-de-Sitter RoC metric along a profile.

    With psi = (r2 + r1)/2, s = (r2 - r1)/2, the three pairings of the
    unit tangent (oriented toward increasing r1) with the Killing fields
    are constant exactly when the diagram is a metric geodesic, which is
    the linear-(H, K) Weingarten case.  Samples with s = 0 or with a
    vanishing tangent (the equator, where dr1/dtheta = 0) are skipped.
    """
    rel = profile.relation
    theta = np.linspace(profile.theta_min, profile.theta_max, n_samples)
    r1 = np.asarray(profile.r1_at(theta), dtype=float)
    r2 = np.asarray(profile.r2_at(theta), dtype=float)
    if rel is not None:
        dr1 = (r2 - r1) / np.tan(theta)
        dr2 = eval_F_prime(rel, r1) * dr1
    else:
        dr1 = derivative_samples(theta, r1)
        dr2 = derivative_samples(theta, r2)
    psi = 0.5 * (r2 + r1)
    s = 0.5 * (r2 - r1)
    dpsi = 0.5 * (dr2 + dr1)
    ds = 0.5 * (dr2 - dr1)

    scale = max(float(np.max(np.abs(r1))), float(np.max(np.abs(r2))), 1e-30)
    speed2 = dpsi ** 2 - ds ** 2
    ok = (np.abs(s) > 1e-9 * scale) & (np.abs(dr1) > 1e-6 * np.max(np.abs(dr1)))
    ok &= np.abs(speed2) > 1e-14 * scale ** 2
    if ok.sum() < 4:
        raise ValueError("profile has no usable off-umbilic, off-equator samples")
    theta, psi, s, dpsi, ds, dr1 = (arr[ok] for arr in (theta, psi, s, dpsi, ds, dr1))
    norm = np.sqrt(np.abs(dpsi ** 2 - ds ** 2)) / np.abs(s)
    orient = np.sign(dr1)
    lam1 = ((psi ** 2 + s ** 2) * dpsi - 2.0 * psi * s * ds) / s ** 2 * orient / norm
    lam2 = (psi * dpsi - s * ds) / s ** 2 * orient / norm
    lam3 = dpsi / s ** 2 * orient / norm
    return AdsInvariants(theta, lam1, lam2, lam3)
