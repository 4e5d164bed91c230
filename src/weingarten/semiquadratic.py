"""Invariants and classification of semi-quadratic Weingarten relations.

For alpha*k1*k2 + beta*k1 + gamma*k2 + delta = 0 the two quantities

    Lambda1 = beta - gamma,      Lambda2 = (beta + gamma)^2 - 4*alpha*delta

control everything: Lambda1 is preserved by determinant-one curvature
transformations, Lambda2 is the discriminant of the umbilic quadratic
(so the squared-ratio Lambda1^2/Lambda2 is a transformation invariant),
and the relation is an elliptic PDE at an umbilic iff Lambda2 > Lambda1^2.
The group acts transitively on normalized (Lambda2 = 1) relations with a
common Lambda1^2, which reduces every Lambda2 > 0 relation to the pure
curvature-linear form k2 = lambda*k1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mobius import MoebiusElement, transform_relation
from .relations import RelationError, SemiQuadratic, WeingartenRelation, to_semiquadratic

__all__ = [
    "SemiQuadraticInvariants",
    "ParabolicRelationError",
    "invariants",
    "normalize",
    "umbilic_curvatures",
    "umbilic_slope_formula",
    "transitivity_solve",
    "reduce_to_pure_linear",
    "canal_classify",
    "classification_report",
]

PARABOLIC_TOL = 1e-12


class ParabolicRelationError(RelationError):
    """Lambda1^2 = Lambda2: canal case, route to canal_classify."""


@dataclass(frozen=True)
class SemiQuadraticInvariants:
    lambda1: float
    lambda2: float
    ratio: Optional[float]        # Lambda1^2 / Lambda2 when Lambda2 != 0
    klass: str                    # 'elliptic' | 'hyperbolic' | 'parabolic'


def invariants(rel: SemiQuadratic | WeingartenRelation) -> SemiQuadraticInvariants:
    """Lambda1, Lambda2 and the elliptic/hyperbolic/parabolic class."""
    sq = to_semiquadratic(rel)
    lam1 = sq.beta - sq.gamma
    lam2 = sq.lambda2
    gap = lam2 - lam1 ** 2
    if abs(gap) <= PARABOLIC_TOL * max(1.0, lam1 ** 2):
        klass = "parabolic"
    elif gap > 0:
        klass = "elliptic"
    else:
        klass = "hyperbolic"
    ratio = lam1 ** 2 / lam2 if lam2 != 0.0 else None
    return SemiQuadraticInvariants(lam1, lam2, ratio, klass)


def normalize(rel: SemiQuadratic | WeingartenRelation) -> SemiQuadratic:
    """Scale the coefficients so that Lambda2 = 1 (requires Lambda2 > 0)."""
    sq = to_semiquadratic(rel)
    if sq.lambda2 <= 0.0:
        raise RelationError(f"normalization needs Lambda2 > 0; got {sq.lambda2}")
    return sq.normalized()


def umbilic_curvatures(rel: SemiQuadratic | WeingartenRelation) -> list[float]:
    """Solutions of alpha*k^2 + (beta+gamma)*k + delta = 0 (umbilic curvatures).

    Empty when Lambda2 < 0 (no umbilic points) or when the linear case
    degenerates (beta + gamma = 0 with delta != 0).
    """
    sq = to_semiquadratic(rel)
    al, be, ga, de = sq.coefficients()
    lam2 = invariants(sq).lambda2
    if al != 0.0:
        if lam2 < 0.0:
            return []
        root = math.sqrt(lam2)
        ks = [(-(be + ga) + root) / (2.0 * al), (-(be + ga) - root) / (2.0 * al)]
        out = sorted(set(ks))
        return out
    if be + ga != 0.0:
        return [-de / (be + ga)]
    return []


def umbilic_slope_formula(rel: SemiQuadratic | WeingartenRelation) -> dict:
    """The two candidate umbilic slopes (Lambda1 +- sqrt(Lambda2))/(Lambda1 -+ sqrt(Lambda2)).

    The values are mutual reciprocals.  The parabolic degenerate
    denominator is reported as {0, 'undefined'}.
    """
    inv = invariants(rel)
    if inv.lambda2 < 0.0:
        raise RelationError("no umbilic slope: Lambda2 < 0 admits no umbilic points")
    root = math.sqrt(inv.lambda2)
    plus_den = inv.lambda1 - root
    minus_den = inv.lambda1 + root
    out: dict = {}
    out["mu_plus"] = (inv.lambda1 + root) / plus_den if plus_den != 0.0 else None
    out["mu_minus"] = (inv.lambda1 - root) / minus_den if minus_den != 0.0 else None
    if out["mu_plus"] is None or out["mu_minus"] is None:
        out["degenerate"] = True
        if out["mu_plus"] is None:
            out["mu_minus"] = 0.0
        else:
            out["mu_plus"] = 0.0
    else:
        out["degenerate"] = False
    return out


# ---------------------------------------------------------------------------
# transitivity


def _pullback_residual(Mp: np.ndarray, src: SemiQuadratic, dst: SemiQuadratic) -> float:
    """How far the substitution k -> (c + d k)/(a + b k) maps src onto dst."""
    a, b, c, d = Mp[0, 0], Mp[0, 1], Mp[1, 0], Mp[1, 1]
    al, be, ga, de = src.coefficients()
    bg = be + ga
    alp = al * d * d + de * b * b + bg * b * d
    cross = al * c * d + de * a * b + bg * b * c
    bep = cross + be
    gap = cross + ga
    dep = al * c * c + de * a * a + bg * a * c
    got = np.array([alp, bep, gap, dep])
    want = np.array(dst.coefficients())
    return float(min(np.max(np.abs(got - want)), np.max(np.abs(got + want))))


def _solve_pullback(src: SemiQuadratic, dst: SemiQuadratic) -> Optional[np.ndarray]:
    """Matrix (a,b,c,d), det 1, whose curvature substitution maps src to dst.

    Follows the constructive case split on delta' (the target constant
    term): both relations must be normalized with equal Lambda1.
    """
    al, be, ga, de = src.coefficients()
    alp, bep, gap_, dep = dst.coefficients()
    lam1 = be - ga

    def with_det(a, c, d):
        if abs(c) < 1e-14:
            return None
        b = (a * d - 1.0) / c
        return np.array([[a, b], [c, d]])

    candidates: list[np.ndarray] = []
    if abs(dep) > 1e-13:
        if abs(de) > 1e-13:
            # smallest power-of-two c with a comfortably positive discriminant
            c = 1.0
            while c ** 2 + 4.0 * de * dep < 1.0 and c < 2 ** 40:
                c *= 2.0
            disc = math.sqrt(c ** 2 + 4.0 * de * dep)
            for sign in (+1.0, -1.0):
                a = (-(lam1 + 2.0 * ga) * c + sign * disc) / (2.0 * de)
                d = ((lam1 + 2.0 * gap_) * c + sign * disc) / (2.0 * dep)
                m = with_det(a, c, d)
                if m is not None:
                    candidates.append(m)
        else:
            # delta = 0: beta + gamma = +-1 exactly on normalized relations
            bg = lam1 + 2.0 * ga
            if abs(bg) < 1e-13:
                return None
            c = 1.0
            a = (dep - alp * 0.0 - al * c * c) / (c * bg)
            d = c * (lam1 + ga + gap_) / dep
            m = with_det(a, c, d)
            if m is not None:
                candidates.append(m)
    else:
        if abs(de) > 1e-13:
            rev = _solve_pullback(dst, src)
            if rev is None:
                return None
            candidates.append(np.linalg.inv(rev))
        else:
            # both constants vanish: gamma, gamma' in {(-L1+1)/2, (-L1-1)/2}
            bg = lam1 + 2.0 * ga
            bgp = lam1 + 2.0 * gap_
            if abs(bg - bgp) < 1e-10:
                # same branch: an upper-triangular solution exists
                if abs(al) > 1e-13:
                    b = 1.0
                    while b ** 2 + 4.0 * al * alp < 1.0 and b < 2 ** 40:
                        b *= 2.0
                    disc = math.sqrt(b ** 2 + 4.0 * al * alp)
                    for sign in (+1.0, -1.0):
                        d = (-bg * b + sign * disc) / (2.0 * al)
                        if abs(d) > 1e-13:
                            candidates.append(np.array([[1.0 / d, b], [0.0, d]]))
                elif abs(alp) > 1e-13:
                    b = 1.0
                    d = alp / (b * bg)
                    if abs(d) > 1e-13:
                        candidates.append(np.array([[1.0 / d, b], [0.0, d]]))
                else:
                    candidates.append(np.eye(2))
            else:
                # opposite branch: needs c != 0
                c = 1.0
                a = -al * c / bg
                d = -alp * c / bg
                m = with_det(a, c, d)
                if m is not None:
                    candidates.append(m)

    best = None
    best_score = math.inf
    for m in candidates:
        if abs(np.linalg.det(m) - 1.0) > 1e-9:
            continue
        res = _pullback_residual(m, src, dst)
        if res > 1e-7:
            continue
        score = float(np.linalg.norm(m))
        if score < best_score:
            best, best_score = m, score
    return best


def transitivity_solve(source: SemiQuadratic, target: SemiQuadratic) -> MoebiusElement:
    """A determinant-one element taking ``source`` onto ``target``.

    Both relations must be normalized (Lambda2 = 1) and share Lambda1^2
    (to 1e-10); the overall sign of the target coefficients is free
    (scaling a relation by -1 does not change it).  The returned M
    satisfies transform_relation(M, source) = target coefficientwise.
    """
    for rel, name in ((source, "source"), (target, "target")):
        inv = invariants(rel)
        if abs(inv.lambda2 - 1.0) > 1e-9:
            raise RelationError(f"{name} relation is not normalized (Lambda2 = {inv.lambda2})")
    l1s = invariants(source).lambda1
    l1t = invariants(target).lambda1
    if abs(l1s ** 2 - l1t ** 2) > 1e-10:
        raise RelationError(
            f"transitivity requires equal Lambda1^2; got {l1s**2} vs {l1t**2}")
    # a relation equals its negative, so align the sign of Lambda1 first
    tgt = target.scaled(-1.0) if l1s * l1t < 0.0 else target
    m = _solve_pullback(source, tgt)
    if m is None:
        m = _solve_pullback(source, tgt.scaled(-1.0))
    if m is None:
        raise RelationError("transitivity solver found no admissible matrix "
                            "(incompatible parabolic signs)")
    # the pullback substitution corresponds to transform by the inverse matrix
    pull = MoebiusElement(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    return pull.inverse()


def reduce_to_pure_linear(rel: SemiQuadratic | WeingartenRelation) -> tuple[MoebiusElement, float]:
    """Transformation onto k2 = lambda*k1 and the resulting lambda.

    Requires Lambda2 > 0 and a non-parabolic relation (Lambda1^2 != 1
    after normalization; the parabolic case is a canal surface and is
    routed to canal_classify).  lambda < 0 for elliptic relations and
    lambda > 0 for hyperbolic ones.
    """
    sq = normalize(rel)
    inv = invariants(sq)
    if abs(inv.lambda1 ** 2 - 1.0) <= 1e-10:
        raise ParabolicRelationError(
            "Lambda1^2 = Lambda2: canal relation; classify with canal_classify")
    sign = math.copysign(1.0, inv.lambda1) if inv.lambda1 != 0.0 else 1.0
    target = SemiQuadratic(0.0, 0.5 * (inv.lambda1 + sign),
                           0.5 * (-inv.lambda1 + sign), 0.0)
    M = transitivity_solve(sq, target)
    image = transform_relation(M, sq)
    img_sq = to_semiquadratic(image)
    lam_out = -img_sq.beta / img_sq.gamma
    return M, float(lam_out)


def canal_classify(rel: SemiQuadratic | WeingartenRelation,
                   profile: "RoCProfile") -> str:
    """Classify a parabolic (Lambda1^2 = Lambda2) relation's integrated profile.

    Exactly one principal curvature must be constant: the options are
    {'round sphere', 'torus of revolution', 'plane', 'cone', 'cylinder'}.
    An inconsistent profile raises RelationError (numerical diagnostics,
    not a new surface class).
    """
    inv = invariants(rel)
    if abs(inv.lambda2 - inv.lambda1 ** 2) > PARABOLIC_TOL * max(1.0, inv.lambda1 ** 2) * 1e3:
        raise RelationError("canal classification needs parabolic invariants")
    r1 = np.asarray(profile.r1, dtype=float)
    r2 = np.asarray(profile.r2, dtype=float)

    def const(vals: np.ndarray) -> bool:
        finite = np.isfinite(vals)
        if not finite.any():
            return True
        v = vals[finite]
        return float(np.max(v) - np.min(v)) <= 1e-6 * max(1.0, float(np.max(np.abs(v))))

    r2_inf = np.all(np.isinf(r2) | (np.abs(r2) > 1e9))
    if r2_inf:
        if np.all(np.isinf(r1) | (np.abs(r1) > 1e9)):
            return "plane"
        if const(r1):
            return "cylinder"
        return "cone"
    if const(r2):
        if const(r1) and abs(float(np.mean(r1[np.isfinite(r1)]))
                             - float(np.mean(r2[np.isfinite(r2)]))) <= 1e-6 * max(
                                 1.0, abs(float(np.mean(r2[np.isfinite(r2)])))):
            return "round sphere"
        return "torus of revolution"
    if const(r1):
        # constant r1 with varying r2 contradicts Codazzi-Mainardi
        raise RelationError("profile inconsistent with every canal class "
                            "(constant r1 with varying r2): numerical issue")
    raise RelationError("profile inconsistent with every canal class: numerical issue")


def classification_report(rel: WeingartenRelation, reduction: bool = True) -> dict:
    """JSON-ready classification summary of a semi-quadratic relation."""
    sq = to_semiquadratic(rel)
    inv = invariants(sq)
    report = {
        "coefficients": list(sq.coefficients()),
        "lambda1": inv.lambda1,
        "lambda2": inv.lambda2,
        "ratio": inv.ratio,
        "class": inv.klass,
        "umbilic_k": umbilic_curvatures(sq),
    }
    try:
        report["slopes"] = umbilic_slope_formula(sq)
    except RelationError:
        report["slopes"] = None
    if reduction and inv.lambda2 > 0.0:
        try:
            M, lam = reduce_to_pure_linear(sq)
            report["reduction"] = {"matrix": M.to_json(), "lambda": lam}
        except ParabolicRelationError:
            report["reduction"] = {"routed_to": "canal_classify"}
    else:
        report["reduction"] = None
    return report
