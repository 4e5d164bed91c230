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


def _normal_form(sq: SemiQuadratic, sign: float) -> MoebiusElement:
    """The element taking a normalized ``sq`` onto k2 = lambda*k1 with beta + gamma = sign.

    The image alpha and delta are Q(a, b) and Q(c, d) for the binary form
    Q(x, y) = alpha x^2 - (beta+gamma) x y + delta y^2, whose matrix S has
    det S = -Lambda2/4 < 0.  So the rows of the element are the two null
    directions of S: with S's eigenpairs (w0 < 0, e0) and (w1 > 0, e1) they
    are p +- q for p = sqrt(-w0) e1, q = sqrt(w1) e0, of equal length.
    Then det = +-1 and the image beta + gamma = -2 (p+q)^T S (p-q) = -1;
    negating one row gives +1 and swapping the rows fixes det = +1.
    """
    al, be, ga, de = sq.coefficients()
    h = -0.5 * (be + ga)
    w, e = np.linalg.eigh(np.array([[al, h], [h, de]]))
    p, q = math.sqrt(-w[0]) * e[:, 1], math.sqrt(w[1]) * e[:, 0]
    rows = (p + q, sign * (q - p))
    if np.linalg.det(np.array(rows)) < 0.0:
        rows = rows[::-1]
    return MoebiusElement(rows[0][0], rows[0][1], rows[1][0], rows[1][1])


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
    # a relation equals its negative, so align the sign of Lambda1 first;
    # then both relations have a normal form k2 = lambda*k1 with beta + gamma = 1
    tgt = target.scaled(-1.0) if l1s * l1t < 0.0 else target
    return _normal_form(tgt, 1.0).inverse() @ _normal_form(source, 1.0)


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
    M = _normal_form(sq, math.copysign(1.0, inv.lambda1) if inv.lambda1 != 0.0 else 1.0)
    img_sq = to_semiquadratic(transform_relation(M, sq))
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
