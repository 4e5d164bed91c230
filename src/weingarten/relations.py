"""Weingarten relations: tagged variants, parsing, and evaluation as r2 = F(r1).

A relation ties the two radii of curvature of a rotationally symmetric
surface.  The canonical families:

* ``LinearHopf(lam, C)``      -- r2 = lam*r1 + C
* ``PureKLinear(lam)``        -- k2 = lam*k1   (r2 = r1/lam)
* ``SemiQuadratic(a,b,g,d)``  -- a*k1*k2 + b*k1 + g*k2 + d = 0
* ``CubicRoC(gamma)``         -- r2 = gamma^2 * r1^3
* ``ExplicitF(tree)``         -- r2 = f(r1) for a parsed expression tree

The semi-quadratic family is stored in curvature coefficients; its
radii-of-curvature form is the fractional-linear F(u) = -(g*u + a)/(d*u + b).

``eval_F_float`` is the one evaluation of F, on floats or arrays, with
np.inf as the only infinity: poles and overflow give np.inf.  An explicit
relation compiles its tree and its derivative once (cached on the
relation); leaving their domain raises EvalDomainError.  ``eval_F`` and
``eval_F_prime`` are thin wrappers with the same conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

import numpy as np

from . import expressions as ex
from .expressions import (
    BinOp,
    Const,
    EvalDomainError,
    Expr,
    Var,
)
from .projective import INF, ExtReal, frac_linear_array

__all__ = [
    "LinearHopf",
    "PureKLinear",
    "SemiQuadratic",
    "CubicRoC",
    "ExplicitF",
    "WeingartenRelation",
    "RelationError",
    "parse_relation",
    "render_relation",
    "eval_F",
    "eval_F_prime",
    "fixed_points",
    "to_semiquadratic",
]


class RelationError(ValueError):
    """Malformed or unusable relation (ambiguous, degenerate, wrong variant)."""


@dataclass(frozen=True)
class LinearHopf:
    lam: float
    C: float

    @property
    def degenerate(self) -> bool:
        """lam = 1 has no one-parameter closed form (the ODE loses its forcing)."""
        return abs(self.lam - 1.0) <= 1e-12


@dataclass(frozen=True)
class PureKLinear:
    lam: float


@dataclass(frozen=True)
class SemiQuadratic:
    """alpha*k1*k2 + beta*k1 + gamma*k2 + delta = 0 in curvature form."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        if self.alpha == self.beta == self.gamma == self.delta == 0.0:
            raise RelationError("semi-quadratic coefficients must not all vanish")

    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    def scaled(self, factor: float) -> "SemiQuadratic":
        return SemiQuadratic(self.alpha * factor, self.beta * factor,
                             self.gamma * factor, self.delta * factor)

    @property
    def lambda2(self) -> float:
        """Discriminant invariant Lambda2 = (beta + gamma)^2 - 4*alpha*delta."""
        return (self.beta + self.gamma) ** 2 - 4.0 * self.alpha * self.delta

    def normalized(self) -> "SemiQuadratic":
        """Scaled to Lambda2 = 1 when Lambda2 > 0; returned unchanged otherwise."""
        lam2 = self.lambda2
        return self.scaled(1.0 / math.sqrt(lam2)) if lam2 > 0.0 else self


@dataclass(frozen=True)
class CubicRoC:
    """r2 = gamma^2 * r1^3 (satisfied by quadric surfaces of revolution)."""

    gamma: float


@dataclass(frozen=True)
class ExplicitF:
    """r2 = f(r1) for an arbitrary expression tree in r1."""

    expr: Expr

    @cached_property
    def compiled(self):
        """The tree as one numpy function of r1 (``expressions.compile_expr``)."""
        return ex.compile_expr(self.expr)

    @cached_property
    def compiled_prime(self):
        """The derivative tree d/dr1, compiled the same way."""
        return ex.compile_expr(ex.diff_expr(self.expr, "r1"))


WeingartenRelation = Union[LinearHopf, PureKLinear, SemiQuadratic, CubicRoC, ExplicitF]


# ---------------------------------------------------------------------------
# parsing

def _detect_from_k_poly(poly: dict[tuple[int, int], Fraction]) -> WeingartenRelation | None:
    """Match a polynomial in (k1, k2) against the semi-quadratic family."""
    if not poly:
        return None
    if any(e1 > 1 or e2 > 1 for (e1, e2) in poly):
        return None
    alpha = float(poly.get((1, 1), 0))
    beta = float(poly.get((1, 0), 0))
    gamma = float(poly.get((0, 1), 0))
    delta = float(poly.get((0, 0), 0))
    if alpha == beta == gamma == delta == 0.0:
        return None
    if alpha == 0.0 and delta == 0.0 and beta != 0.0 and gamma != 0.0:
        # beta*k1 + gamma*k2 = 0  ->  k2 = -(beta/gamma) k1
        return PureKLinear(-beta / gamma)
    return SemiQuadratic(alpha, beta, gamma, delta)


def _detect_from_r_poly(poly: dict[tuple[int, int], Fraction]) -> WeingartenRelation | None:
    """Match a polynomial in (r1, r2) against linear-Hopf / pure-linear / cubic."""
    if not poly:
        return None
    deg_r2 = max((e2 for (_, e2) in poly), default=0)
    if deg_r2 != 1:
        return None
    a_coeff = poly.get((0, 1), Fraction(0))
    if any(e2 == 1 and e1 > 0 for (e1, e2) in poly):
        return None  # r2 multiplied by r1 terms: not in a named r-family
    if a_coeff == 0:
        return None
    # A*r2 + sum_j B_j r1^j + D = 0
    rest = {e1: c for (e1, e2), c in poly.items() if e2 == 0}
    degs = set(rest)
    if degs <= {0, 1}:
        lam = -rest.get(1, Fraction(0)) / a_coeff
        C = -rest.get(0, Fraction(0)) / a_coeff
        if C == 0 and lam != 0:
            # r2 = lam*r1 is k2 = (1/lam) k1
            return PureKLinear(float(1 / lam))
        return LinearHopf(float(lam), float(C))
    if degs == {3}:
        g2 = -rest[3] / a_coeff
        if g2 > 0:
            return CubicRoC(float(math.sqrt(g2)))
    return None


def parse_relation(text: str) -> WeingartenRelation:
    """Parse relation text into its canonical variant.

    H and K abbreviate (k1+k2)/2 and k1*k2.  Falls back to ExplicitF when
    the equation reads ``r2 = f(r1)`` (or ``f(r1) = r2``) outside the
    named families; anything else is rejected as ambiguous.
    """
    lhs, rhs = ex.parse_equation(text)
    half = Const(Fraction(1, 2))
    hk = {
        "H": BinOp("*", half, BinOp("+", Var("k1"), Var("k2"))),
        "K": BinOp("*", Var("k1"), Var("k2")),
    }
    lhs = ex.substitute(lhs, hk)
    rhs = ex.substitute(rhs, hk)
    diff = BinOp("-", lhs, rhs)
    variables = ex.expr_variables(diff)

    if variables <= {"k1", "k2"}:
        try:
            poly = ex.as_polynomial(diff, ("k1", "k2"))
        except ex.NotPolynomial:
            poly = None
        if poly is not None:
            rel = _detect_from_k_poly(poly)
            if rel is not None:
                return rel
        raise RelationError(
            "curvature-form relation is not semi-quadratic; "
            "write it as r2 = f(r1) to use an explicit relation")

    if variables <= {"r1", "r2"}:
        try:
            poly = ex.as_polynomial(diff, ("r1", "r2"))
        except ex.NotPolynomial:
            poly = None
        if poly is not None:
            rel = _detect_from_r_poly(poly)
            if rel is not None:
                return rel
        # explicit form: exactly one side is the bare variable r2
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if isinstance(a, Var) and a.name == "r2" and "r2" not in ex.expr_variables(b):
                return ExplicitF(b)
        raise RelationError(
            "relation is neither solvable for r2 nor in k-coefficient form")

    raise RelationError("relation mixes radii and curvature variables")


def render_relation(rel: WeingartenRelation) -> str:
    """Canonical text form; parse_relation(render_relation(rel)) round-trips."""
    def num(x: float) -> str:
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return repr(x)

    def signed(x: float) -> str:
        return f"+ {num(x)}" if x >= 0 else f"- {num(-x)}"

    if isinstance(rel, LinearHopf):
        return f"r2 = {num(rel.lam)}*r1 {signed(rel.C)}"
    if isinstance(rel, PureKLinear):
        return f"k2 = {num(rel.lam)}*k1"
    if isinstance(rel, SemiQuadratic):
        a, b, g, d = rel.coefficients()
        return (f"{num(a)}*k1*k2 {signed(b)}*k1 {signed(g)}*k2 {signed(d)} = 0")
    if isinstance(rel, CubicRoC):
        return f"r2 = {num(rel.gamma ** 2)}*r1^3"
    if isinstance(rel, ExplicitF):
        return f"r2 = {ex.render_expr(rel.expr)}"
    raise TypeError(f"not a relation: {rel!r}")


# ---------------------------------------------------------------------------
# evaluation as r2 = F(r1)

def _any(mask) -> bool:
    """mask.any() for a bool array, without its cost on a numpy bool scalar."""
    return bool(mask.any() if mask.ndim else mask)


def eval_F_float(rel: WeingartenRelation, u):
    """r2 = F(r1) on a float or an array of floats; the one F implementation.

    np.inf is the point at infinity: a pole of F and an overflow give
    np.inf, never -np.inf.  SemiQuadratic relations are fractional-linear,
    F(u) = -(gamma*u + alpha)/(delta*u + beta), and give np.inf where that
    reads 0/0.  An explicit relation raises EvalDomainError at infinity and
    where its tree leaves its domain.  A float comes back as a float.
    """
    u = np.asarray(u, dtype=float)[()]  # one point becomes a numpy scalar: the fast path
    with np.errstate(all="ignore"):
        if isinstance(rel, LinearHopf):
            # lam = 0 is the constant C, at infinity too
            out = rel.lam * u + rel.C if rel.lam != 0.0 else np.full(u.shape, float(rel.C))
        elif isinstance(rel, PureKLinear):
            # k2 = 0: 0 stays 0 and every other radius goes to infinity
            out = u / rel.lam if rel.lam != 0.0 else np.where(u == 0.0, 0.0, np.inf)
        elif isinstance(rel, CubicRoC):
            out = np.where(np.isinf(u), np.inf, rel.gamma ** 2 * np.power(u, 3))
        elif isinstance(rel, SemiQuadratic):
            a, b, g, d = rel.coefficients()
            out = frac_linear_array(-g, -a, d, b, u)
        elif isinstance(rel, ExplicitF):
            if _any(np.isinf(u)):
                raise EvalDomainError("explicit relation not defined at infinity")
            out, pole, outside = rel.compiled(u)
            if u.size and _any(outside & ~pole):
                raise EvalDomainError("explicit relation left its domain")
            if _any(pole):
                out = np.where(pole, np.inf, out)
        else:
            raise TypeError(f"not a relation: {rel!r}")
    if u.ndim == 0:
        out = float(out)
        return np.inf if out == -np.inf else out
    return np.where(out == -np.inf, np.inf, np.broadcast_to(out, u.shape))


def eval_F(rel: WeingartenRelation, r1: ExtReal | float) -> ExtReal:
    """Scalar F on the extended line: eval_F_float with INF for np.inf."""
    out = eval_F_float(rel, float(r1))
    return INF if out == np.inf else ExtReal(out)


def _F_prime_or_nan(rel: WeingartenRelation, u) -> np.ndarray:
    """dF/dr1 on a float or an array, nan where it is infinite or undefined."""
    u = np.asarray(u, dtype=float)[()]
    with np.errstate(all="ignore"):
        if isinstance(rel, LinearHopf):
            out = np.full(u.shape, float(rel.lam))
        elif isinstance(rel, PureKLinear):
            out = np.full(u.shape, 1.0 / rel.lam if rel.lam != 0.0 else np.nan)
        elif isinstance(rel, CubicRoC):
            out = 3.0 * rel.gamma ** 2 * u ** 2
        elif isinstance(rel, SemiQuadratic):
            a, b, g, d = rel.coefficients()
            # F = -(g*u + a)/(d*u + b); infinite at the vertical asymptote
            out = -(g * b - d * a) / (d * u + b) ** 2
        elif isinstance(rel, ExplicitF):
            # F' is undefined where F is, too (the tree of d ln(a) is 1/a)
            out, pole, outside = rel.compiled_prime(u)
            outside = outside | rel.compiled(u)[2]
            out = np.where(pole | outside | np.isinf(u), np.nan, out)
        else:
            raise TypeError(f"not a relation: {rel!r}")
    return np.where(np.isfinite(out), out, np.nan)


def eval_F_prime(rel: WeingartenRelation, r1):
    """dF/dr1 on a float or an array, by the analytic rule of each variant.

    Raises EvalDomainError if F' is infinite or undefined at any point.
    """
    out = _F_prime_or_nan(rel, r1)
    if _any(np.isnan(out)):
        raise EvalDomainError("F' is infinite or undefined there")
    return float(out) if out.ndim == 0 else out


def to_semiquadratic(rel: WeingartenRelation) -> SemiQuadratic:
    """Curvature-coefficient form of any semi-quadratic-representable relation."""
    if isinstance(rel, SemiQuadratic):
        return rel
    if isinstance(rel, LinearHopf):
        # r2 = lam r1 + C  <=>  C k1 k2 - k1 + lam k2 = 0
        return SemiQuadratic(rel.C, -1.0, rel.lam, 0.0)
    if isinstance(rel, PureKLinear):
        return SemiQuadratic(0.0, rel.lam, -1.0, 0.0)
    raise RelationError(f"{type(rel).__name__} is not semi-quadratic")


def fixed_points(rel: WeingartenRelation, bracket: tuple[float, float],
                 subdivisions: int = 512, tol: float = 1e-12) -> list[float]:
    """All umbilic radii F(r0) = r0 in the bracket, certified by sign change.

    Sign-scan on ``subdivisions`` panels followed by bisection; tangential
    touches without a sign change are not reported.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must be a nondegenerate finite interval")

    def g(u: float) -> float:
        return float(eval_F_float(rel, u)) - u

    xs = np.linspace(lo, hi, subdivisions + 1)
    vals = eval_F_float(rel, xs) - xs
    sign = np.sign(vals)
    finite = np.isfinite(vals[:-1]) & np.isfinite(vals[1:])
    roots: list[float] = []
    for i in np.flatnonzero(finite & ((sign[:-1] == 0.0) | (sign[:-1] * sign[1:] < 0.0))):
        if vals[i] == 0.0:
            if not roots or abs(xs[i] - roots[-1]) > tol * 10:
                roots.append(float(xs[i]))
            continue
        a, b = xs[i], xs[i + 1]
        fa = float(vals[i])
        while b - a > tol:
            m = 0.5 * (a + b)
            fm = g(m)
            if fm == 0.0:
                a = b = m
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        root = 0.5 * (a + b)
        # a sign change across a vertical asymptote of F is not a root
        if abs(g(root)) > 1e-6 * max(1.0, abs(root)):
            continue
        if not roots or abs(root - roots[-1]) > tol * 10:
            roots.append(float(root))
    if vals[-1] == 0.0 and (not roots or abs(xs[-1] - roots[-1]) > tol * 10):
        roots.append(float(xs[-1]))
    return roots
