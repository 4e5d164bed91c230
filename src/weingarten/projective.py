"""Projectively extended reals and fractional-linear evaluation.

Radii of curvature live on the one-point compactification of the real
line: a single unsigned infinity closes the line into a circle, so flat
points (r2 = inf) and planes (r1 = r2 = inf) are ordinary values.  All
arithmetic with infinity follows the fractional-linear convention
(a*inf + b)/(c*inf + d) = a/c.

Array code represents the point at infinity as ``np.inf``; negative
infinities are canonicalized to ``np.inf`` on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ExtReal", "INF", "frac_linear", "frac_linear_array", "proj_reciprocal"]


class ProjectiveError(ArithmeticError):
    """Raised for genuinely undefined projective expressions (0/0)."""


@dataclass(frozen=True)
class ExtReal:
    """A point of the projectively extended real line.

    ``ExtReal(x)`` wraps a finite float; ``ExtReal.infinity()`` (or the
    module constant ``INF``) is the single point at infinity.
    """

    value: float
    infinite: bool = False

    @staticmethod
    def infinity() -> "ExtReal":
        return ExtReal(0.0, True)

    @property
    def is_inf(self) -> bool:
        return self.infinite

    def reciprocal(self) -> "ExtReal":
        if self.infinite:
            return ExtReal(0.0)
        if self.value == 0.0:
            return ExtReal.infinity()
        return ExtReal(1.0 / self.value)

    def __float__(self) -> float:
        return float(np.inf) if self.infinite else float(self.value)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtReal):
            if self.infinite or other.infinite:
                return self.infinite and other.infinite
            return self.value == other.value
        if isinstance(other, (int, float)):
            if self.infinite:
                return np.isinf(other)
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(np.inf) if self.infinite else hash(self.value)

    def __repr__(self) -> str:
        return "ExtReal(inf)" if self.infinite else f"ExtReal({self.value!r})"


INF = ExtReal.infinity()


def frac_linear(a: float, b: float, c: float, d: float, x: ExtReal | float) -> ExtReal:
    """Evaluate (a*x + b)/(c*x + d) projectively.

    x = inf maps to a/c (or inf when c = 0 and a != 0); a vanishing
    denominator maps to inf.  The genuinely undefined case (both
    numerator and denominator zero, or a singular matrix at infinity)
    raises ProjectiveError.
    """
    if isinstance(x, ExtReal):
        if x.is_inf:
            if c != 0.0:
                return ExtReal(a / c)
            if a != 0.0:
                return ExtReal.infinity()
            raise ProjectiveError("0/0 at infinity in fractional-linear map")
        x = x.value
    elif np.isinf(x):
        if c != 0.0:
            return ExtReal(a / c)
        if a != 0.0:
            return ExtReal.infinity()
        raise ProjectiveError("0/0 at infinity in fractional-linear map")
    num = a * x + b
    den = c * x + d
    if den == 0.0:
        if num == 0.0:
            raise ProjectiveError("0/0 in fractional-linear map")
        return ExtReal.infinity()
    return ExtReal(num / den)


def frac_linear_array(a: float, b: float, c: float, d: float, x: np.ndarray) -> np.ndarray:
    """Vectorized fractional-linear map; np.inf is the point at infinity."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    inf_mask = np.isinf(x)
    fin = ~inf_mask
    num = a * x[fin] + b
    den = c * x[fin] + d
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = num / den
    vals[den == 0.0] = np.inf
    out[fin] = vals
    if inf_mask.any():
        out[inf_mask] = a / c if c != 0.0 else np.inf
    # single unsigned infinity
    out[np.isinf(out)] = np.inf
    return out


def proj_reciprocal(x: np.ndarray) -> np.ndarray:
    """Pointwise projective reciprocal: 1/0 = inf, 1/inf = 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    inf_mask = np.isinf(x)
    zero_mask = x == 0.0
    rest = ~(inf_mask | zero_mask)
    out[inf_mask] = 0.0
    out[zero_mask] = np.inf
    out[rest] = 1.0 / x[rest]
    return out
