"""Projectively extended reals and fractional-linear evaluation.

Radii of curvature live on the one-point compactification of the real
line: a single unsigned infinity closes the line into a circle, so flat
points (r2 = inf) and planes (r1 = r2 = inf) are ordinary values.  All
arithmetic with infinity follows the fractional-linear convention
(a*inf + b)/(c*inf + d) = a/c.

Array code represents the point at infinity as ``np.inf`` and returns no
``-np.inf``; an ExtReal built from an infinite float is ``INF``.
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

    ``ExtReal(x)`` wraps a float; ``ExtReal.infinity()`` (or the module
    constant ``INF``) is the single point at infinity, and so is
    ``ExtReal(x)`` for an infinite x.
    """

    value: float
    infinite: bool = False

    def __post_init__(self):
        if np.isinf(self.value):
            object.__setattr__(self, "value", 0.0)
            object.__setattr__(self, "infinite", True)

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
    """Evaluate (a*x + b)/(c*x + d) projectively at one point.

    The conventions of :func:`frac_linear_array`, except that the genuinely
    undefined case (numerator and denominator both zero, or a singular
    matrix at infinity) raises ProjectiveError.
    """
    x = float(x)
    if (a == c == 0.0) if np.isinf(x) else (a * x + b == 0.0 and c * x + d == 0.0):
        raise ProjectiveError("0/0 in fractional-linear map")
    out = float(frac_linear_array(a, b, c, d, x))
    return INF if np.isinf(out) else ExtReal(out)


def frac_linear_array(a: float, b: float, c: float, d: float, x: np.ndarray) -> np.ndarray:
    """Vectorized fractional-linear map; np.inf is the point at infinity.

    x = inf maps to a/c (or inf when c = 0); a vanishing denominator maps
    to inf, 0/0 included.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        den = c * x + d
        out = np.where(den == 0.0, np.inf, (a * x + b) / den)
    out = np.where(np.isinf(x), a / c if c != 0.0 else np.inf, out)
    # single unsigned infinity
    return np.where(np.isinf(out), np.inf, out)


def proj_reciprocal(x: np.ndarray) -> np.ndarray:
    """Pointwise projective reciprocal: 1/0 = inf, 1/inf = 0."""
    return frac_linear_array(0.0, 1.0, 1.0, 0.0, x)
