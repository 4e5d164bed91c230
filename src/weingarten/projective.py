"""Fractional-linear evaluation on the projectively extended real line.

Radii of curvature live on the one-point compactification of the real
line: a single unsigned infinity closes the line into a circle, so flat
points (r2 = inf) and planes (r1 = r2 = inf) are ordinary values.  All
arithmetic with infinity follows the fractional-linear convention
(a*inf + b)/(c*inf + d) = a/c.

The point at infinity is ``np.inf``, in arrays and scalars alike; no
function here returns ``-np.inf``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["frac_linear_array"]


def frac_linear_array(a: float, b: float, c: float, d: float, x):
    """Fractional-linear map (a*x + b)/(c*x + d); np.inf is the point at infinity.

    x = inf maps to a/c (or inf when c = 0); a vanishing denominator maps
    to inf, 0/0 included.  An array gives an array and a float gives a
    float (np.float64).
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        den = c * x + d
        out = np.where(den == 0.0, np.inf, (a * x + b) / den)
    out = np.where(np.isinf(x), a / c if c != 0.0 else np.inf, out)
    # single unsigned infinity
    return np.where(np.isinf(out), np.inf, out)[()]
