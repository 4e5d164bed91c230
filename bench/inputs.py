"""Seeded input generator for the three benchmark workloads.

Everything the program receives (relation text, matrices, start values,
per-call seeds) is drawn here from ``numpy.random.default_rng(seed)``.
Drawn numbers are rounded to a few decimals so that the relation text is
short and parses back to exactly the numbers the checks use.

The draws of one run form a Latin hypercube: among ``count`` draws, each
parameter takes one value in each of ``count`` equal slices of its range.
Flow cost depends on the parameters (lam, eps, the interval), so a run
that covers every range evenly measures about the same mix of costs
whatever its seed; independent draws would move the run's median flow
time with the luck of the draw.

* ``surface_mesh``: sphere-like linear-Hopf members r2 = lam*r1 + C with
  lam in [2, 4], umbilic radius r0 = C/(1-lam) in [1, 2] and start value
  r1(pi/2) = r0 + a, a in [0.2, 0.5]*r0.  r1 = r0 + a*sin^(lam-1) closes
  at both poles.
* ``transform``: the explicit relation r2 = lam*r1 + C + eps*sin(r1 - r0)
  (same ranges, eps in [0.02, 0.1]) and a determinant-one matrix with
  a in [0.8, 1.25], b in [-0.3, 0.3], c in [-0.3, -0.05], d = (1+bc)/a.
  The matrix's pole -d/c is redrawn until it stays clear of every radius
  the member takes, as the acceptance suite's round trip does: a profile
  crossing the pole maps to flat points, which is another regime.
* ``variational``: two L0 certifications (r2 = lam*r1 and
  r2 = lam*r1 + eps*sin(r1), lam in [1.5, 3]) on intervals inside
  (0, pi/2), and one hopf-l1 certification of a surface_mesh member over
  [0.3, 2.8].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2.0
POLE_CLEARANCE = 0.25   # relative gap between the matrix pole and the radii


class Stratified:
    """Latin-hypercube uniforms: value j of draw k lies in slice perm_j[k] of its range."""

    def __init__(self, rng: np.random.Generator, count: int):
        self.rng = rng
        self.count = count
        self.perms: list[np.ndarray] = []
        self.draw = 0
        self.slot = 0

    def start_draw(self, k: int) -> None:
        self.draw, self.slot = k, 0

    def uniform(self, lo: float, hi: float, digits: int = 4) -> float:
        if self.slot == len(self.perms):
            self.perms.append(self.rng.permutation(self.count))
        u = (self.perms[self.slot][self.draw] + self.rng.uniform()) / self.count
        self.slot += 1
        return round(lo + (hi - lo) * float(u), digits)

    def seed(self) -> int:
        return int(self.rng.integers(0, 2 ** 31))


@dataclass(frozen=True)
class HopfMember:
    """r2 = lam*r1 + C through r1(pi/2) = r1_start."""

    lam: float
    C: float
    r1_start: float

    @property
    def r0(self) -> float:
        return self.C / (1.0 - self.lam)

    @property
    def amplitude(self) -> float:
        """a in r1 = r0 + a*sin^(lam-1)."""
        return self.r1_start - self.r0

    @property
    def relation(self) -> str:
        return f"r2 = {self.lam!r}*r1 + {self.C!r}"


@dataclass(frozen=True)
class TransformInput:
    member: HopfMember
    eps: float
    matrix: tuple[float, float, float, float]

    @property
    def relation(self) -> str:
        m = self.member
        return f"r2 = {m.lam!r}*r1 + {m.C!r} + {self.eps!r}*sin(r1 - {m.r0!r})"


@dataclass(frozen=True)
class VariationalCall:
    relation: str
    lagrangian: str
    theta0: float
    r1: float
    theta1: float
    theta2: float
    seed: int

    def argv(self) -> list[str]:
        return ["variational", "--relation", self.relation,
                "--lagrangian", self.lagrangian,
                "--theta0", repr(self.theta0), "--r1", repr(self.r1),
                "--theta1", repr(self.theta1), "--theta2", repr(self.theta2),
                "--seed", str(self.seed)]


def draw_hopf_member(s: Stratified) -> HopfMember:
    lam = s.uniform(2.0, 4.0)
    r0 = s.uniform(1.0, 2.0)
    C = round(r0 * (1.0 - lam), 8)
    a = round(s.uniform(0.2, 0.5) * r0, 6)
    return HopfMember(lam, C, round(C / (1.0 - lam) + a, 8))


def _radius_range(member: HopfMember, eps: float) -> tuple[float, float]:
    """Bounds of r1 and r2 along the member (r1 in [r0, r0 + a])."""
    r0, a = member.r0, member.amplitude
    return r0 - eps, r0 + member.lam * a + eps


def draw_transform(s: Stratified) -> TransformInput:
    member = draw_hopf_member(s)
    eps = s.uniform(0.02, 0.1)
    lo, hi = _radius_range(member, eps)
    while True:
        a = s.uniform(0.8, 1.25)
        b = s.uniform(-0.3, 0.3)
        c = s.uniform(-0.3, -0.05)
        d = (1.0 + b * c) / a
        pole = -d / c
        if pole > hi * (1.0 + POLE_CLEARANCE) or pole < lo * (1.0 - POLE_CLEARANCE):
            return TransformInput(member, eps, (a, b, c, d))


def _l0_call(s: Stratified, explicit: bool) -> VariationalCall:
    lam = s.uniform(1.5, 3.0)
    if explicit:
        relation = f"r2 = {lam!r}*r1 + {s.uniform(0.02, 0.1)!r}*sin(r1)"
    else:
        relation = f"r2 = {lam!r}*r1"
    return VariationalCall(relation, "L0", 0.75, s.uniform(0.5, 1.0),
                           s.uniform(0.25, 0.4), s.uniform(1.0, 1.3),
                           s.seed())


def draw_variational(s: Stratified) -> tuple[VariationalCall, ...]:
    pure = _l0_call(s, explicit=False)
    explicit = _l0_call(s, explicit=True)
    member = draw_hopf_member(s)
    hopf = VariationalCall(member.relation, "hopf-l1", HALF_PI, member.r1_start,
                           0.3, 2.8, s.seed())
    return (pure, explicit, hopf)


DRAWS = {
    "surface_mesh": draw_hopf_member,
    "transform": draw_transform,
    "variational": draw_variational,
}


def make_inputs(workload: str, seed: int, count: int) -> list:
    """``count`` stratified draws for ``workload``; same seed, same list."""
    s = Stratified(np.random.default_rng([seed, list(DRAWS).index(workload)]), count)
    draws = []
    for k in range(count):
        s.start_draw(k)
        draws.append(DRAWS[workload](s))
    return draws
