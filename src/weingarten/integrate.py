"""Integration of the derived Codazzi-Mainardi equation for a relation.

Given r2 = F(r1), the radii of a rotationally symmetric solution obey
dr1/dtheta = (F(r1) - r1) cot(theta).  In s = ln sin(theta), where
ds/dtheta = cot(theta), this is autonomous and one-dimensional:

    dr1/ds = F(r1) - r1,

the same on both sides of the equator, as theta and pi - theta share s.  A
start at pi/2 (s = 0) is one DOP853 run down toward the poles; any other
start needs at most a run up toward the equator and a run down, which also
serves the far side beyond pi - theta0.  At an umbilic r0 = F(r0) the
fall-off r1 - r0 ~ sin^(F'(r0) - 1) is the linear rate e^((F'(r0) - 1) s),
so pole approaches to theta ~ 1e-9 (s ~ -21) stay cheap.  Output grids are
uniform in t = ln tan(theta/2), where s = -ln cosh(t).

The support function comes from quadrature over the same run, in the
integrated-by-parts form of ``geometry.support_from_r1``:
r = r1 - cos(theta) (c0 + I) and r' = sin(theta) (c0 + I), with
I = integral_{theta0}^{theta} (r2 - r1) dt and c0 = r'(theta0) / sin(theta0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp

from .geometry import (POLE_EPS, RoCProfile, as_angle, support_by_quadrature, t_of_theta,
                       theta_of_t)
from .numerics import StackedDense, cumulative_quadrature
from .expressions import EvalDomainError
from .relations import (ExplicitF, RelationError, WeingartenRelation, eval_F_float,
                        eval_F_prime, render_relation)

__all__ = [
    "StepControl",
    "IntegrationError",
    "InconsistentPoleStartError",
    "integrate_cm",
    "hopf_closed_form",
]

class IntegrationError(RuntimeError):
    """Integration could not produce any usable trajectory."""


class InconsistentPoleStartError(ValueError):
    """Start at a pole whose value is not a fixed point of F."""


@dataclass
class StepControl:
    """Adaptive DOP853 settings and output-grid resolution.

    rtol/atol are tighter than strictly required so that derived
    finite-difference residuals keep a clean error budget.
    """

    rtol: float = 1e-12
    atol: float = 1e-14
    grid_step: float = 0.002      # output spacing in t = ln tan(theta/2)
    blowup: float = 1e8           # |r1| or |F(r1)| cap, counts as a stop
    max_points: int = 40000


def _s_of_t(t):
    """s = ln sin(theta) = -ln cosh(t), symmetric in t and free of overflow."""
    a = np.abs(np.asarray(t, dtype=float))
    return math.log(2.0) - a - np.log1p(np.exp(-2.0 * a))


def _t_north(s: float) -> float:
    """t of the angle in (0, pi/2] whose ln sin is s: tan(theta/2) = sin/(1 + cos)."""
    return s - math.log1p(math.sqrt(-math.expm1(2.0 * s)))


def _runs_into_pole(rel: WeingartenRelation, r1_prev: float, r1_last: float) -> bool:
    """Whether the last step ran toward a pole of an explicit F: |F| grew over it
    and, by its log-derivative, F changes by its own size within a relative 1e-2
    of r1 (a pole of order k at distance d gives |F/F'| = d/k; a power r1^n
    gives |r1|/n).  A fractional-linear F takes r2 = inf as a point of its
    relation, the flat point where the profile leaves the finite RoC plane,
    which stays an F-domain exit."""
    if not isinstance(rel, ExplicitF):
        return False
    try:
        F_prev, F_last = eval_F_float(rel, np.array([r1_prev, r1_last]))
        slope = eval_F_prime(rel, r1_last)
    except EvalDomainError:
        return False
    return bool(abs(F_last) > abs(F_prev)
                and abs(F_last) < abs(slope) * 1e-2 * max(1.0, abs(r1_last)))


class _Rhs:
    """dr1/ds = F(r1) - r1, keeping F's latest values for the stop events.

    DOP853 evaluates the right-hand side at the end of every step, then at
    the three extra stages of its dense output, before the events look at
    the step end; F's last four values are kept, so the events reuse F
    instead of calling it again.  Outside F's domain F is nan, which makes
    DOP853 reject the step.
    """

    def __init__(self, rel: WeingartenRelation, sc: StepControl):
        self.rel, self.sc = rel, sc
        self.recent: dict[float, float] = {}
        self.domain_hits = 0

        def ev_blow(s, y):
            return sc.blowup - abs(y[0])

        def ev_flat(s, y):
            F = abs(self.F_at(y[0]))
            return sc.blowup - min(F, 2.0 * sc.blowup) if F == F else -sc.blowup

        ev_blow.terminal = ev_flat.terminal = True
        self.events = [ev_blow, ev_flat]

    def F_at(self, r1: float) -> float:
        F = self.recent.get(r1)
        if F is None:
            try:
                F = float(eval_F_float(self.rel, r1))
            except EvalDomainError:
                self.domain_hits += 1
                F = math.nan
            if len(self.recent) == 4:
                del self.recent[next(iter(self.recent))]
            self.recent[r1] = F
        return F

    def __call__(self, s, y):
        return [self.F_at(y[0]) - y[0]]

    def run(self, s0: float, s_end: float, r1_0: float):
        """One DOP853 run in s: the solution and its stop reason (None if it reached s_end)."""
        self.domain_hits = 0
        try:
            sol = solve_ivp(self, (s0, s_end), [r1_0], method="DOP853", rtol=self.sc.rtol,
                            atol=self.sc.atol, dense_output=True, events=self.events)
        except (ArithmeticError, ValueError) as exc:
            raise IntegrationError(f"right-hand side failed during integration: {exc}") from exc
        if sol.status == 0:
            return sol, None
        if sol.status == 1 and len(sol.t_events[0]):
            return sol, "blow_up"
        # |F| reached the cap, or the steps shrank at the edge of F's domain,
        # toward a pole of F, or for another reason
        if sol.status == -1 and self.domain_hits:
            return sol, "f_domain_exit"
        if len(sol.t) > 1 and _runs_into_pole(self.rel, *sol.y[0, -2:]):
            return sol, "f_pole"
        return sol, "f_domain_exit" if sol.status == 1 else "step_underflow"


def integrate_cm(rel: WeingartenRelation, theta0, r1_0: float,
                 target_interval: tuple[float, float] = (POLE_EPS, math.pi - POLE_EPS),
                 step_control: Optional[StepControl] = None,
                 support_init: Optional[tuple[float, float]] = None,
                 pole_seed_c1: float = 1.0) -> RoCProfile:
    """Integrate dr1/dtheta = (F(r1) - r1) cot(theta) through (theta0, r1_0).

    The result covers target_interval intersected with the reachable
    domain; integration stops cleanly at blow-up, an F-domain exit or a
    pole of F and records per-side stop reasons in ``profile.meta``, along
    with what the integration did: ``runs`` (DOP853 runs), ``steps`` (their
    accepted steps), ``rhs_evals`` and ``grid_capped`` (whether
    ``StepControl.max_points`` cut the output grid).  ``support_init``
    optionally fixes (r(theta0), dr/dtheta(theta0)); the default
    (r1_0, 0) is always consistent with r1(theta0) = r1_0.

    Starting at a pole requires F(r1_0) = r1_0 with slope F'(r1_0) > 1;
    the trajectory is seeded just off the pole by the linearized decay
    r1 = r0 + c1 * sin(theta)^(F'(r0) - 1).
    """
    sc = step_control or StepControl()
    lo, hi = float(target_interval[0]), float(target_interval[1])
    if not (0.0 <= lo < hi <= math.pi):
        raise ValueError("target interval must be inside [0, pi]")
    lo = max(lo, 1e-9)
    hi = min(hi, math.pi - 1e-9)

    theta0 = as_angle(theta0)
    pole_floor = min(POLE_EPS, lo)
    if theta0 < pole_floor or theta0 > math.pi - pole_floor:
        # pole start: r1_0 must be a fixed point of F with slope > 1
        F0 = float(eval_F_float(rel, r1_0))
        if not math.isfinite(F0) or abs(F0 - r1_0) > 1e-9 * max(1.0, abs(r1_0)):
            raise InconsistentPoleStartError(
                f"pole start needs F(r1_0) = r1_0; got F({r1_0}) = {F0}")
        mu = eval_F_prime(rel, r1_0)
        if mu <= 1.0 + 1e-9:
            raise InconsistentPoleStartError(
                f"pole start needs umbilic slope F'(r0) > 1; got {mu}")
        north = theta0 < math.pi / 2.0
        # launch where the seed amplitude clears the integrator's noise floor
        # (absolute step errors ~atol would otherwise contaminate the seed)
        seed_floor = max(1e9 * sc.atol, 1e-5)
        launch = max(POLE_EPS, (seed_floor / max(abs(pole_seed_c1), 1e-12))
                     ** (1.0 / (mu - 1.0)))
        launch = min(launch, 0.1)
        theta0 = launch if north else math.pi - launch
        r1_0 = r1_0 + pole_seed_c1 * math.sin(theta0) ** (mu - 1.0)
    r1_0 = float(r1_0)

    t0 = float(t_of_theta(theta0))
    t_lo = float(t_of_theta(lo))
    t_hi = float(t_of_theta(hi))
    if not (t_lo - 1e-12 <= t0 <= t_hi + 1e-12):
        raise ValueError("theta0 must lie inside the target interval")

    u_init = 0.0
    if support_init is not None:
        r_init, u_init = float(support_init[0]), float(support_init[1])
        implied = u_init / math.tan(theta0) + r_init
        if abs(implied - r1_0) > 1e-8 * max(1.0, abs(r1_0)):
            raise ValueError("support_init inconsistent with r1_0 at theta0")

    # a nan or infinite right-hand side at the start point would stall the first step
    try:
        F0 = float(eval_F_float(rel, r1_0))
    except EvalDomainError as exc:
        raise IntegrationError(f"F is not defined at r1_0 = {r1_0!r}: {exc}") from exc
    if not math.isfinite(F0):
        raise IntegrationError(f"r1_0 = {r1_0!r} is a pole of F (F(r1_0) = {F0})")

    # Each side's path in s rises from s0 to its top (0 if it crosses the
    # equator) and then falls to the s of its end; the up run serves every
    # rise and the down run every fall below s0.
    s0 = float(np.log(np.sin(theta0)))
    ends = {side: t for side, t, open_ in (("left", t_lo, t_lo < t0 - 1e-15),
                                           ("right", t_hi, t_hi > t0 + 1e-15)) if open_}
    s_ends = {side: float(_s_of_t(t)) for side, t in ends.items()}
    need = {"up": {side: 0.0 if t * t0 <= 0.0 else max(s0, s_ends[side])
                   for side, t in ends.items()},
            "down": {side: min(s0, s_ends[side]) for side in ends}}
    stop = {"left": "completed", "right": "completed"}
    reached = {"left": ends.get("left", t0), "right": ends.get("right", t0)}
    rhs = _Rhs(rel, sc)
    runs, stats = {}, {"runs": 0, "steps": 0, "rhs_evals": 0}
    for key, pick in (("up", max), ("down", min)):
        # a side stopped on the way up never reaches its fall
        goals = {side: g for side, g in need[key].items() if stop[side] == "completed"}
        goal = pick(goals.values(), default=s0)
        if goal == s0:
            continue
        sol, why = rhs.run(s0, goal, r1_0)
        stats["runs"] += 1
        stats["steps"] += len(sol.t) - 1
        stats["rhs_evals"] += sol.nfev
        s_reach = float(sol.t[-1])
        runs[key] = sol
        for side, g in goals.items():
            if why is not None and pick(g, s_reach) != s_reach:
                # a rise stops on theta0's hemisphere, a fall on its end's
                stop[side] = why
                reached[side] = math.copysign(_t_north(s_reach), t0 if key == "up" else ends[side])

    t_min, t_max = reached["left"], reached["right"]
    if t_max - t_min <= 0.0:
        raise IntegrationError("no reachable domain around theta0")

    # both runs' segments stacked in increasing s: one dense evaluator for r1(s)
    down, up = runs.get("down"), runs.get("up")
    s_knots = np.concatenate([down.t[::-1] if down else [s0], up.t[1:] if up else []])
    segments = (down.sol.interpolants[::-1] if down else []) + (up.sol.interpolants if up else [])
    dense = StackedDense(OdeSolution(s_knots, segments)) if segments else None

    def r1_of_s(s: np.ndarray) -> np.ndarray:
        """r1 at an array of s values, clipped to the reached domain."""
        if dense is None:
            return np.full(np.shape(s), r1_0)
        return dense(np.clip(s, s_knots[0], s_knots[-1]))[0]

    n = max(int(math.ceil((t_max - t_min) / sc.grid_step)) + 1, 9)
    grid_capped = n > sc.max_points
    n = min(n, sc.max_points)
    tgrid = np.linspace(t_min, t_max, n)
    theta_grid = theta_of_t(tgrid)
    r1 = r1_of_s(_s_of_t(tgrid))
    r2 = eval_F_float(rel, r1)
    theta_lo, theta_hi = float(theta_grid[0]), float(theta_grid[-1])

    def evaluator(theta):
        r1v = r1_of_s(np.log(np.sin(np.clip(np.asarray(theta, dtype=float), theta_lo, theta_hi))))
        return np.array([r1v, eval_F_float(rel, r1v)])

    meta = {
        "relation": render_relation(rel),
        "theta0": theta0,
        "r1_0": r1_0,
        "stop_reason": ",".join(f"{side}:{why}" for side, why in stop.items()
                                if why != "completed") or "completed",
        "stop_left": stop["left"],
        "stop_right": stop["right"],
        "t_range": (t_min, t_max),
        "rtol": sc.rtol,
        "atol": sc.atol,
        "value_noise": 100.0 * sc.atol,
        **stats,
        "grid_capped": grid_capped,
    }

    support = support_by_quadrature(theta_grid, r1, r2, theta0, u_init / math.sin(theta0),
                                    evaluator, meta={"relation": meta["relation"]})
    return RoCProfile(theta_grid, r1, r2, evaluator=evaluator, relation=rel, support=support,
                      meta=meta)


def hopf_closed_form(lam: float, C: float, A0: float, theta):
    """Closed-form linear-Hopf solution r1 and its support at ``theta``.

    r1(theta) = (C + A0 * sin(theta)^(lam-1)) / (1 - lam);  the support is
    the particular solution anchored by r(pi/3) = r1(pi/3), computed from
    the regular integrand (r2 - r1)/sin(u) = -A0*sin(u)^(lam-2).
    """
    if abs(lam - 1.0) <= 1e-12:
        raise RelationError("lam = 1 linear Hopf family is degenerate; no closed form")
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    r1 = (C + A0 * np.sin(theta_arr) ** (lam - 1.0)) / (1.0 - lam)

    anchor = math.pi / 3.0

    def g(u: float) -> float:
        return -A0 * math.sin(u) ** (lam - 2.0)

    # one cumulative pass over the sorted angles: short panels keep the
    # quadrature accurate where sin^(lam-2) loses smoothness at the poles
    nodes, where = np.unique(theta_arr, return_inverse=True)
    integrals = cumulative_quadrature(g, nodes, x0=anchor)[where]
    r = r1 - np.cos(theta_arr) * integrals
    if np.ndim(theta) == 0:
        return float(r1[0]), float(r[0])
    return r1, r
