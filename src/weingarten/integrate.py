"""Integration of the derived Codazzi-Mainardi equation for a relation.

Given r2 = F(r1), the radii of a rotationally symmetric solution obey

    dr1/dtheta = (F(r1) - r1) * cot(theta).

The solver works in the monotone coordinate t = ln tan(theta/2):

    dr1/dt = -tanh(t) * (F(r1) - r1),

which is regular on the whole line (poles sit at t = -inf/+inf), so
pole approaches down to theta ~ 1e-9 stay cheap and well conditioned.
Output grids are uniform in t; a dense evaluator travels with the
profile.  An optional support channel integrates (r, dr/dtheta)
alongside, giving the support function of the same surface exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .geometry import POLE_EPS, RoCProfile, SupportProfile, as_angle, t_of_theta, theta_of_t
from .numerics import StackedDense, cumulative_quadrature
from .expressions import EvalDomainError
from .relations import RelationError, WeingartenRelation, eval_F_float, eval_F_prime, render_relation

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
    """Adaptive RK45 settings and output-grid resolution.

    rtol/atol are tighter than strictly required so that derived
    finite-difference residuals keep a clean error budget.
    """

    rtol: float = 1e-12
    atol: float = 1e-14
    grid_step: float = 0.002      # output spacing in t = ln tan(theta/2)
    blowup: float = 1e8           # |r1| or |F(r1)| cap, counts as a stop
    max_points: int = 40000


def _F_or_nan(rel: WeingartenRelation, r1: float, domain_hits: list) -> float:
    """F(r1), or nan (which makes RK45 reject the step) outside F's domain."""
    try:
        return float(eval_F_float(rel, r1))
    except EvalDomainError:
        domain_hits.append(r1)
        return math.nan


def _rhs_factory(rel: WeingartenRelation, with_support: bool, domain_hits: list):
    def rhs(t, y):
        r1 = y[0]
        F = _F_or_nan(rel, r1, domain_hits)
        tanh_t = math.tanh(t)
        dr1 = -tanh_t * (F - r1)
        if not with_support:
            return [dr1]
        sech_t = 1.0 / math.cosh(t)
        r, u = y[1], y[2]
        return [dr1, u * sech_t, (F - r) * sech_t]
    return rhs


def _events_factory(rel: WeingartenRelation, blowup: float, domain_hits: list):
    def ev_blow(t, y):
        return blowup - abs(y[0])
    ev_blow.terminal = True

    def ev_flat(t, y):
        F = _F_or_nan(rel, y[0], domain_hits)
        val = abs(F) if np.isfinite(F) else np.inf
        return blowup - min(val, 2.0 * blowup)
    ev_flat.terminal = True
    return [ev_blow, ev_flat]


def _runs_into_pole(rel: WeingartenRelation, r1_prev: float, r1_last: float) -> bool:
    """Whether the last accepted step ran toward a pole of F: |F| grew over it
    and, by its log-derivative, F changes by its own size within a relative
    1e-6 of r1."""
    try:
        F_prev, F_last = eval_F_float(rel, np.array([r1_prev, r1_last]))
        slope = eval_F_prime(rel, r1_last)
    except EvalDomainError:
        return False
    return bool(abs(F_last) > abs(F_prev)
                and abs(F_last) < abs(slope) * 1e-6 * max(1.0, abs(r1_last)))


def integrate_cm(rel: WeingartenRelation, theta0, r1_0: float,
                 target_interval: tuple[float, float] = (POLE_EPS, math.pi - POLE_EPS),
                 step_control: Optional[StepControl] = None,
                 with_support: bool = True,
                 support_init: Optional[tuple[float, float]] = None,
                 pole_seed_c1: float = 1.0) -> RoCProfile:
    """Integrate dr1/dtheta = (F(r1) - r1) cot(theta) through (theta0, r1_0).

    The result covers target_interval intersected with the reachable
    domain; integration stops cleanly at blow-up or an F-domain exit and
    records per-side stop reasons in ``profile.meta``.  ``support_init``
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

    t0 = float(t_of_theta(theta0))
    t_lo = float(t_of_theta(lo))
    t_hi = float(t_of_theta(hi))
    if not (t_lo - 1e-12 <= t0 <= t_hi + 1e-12):
        raise ValueError("theta0 must lie inside the target interval")

    if with_support:
        if support_init is None:
            r_init, u_init = float(r1_0), 0.0
        else:
            r_init, u_init = float(support_init[0]), float(support_init[1])
            implied = u_init / math.tan(theta0) + r_init
            if abs(implied - r1_0) > 1e-8 * max(1.0, abs(r1_0)):
                raise ValueError("support_init inconsistent with r1_0 at theta0")
        y0 = [float(r1_0), r_init, u_init]
    else:
        y0 = [float(r1_0)]

    # a nan or infinite right-hand side at the start point would stall RK45's first step
    try:
        F0 = float(eval_F_float(rel, y0[0]))
    except EvalDomainError as exc:
        raise IntegrationError(f"F is not defined at r1_0 = {y0[0]!r}: {exc}") from exc
    if not math.isfinite(F0):
        raise IntegrationError(f"r1_0 = {y0[0]!r} is a pole of F (F(r1_0) = {F0})")
    domain_hits: list[float] = []
    rhs = _rhs_factory(rel, with_support, domain_hits)
    events = _events_factory(rel, sc.blowup, domain_hits)

    stop = {"left": "completed", "right": "completed"}
    dense = {}
    reached = {}
    for side, t_end in (("left", t_lo), ("right", t_hi)):
        if (side == "left" and t_end >= t0 - 1e-15) or (side == "right" and t_end <= t0 + 1e-15):
            reached[side] = t0
            continue
        domain_hits.clear()
        try:
            sol = solve_ivp(rhs, (t0, t_end), y0, method="RK45",
                            rtol=sc.rtol, atol=sc.atol,
                            dense_output=True, events=events)
        except (ArithmeticError, ValueError) as exc:
            raise IntegrationError(f"right-hand side failed during integration: {exc}") from exc
        if sol.status == 1:  # event hit
            stop[side] = "blow_up" if len(sol.t_events[0]) else "f_domain_exit"
        elif sol.status != 0:
            # the steps shrank at the edge of F's domain, toward a pole of F,
            # or for another reason
            if domain_hits:
                stop[side] = "f_domain_exit"
            elif len(sol.t) > 1 and _runs_into_pole(rel, *sol.y[0, -2:]):
                stop[side] = "f_pole"
            else:
                stop[side] = "step_underflow"
        dense[side] = StackedDense(sol.sol)
        reached[side] = float(sol.t[-1])

    t_min = reached.get("left", t0)
    t_max = reached.get("right", t0)
    if t_max - t_min <= 0.0:
        raise IntegrationError("no reachable domain around theta0")

    def eval_state(tq: np.ndarray) -> np.ndarray:
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        out = np.empty((len(y0), len(tq)))
        left_mask = tq < t0
        if left_mask.any():
            if "left" not in dense:
                raise ValueError("query outside the integrated domain")
            out[:, left_mask] = dense["left"](tq[left_mask])
        if (~left_mask).any():
            if "right" in dense:
                out[:, ~left_mask] = dense["right"](np.clip(tq[~left_mask], t0, t_max))
            else:
                out[:, ~left_mask] = np.asarray(y0, dtype=float)[:, None]
        return out

    n = int(math.ceil((t_max - t_min) / sc.grid_step)) + 1
    n = max(n, 9)
    if n > sc.max_points:
        n = sc.max_points
    tgrid = np.linspace(t_min, t_max, n)
    theta_grid = theta_of_t(tgrid)
    states = eval_state(tgrid)
    r1 = states[0]
    r2 = eval_F_float(rel, r1)

    def evaluator(theta):
        theta = np.asarray(theta, dtype=float)
        tq = np.clip(t_of_theta(theta), t_min, t_max)
        vals = eval_state(tq)[0]
        r1v = vals if theta.ndim else float(vals[0])
        r2v = eval_F_float(rel, r1v)
        return np.array([r1v, r2v])

    meta = {
        "relation": render_relation(rel),
        "theta0": theta0,
        "r1_0": float(r1_0),
        "stop_reason": ",".join(f"{side}:{why}" for side, why in stop.items()
                                if why != "completed") or "completed",
        "stop_left": stop["left"],
        "stop_right": stop["right"],
        "t_range": (t_min, t_max),
        "rtol": sc.rtol,
        "atol": sc.atol,
        "value_noise": 100.0 * sc.atol,
    }
    support = None
    if with_support:
        def on_state(row_of):
            """Array-first support callback: one dense-output call per query array."""
            def callback(theta):
                vals = row_of(eval_state(t_of_theta(theta)))
                return vals if np.ndim(theta) else float(vals[0])
            return callback

        support = SupportProfile(theta_grid, states[1], rdot=states[2],
                                 rddot=eval_F_float(rel, r1) - states[1],
                                 r_fun=on_state(lambda st: st[1]),
                                 rdot_fun=on_state(lambda st: st[2]),
                                 rddot_fun=on_state(lambda st: eval_F_float(rel, st[0]) - st[1]),
                                 meta={"relation": meta["relation"]})
    return RoCProfile(theta_grid, r1, r2, evaluator=evaluator, relation=rel, support=support,
                      tolerance=10.0 * sc.rtol + 1e-8, meta=meta)


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
