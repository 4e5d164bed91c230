"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criterion 11's closed-form stability integrand is asserted exactly as
written; the first part (positivity) passes while the written integrand
disagrees with the Lagrangian it names (see the adjacent EL-consistent
check, which passes to 1e-8).
"""

import json
import math
import os

import numpy as np
import pytest

from weingarten import (
    Calibration,
    CubicRoC,
    HopfL1Spec,
    L0Spec,
    LinearHopf,
    MoebiusElement,
    Multiplier,
    PureKLinear,
    SemiQuadratic,
    SupportProfile,
    VariationalState,
    ads_invariants,
    apply_factors,
    apply_roc,
    cm_residual,
    compose_factors,
    decompose,
    embed_profile,
    eval_F,
    eval_F_prime,
    first_integral_I,
    first_integral_Q,
    integrate_cm,
    invariants,
    lagrangian_eval,
    mesh_stats,
    read_profile_csv,
    reciprocal_transform_closed,
    reduce_to_pure_linear,
    revolve_profile,
    second_variation,
    sine_perturbation_basis,
    slope_restriction_profile,
    support_from_r1,
    transform_relation,
    transitivity_solve,
    umbilic_slope_estimate,
    vanishing_rate_estimate,
)
from weingarten.geometry import ProfileCurve3D
from weingarten.mobius import to_semiquadratic
from weingarten.numerics import adaptive_simpson
from weingarten.variational import lagrangian_partials

from conftest import random_moebius, random_normalized_sq


def report(num: int, passed: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_agreement():
    profile = integrate_cm(LinearHopf(2.0, 0.0), math.pi / 2.0, 1.0,
                           (0.2, math.pi - 0.2))
    sup_err = float(np.max(np.abs(profile.r1 - np.sin(profile.grid))))

    anchor = math.pi / 3.0
    anchor_val = math.sin(anchor) - anchor * math.cos(anchor)
    s = support_from_r1(profile, anchor, anchor_val)
    base = np.sin(profile.grid) - profile.grid * np.cos(profile.grid)
    cosg = np.cos(profile.grid)
    K = float(np.sum((s.r - base) * cosg) / np.sum(cosg ** 2))
    support_err = float(np.max(np.abs(s.r - base - K * cosg)))

    ok = sup_err <= 1e-7 and support_err <= 1e-7
    report(1, ok, f"r1 vs sin: {sup_err:.2e}; support vs sin - th*cos (+K cos): "
                  f"{support_err:.2e} (K = {K:.3g})")
    assert sup_err <= 1e-7
    assert support_err <= 1e-7


def test_criterion_02_cm_residual_matrix(integrated_matrix):
    worst = {}
    for rel, profile, _, _ in integrated_matrix:
        worst[profile.meta["relation"]] = float(np.max(np.abs(cm_residual(profile))))
    ok = all(v <= 1e-8 for v in worst.values())
    report(2, ok, "sup CM residuals: " +
           ", ".join(f"{k}: {v:.1e}" for k, v in worst.items()))
    for k, v in worst.items():
        assert v <= 1e-8, k


def test_criterion_03_umbilic_slopes():
    p3 = integrate_cm(LinearHopf(3.0, -3.0), math.pi / 2.0, 2.0,
                      (1e-8, math.pi - 0.2))
    mu3 = umbilic_slope_estimate(p3).slope_estimate
    p01 = integrate_cm(LinearHopf(0.1, 3.0), math.pi / 2.0, 1.0,
                       (1e-8, math.pi - 0.2))
    mu01 = umbilic_slope_estimate(p01).slope_estimate
    ok = abs(mu3 - 3.0) <= 5e-2 and abs(mu01 - 0.1) <= 5e-2
    report(3, ok, f"LinearHopf(3,-3): mu = {mu3:.4f} (want 3); "
                  f"LinearHopf(0.1,3): mu = {mu01:.4f} (want 0.1)")
    assert abs(mu3 - 3.0) <= 5e-2
    assert abs(mu01 - 0.1) <= 5e-2


def test_criterion_04_slope_restriction_fixtures():
    lines = []
    ok = True
    want_class = {-1.0: "zero", 0.0: "finite", 1.0: "divergent"}
    for alpha in (1.5, 2.5):
        for delta in (-1.0, 0.0, 1.0):
            prof = slope_restriction_profile(alpha, delta)
            mu = umbilic_slope_estimate(prof).slope_estimate
            rate = vanishing_rate_estimate(prof, alpha)
            good = abs(mu - (alpha + 1.0)) <= 5e-2 and rate.classification == want_class[delta]
            ok = ok and good
            lines.append(f"(a={alpha}, d={delta}): mu={mu:.3f}, rate={rate.classification}")
            assert abs(mu - (alpha + 1.0)) <= 5e-2, (alpha, delta)
            assert rate.classification == want_class[delta], (alpha, delta)
    report(4, ok, "; ".join(lines))


def test_criterion_05_group_action_and_invariance(rng):
    worst_comp = 0.0
    checked = 0
    for _ in range(100):
        M1 = random_moebius(rng)
        M2 = random_moebius(rng)
        pts = rng.uniform(-5.0, 5.0, size=100)
        M21 = M2 @ M1
        for x in pts:
            d1 = M1.c * x + M1.d
            if abs(d1) < 1e-2:
                continue
            mid = (M1.a * x + M1.b) / d1
            d2 = M2.c * mid + M2.d
            d21 = M21.c * x + M21.d
            if abs(d2) < 1e-2 or abs(d21) < 1e-2:
                continue
            lhs = (M2.a * mid + M2.b) / d2
            rhs = (M21.a * x + M21.b) / d21
            worst_comp = max(worst_comp, abs(lhs - rhs) / max(1.0, abs(rhs)))
            checked += 1
    assert checked > 5000

    worst_ratio = 0.0
    for _ in range(100):
        M = random_moebius(rng)
        sq = random_normalized_sq(rng)
        before = invariants(sq)
        after = invariants(to_semiquadratic(transform_relation(M, sq)))
        worst_ratio = max(worst_ratio, abs(before.ratio - after.ratio))
    ok = worst_comp <= 1e-12 and worst_ratio <= 1e-9
    report(5, ok, f"composition law worst (relative): {worst_comp:.2e}; "
                  f"Lambda1^2/Lambda2 drift worst: {worst_ratio:.2e}")
    assert worst_comp <= 1e-12
    assert worst_ratio <= 1e-9


def test_criterion_06_decomposition(rng):
    worst_mat = 0.0
    worst_pt = 0.0
    for i in range(100):
        if i % 3 == 0:
            a = float(rng.uniform(0.2, 2.0)) * (1 if i % 2 else -1)
            M = MoebiusElement(a, float(rng.normal()), 0.0, 1.0 / a)
        else:
            M = random_moebius(rng)
        factors = decompose(M)
        worst_mat = max(worst_mat, float(np.max(np.abs(
            compose_factors(factors).matrix() - M.matrix()))))
        for _ in range(5):
            x = float(rng.uniform(-3.0, 3.0))
            if abs(M.c * x + M.d) < 1e-2:
                continue
            direct = apply_roc(M, (x, x))[0]
            via = apply_factors(factors, (x, x))[0]
            if np.isinf(direct) or np.isinf(via) or abs(direct) > 1e3:
                continue
            worst_pt = max(worst_pt, abs(direct - via))
    ok = worst_mat <= 1e-12 and worst_pt <= 1e-10
    report(6, ok, f"factor product defect: {worst_mat:.2e}; "
                  f"factorwise application defect: {worst_pt:.2e}")
    assert worst_mat <= 1e-12
    assert worst_pt <= 1e-10


def test_criterion_07_transitivity(rng):
    worst = 0.0
    worst_det = 0.0
    for i in range(50):
        src = random_normalized_sq(rng)
        l1 = invariants(src).lambda1
        if i % 5 == 0:  # delta' = 0 targets, including pure-linear ones
            sign = math.copysign(1.0, l1) if l1 else 1.0
            alpha_t = 0.0 if i % 10 == 0 else float(rng.normal())
            tgt = SemiQuadratic(alpha_t, 0.5 * (l1 + sign), 0.5 * (-l1 + sign), 0.0)
        else:
            tgt = random_normalized_sq(rng, lam1=l1 if i % 2 else -l1)
        M = transitivity_solve(src, tgt)
        worst_det = max(worst_det, abs(M.det - 1.0))
        img = to_semiquadratic(transform_relation(M, src))
        got = np.array(img.coefficients())
        want = np.array(tgt.coefficients())
        worst = max(worst, float(min(np.max(np.abs(got - want)),
                                     np.max(np.abs(got + want)))))
    ok = worst <= 1e-9 and worst_det <= 1e-12
    report(7, ok, f"coefficient match worst: {worst:.2e}; det defect: {worst_det:.2e}")
    assert worst <= 1e-9
    assert worst_det <= 1e-12


def test_criterion_08_reduction(rng):
    _, lam_cmc = reduce_to_pure_linear(SemiQuadratic(0, 1, 1, -4))
    sq2 = random_normalized_sq(rng, lam1=2.0)
    _, lam2 = reduce_to_pure_linear(sq2)
    sign_ok = True
    for _ in range(200):
        sq = random_normalized_sq(rng)
        klass = invariants(sq).klass
        _, lam = reduce_to_pure_linear(sq)
        if klass == "elliptic" and lam >= 0:
            sign_ok = False
        if klass == "hyperbolic" and lam <= 0:
            sign_ok = False
    ok = (abs(lam_cmc + 1.0) <= 1e-9
          and min(abs(lam2 - 3.0), abs(lam2 - 1.0 / 3.0)) <= 1e-9 and sign_ok)
    report(8, ok, f"CMC lambda = {lam_cmc:.6f} (want -1); Lambda1=2 lambda = {lam2:.6f} "
                  f"(want 3 or 1/3); sign law on 200 randoms: {sign_ok}")
    assert abs(lam_cmc + 1.0) <= 1e-9
    assert min(abs(lam2 - 3.0), abs(lam2 - 1.0 / 3.0)) <= 1e-9
    assert sign_ok


def _random_states(rng, bracket, n=100):
    states = []
    for _ in range(n):
        th = float(rng.uniform(0.3, math.pi / 2.0 - 0.15))
        r1 = float(rng.uniform(*bracket))
        rd = float(rng.uniform(-0.5, 0.5))
        states.append(VariationalState(th, r1 - rd / math.tan(th), rd))
    return states


def test_criterion_09_variational_identity(rng, family_matrix):
    worst_el = {}
    worst_helm = {}
    for rel, _, bracket, _ in family_matrix:
        m = Multiplier(rel, 0.5 * (bracket[0] + bracket[1]))
        states = _random_states(rng, bracket)
        w_el = 0.0
        for st in states:
            parts = lagrangian_partials(L0Spec(), rel, st, m, analytic=False)
            rdd = float(rng.uniform(-1.0, 1.0))
            el = (parts["L_rdot_rdot"] * rdd + parts["L_r_rdot"] * st.rdot
                  + parts["L_theta_rdot"] - parts["L_r"])
            mf = m.phi0(st.r1) * (rdd + st.r - float(eval_F(rel, st.r1)))
            w_el = max(w_el, abs(el - mf))
        worst_el[type(rel).__name__ + str(getattr(rel, "lam", getattr(rel, "gamma", "")))] = w_el

        from weingarten import helmholtz_residual
        helm = helmholtz_residual(
            rel, lambda th, r, rd: m.phi0(rd / math.tan(th) + r), states[:50], m)
        worst_helm[type(rel).__name__] = float(np.max(np.abs(helm)))

    # raw form fails by F' cot(theta) for Hopf, via finite differences of E
    rel = LinearHopf(2.0, 0.0)
    raw_ok = True
    for st in _random_states(rng, (0.5, 2.5), n=20):
        h = 1e-6 * (1.0 + abs(st.rdot))
        E = lambda rd: st.r - float(eval_F(rel, rd / math.tan(st.theta) + st.r))
        dE_drdot = (E(st.rdot + h) - E(st.rdot - h)) / (2.0 * h)
        resid = 0.0 - dE_drdot  # d/dtheta(dE/dr'') = 0 since dE/dr'' = 1
        if abs(resid - 2.0 / math.tan(st.theta)) > 1e-5:
            raw_ok = False
    ok = (all(v <= 1e-6 for v in worst_el.values())
          and all(v <= 1e-6 for v in worst_helm.values()) and raw_ok)
    report(9, ok, f"EL-identity worst defects: "
                  + ", ".join(f"{k}: {v:.1e}" for k, v in worst_el.items())
                  + f"; Helmholtz worst: {max(worst_helm.values()):.1e}"
                  + f"; raw form fails by F'cot: {raw_ok}")
    for k, v in worst_el.items():
        assert v <= 1e-6, k
    for k, v in worst_helm.items():
        assert v <= 1e-6, k
    assert raw_ok


def test_criterion_10_conservation(integrated_matrix):
    drifts = {}
    for rel, profile, bracket, q_base in integrated_matrix:
        traj = profile.support
        m = Multiplier(rel, 0.5 * (bracket[0] + bracket[1]))
        ths = np.linspace(0.5, math.pi - 0.5, 9)
        Is, Qs = [], []
        for th in ths:
            st = VariationalState(float(th), float(traj.value(th)), float(traj.rdot(th)))
            Is.append(first_integral_I(rel, st, m))
            if abs(math.cos(th)) > 0.05:
                Qs.append(first_integral_Q(rel, st, m, theta_base=max(q_base, 0.3)))
        Is, Qs = np.asarray(Is), np.asarray(Qs)
        i_drift = float((Is.max() - Is.min()) / abs(Is.mean()))
        q_drift = float((Qs.max() - Qs.min())
                        / max(abs(Qs.mean()), float(np.max(np.abs(Qs))), 1e-9))
        drifts[profile.meta["relation"]] = (i_drift, q_drift)

    # exact K recovery for the doubling relation
    rel = LinearHopf(2.0, 0.0)
    m = Multiplier(rel, 1.0)
    k_err = 0.0
    one_err = 0.0
    for K in (-1.0, 0.0, 2.0):
        grid = np.linspace(0.3, 1.25, 30)
        traj = SupportProfile.from_callables(
            grid,
            lambda t, K=K: math.sin(t) - t * math.cos(t) + K * math.cos(t),
            lambda t, K=K: (t - K) * math.sin(t),
            lambda t, K=K: math.sin(t) + (t - K) * math.cos(t))
        for th in (0.5, 1.0):
            st = VariationalState(th, float(traj.value(th)), float(traj.rdot(th)))
            one_err = max(one_err, abs(first_integral_I(rel, st, m) - 1.0))
            k_err = max(k_err, abs(first_integral_Q(rel, st, m, theta_base=1e-3) - K))
    ok = (all(i <= 1e-6 and q <= 1e-5 for i, q in drifts.values())
          and one_err <= 1e-8 and k_err <= 1e-8)
    report(10, ok, "I/Q drifts: "
           + ", ".join(f"{k}: ({i:.1e}, {q:.1e})" for k, (i, q) in drifts.items())
           + f"; I==1 err: {one_err:.1e}; Q==K err: {k_err:.1e}")
    for k, (i, q) in drifts.items():
        assert i <= 1e-6 and q <= 1e-5, k
    assert one_err <= 1e-8
    assert k_err <= 1e-8


def test_criterion_11a_l0_stability(rng, family_matrix):
    interval = (0.3, 1.2)
    mins = {}
    for rel, _, bracket, _ in family_matrix:
        sol = integrate_cm(rel, 0.75, 0.5 * (bracket[0] + bracket[1]),
                           (0.25, 1.3))
        m = Multiplier(rel, float(sol.r1_at(0.75)))
        basis = sine_perturbation_basis(10, *interval, rng=rng, extra_random=40)
        vals = [second_variation(L0Spec(), rel, sol.support, v, interval, m)
                for v in basis]
        mins[type(rel).__name__ + str(getattr(rel, "lam", getattr(rel, "gamma", "")))] = min(vals)
    ok = all(v > 0.0 for v in mins.values())
    report(11, ok, "min delta^2 S over 50 fields per family: "
           + ", ".join(f"{k}: {v:.3g}" for k, v in mins.items()))
    for k, v in mins.items():
        assert v > 0.0, k


def test_criterion_11b_hopf_l1_integrand_as_stated():
    """Criterion 11 pins delta^2 S_1 against ((1-lam) v^2 + v'^2)/sin^lam.

    The Lagrangian it names yields (v'^2 - (1-lam) v^2)/sin^lam (second
    partial in r of L1 is -(1-lam)/sin^lam); direct second differences of
    the functional agree with the latter to 1e-12.  The stated form is
    asserted faithfully below and fails.
    """
    lam, C = 0.5, 1.0
    rel = LinearHopf(lam, C)
    sol = integrate_cm(rel, 0.75, 1.0, (0.25, 1.3))
    v, vd = sine_perturbation_basis(3, 0.3, 1.2)[2]
    d2 = second_variation(HopfL1Spec(), rel, sol.support, (v, vd), (0.3, 1.2))

    el_consistent = adaptive_simpson(
        lambda th: (vd(th) ** 2 - (1.0 - lam) * v(th) ** 2) / math.sin(th) ** lam,
        0.3, 1.2, abs_tol=1e-13, rel_tol=1e-11)
    assert d2 == pytest.approx(el_consistent, abs=1e-8), \
        "quadrature does not even match the EL-consistent closed form"

    # independent oracle: second difference of the functional itself
    def S1(eps: float) -> float:
        return adaptive_simpson(
            lambda th: lagrangian_eval(
                HopfL1Spec(), rel,
                VariationalState(th, float(sol.support.value(th)) + eps * v(th),
                                 float(sol.support.rdot(th)) + eps * vd(th))),
            0.3, 1.2, abs_tol=1e-13, rel_tol=1e-11)

    # L1 is exactly quadratic in the perturbation, so a large step is exact
    eps = 0.05
    oracle = (S1(eps) - 2.0 * S1(0.0) + S1(-eps)) / eps ** 2
    assert d2 == pytest.approx(oracle, abs=1e-5)

    stated = adaptive_simpson(
        lambda th: ((1.0 - lam) * v(th) ** 2 + vd(th) ** 2) / math.sin(th) ** lam,
        0.3, 1.2, abs_tol=1e-13, rel_tol=1e-11)
    ok = abs(d2 - stated) <= 1e-8
    report(11, ok, f"HopfL1 integrand as stated: |delta^2 S - stated| = "
                   f"{abs(d2 - stated):.3e} (EL-consistent form matches to "
                   f"{abs(d2 - el_consistent):.1e}; functional oracle to "
                   f"{abs(d2 - oracle):.1e})")
    assert abs(d2 - stated) <= 1e-8, (
        "criterion 11 integrand: the named Lagrangian L1 = "
        "[2Cr-(1-lam)r^2+r'^2]/(2 sin^lam) has d2L/dr2 = -(1-lam)/sin^lam, "
        "so delta^2 S = int (v'^2 - (1-lam) v^2)/sin^lam; the written "
        "(+(1-lam) v^2) form disagrees by 2(1-lam) int v^2/sin^lam. "
        "Confirmed by direct second differences of S1.")


def test_criterion_12_geodesic_invariants():
    cmc = integrate_cm(SemiQuadratic(0, 1, 1, -4), math.pi / 2.0, 1.0,
                       (0.2, math.pi - 0.2))
    drifts_cmc = ads_invariants(cmc).drifts()
    hopf = integrate_cm(LinearHopf(2.0, 0.0), math.pi / 2.0, 1.0,
                        (0.2, math.pi - 0.2))
    drifts_hopf = ads_invariants(hopf).drifts()
    ok = max(drifts_cmc) <= 1e-6 and max(drifts_hopf) >= 1e-2
    report(12, ok, f"CMC drifts: {tuple(f'{d:.1e}' for d in drifts_cmc)}; "
                   f"negative control max drift: {max(drifts_hopf):.2f}")
    assert max(drifts_cmc) <= 1e-6
    assert max(drifts_hopf) >= 1e-2


def test_criterion_13_reciprocal_transform():
    sphere = integrate_cm(PureKLinear(1.0), math.pi / 2.0, 2.0,
                          (1e-6, math.pi - 1e-6))
    out_s = reciprocal_transform_closed(sphere)
    r_err = max(float(np.max(np.abs(out_s.profile.r1 + 0.5))),
                float(np.max(np.abs(out_s.profile.r2 + 0.5))))

    hopf = integrate_cm(LinearHopf(3.0, -3.0), math.pi / 2.0, 2.0,
                        (1e-6, math.pi - 1e-6))
    out_h = reciprocal_transform_closed(hopf)
    rho_poles = max(abs(float(out_h.embedding.rho[0])),
                    abs(float(out_h.embedding.rho[-1])))
    res = float(np.max(np.abs(cm_residual(
        out_h.profile.restricted(0.05, math.pi - 0.05)))))
    h_finite = bool(np.all(np.isfinite(out_h.embedding.h)))
    ok = r_err <= 1e-10 and rho_poles <= 1e-6 and res <= 1e-6 and h_finite
    report(13, ok, f"sphere R=2 -> RoC -1/2 err: {r_err:.1e}; closed image "
                   f"rho(poles): {rho_poles:.1e}; image CM residual: {res:.1e}; "
                   f"h continuous through the equator patch: {h_finite}")
    assert r_err <= 1e-10
    assert rho_poles <= 1e-6
    assert res <= 1e-6
    assert h_finite


def test_criterion_14_round_trips(tmp_path):
    from weingarten.cli import main

    src_csv = os.path.join(tmp_path, "src.csv")
    rc = main(["integrate", "--relation", "r2 = 3*r1 - 3", "--theta0", "1.5707963267948966",
               "--r1", "2.0", "--theta-min", "1e-6",
               "--theta-max", str(math.pi - 1e-6), "--grid-step", "0.01",
               "--output", src_csv])
    assert rc == 0
    fwd_csv = os.path.join(tmp_path, "fwd.csv")
    fwd_rep = os.path.join(tmp_path, "fwd.json")
    # map pole -d/c ~ 8.9 stays clear of the profile radii in [1.5, 3]
    matrix = [1.1, 0.2, -0.1, (1.0 + 0.2 * (-0.1)) / 1.1]
    rc = main(["transform", "--input", src_csv, "--matrix", json.dumps(matrix),
               "--calibration", "auto", "--output", fwd_csv, "--report", fwd_rep])
    assert rc == 0
    A1 = json.load(open(fwd_rep))["calibration"]
    Minv = MoebiusElement(*matrix).inverse()
    back_csv = os.path.join(tmp_path, "back.csv")
    rc = main(["transform", "--input", fwd_csv,
               "--matrix", json.dumps(Minv.to_json()),
               "--calibration", str(1.0 / A1), "--output", back_csv])
    assert rc == 0

    src = read_profile_csv(src_csv)
    back = read_profile_csv(back_csv)
    # the composite angle map is the identity, so grids match nodewise
    right = np.clip(np.searchsorted(src.theta, back.theta), 0, len(src.theta) - 1)
    left = np.maximum(right - 1, 0)
    idx_src = np.where(np.abs(src.theta[right] - back.theta)
                       <= np.abs(src.theta[left] - back.theta), right, left)
    match = np.abs(src.theta[idx_src] - back.theta) <= 1e-9
    assert match.mean() > 0.99
    i_b = np.nonzero(match)[0]
    i_s = idx_src[match]
    r1_err = float(np.max(np.abs(src.r1[i_s] - back.r1[i_b])))
    r2_err = float(np.max(np.abs(src.r2[i_s] - back.r2[i_b])))
    rho_err = float(np.max(np.abs(src.rho[i_s] - back.rho[i_b])))
    dh_src = src.h[i_s] - src.h[i_s][0]
    dh_back = back.h[i_b] - back.h[i_b][0]
    h_err = float(np.max(np.abs(dh_src - dh_back)))

    bundle = read_profile_csv(src_csv)
    mesh = revolve_profile(ProfileCurve3D(bundle.theta, bundle.rho, bundle.h), 64)
    stats = mesh_stats(mesh)

    ok = (max(r1_err, r2_err, rho_err, h_err) <= 1e-8
          and stats["watertight"] and stats["euler_characteristic"] == 2)
    report(14, ok, f"round trip errs r1/r2/rho/h: {r1_err:.1e}/{r2_err:.1e}/"
                   f"{rho_err:.1e}/{h_err:.1e}; mesh: chi = "
                   f"{stats['euler_characteristic']}, watertight = {stats['watertight']}")
    assert r1_err <= 1e-8
    assert r2_err <= 1e-8
    assert rho_err <= 1e-8
    assert h_err <= 1e-8
    assert stats["euler_characteristic"] == 2
    assert stats["watertight"]
