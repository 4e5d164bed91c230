"""The three benchmark flows: what each one runs, and how its outputs are checked.

A workload has three parts:

* ``prepare(inputs, workdir)``: set-up work beyond drawing the inputs
  (the ``transform`` source CSVs);
* ``run(item, workdir)``: one flow, the timed part.  It calls the program
  only through ``P`` and ``weingarten.cli.main``, so the tracer sees
  every call the flow makes;
* ``check(item, workdir, out)``: compares the outputs with references
  computed here, outside the timed region, using the acceptance suite's
  bounds.  It returns (passed, accuracy figure, per-flow extras).

``pool`` is the number of stratified draws per run (see inputs.py): about
the number of flows a 30-second run completes, so that one pass over the
pool covers every slice of every parameter range.
"""

from __future__ import annotations

import functools
import json
import math
import os
import types

import numpy as np
from scipy.special import beta, betainc

import weingarten.cli
from weingarten import geometry, integrate, mobius, relations, semiquadratic

from inputs import HALF_PI, HopfMember, TransformInput, VariationalCall

# The program's entry points as the flows call them.  The tracer replaces
# the values in this namespace along with the program's own bindings.
P = types.SimpleNamespace(
    parse_relation=relations.parse_relation,
    eval_F_float=relations.eval_F_float,
    LinearHopf=relations.LinearHopf,
    StepControl=integrate.StepControl,
    integrate_cm=integrate.integrate_cm,
    support_from_r1=geometry.support_from_r1,
    MoebiusElement=mobius.MoebiusElement,
    induced_surface=mobius.induced_surface,
    decompose=mobius.decompose,
    transform_relation=mobius.transform_relation,
    verify_transform_properties=mobius.verify_transform_properties,
    ads_invariants=mobius.ads_invariants,
    classification_report=semiquadratic.classification_report,
    reduce_to_pure_linear=semiquadratic.reduce_to_pure_linear,
)

THETA_MIN, THETA_MAX = 1e-6, math.pi - 1e-6
GRID_STEP = 0.01                # --grid-step of the surface_mesh and in-process runs
MESH_SEGMENTS = 32
SUPPORT_ANCHOR = math.pi / 3.0  # hopf_closed_form anchors r(pi/3) = r1(pi/3)
IMAGE_QUERIES = 64
IMAGE_INTERIOR = 5e-3           # image CM residual is taken on [5e-3, pi - 5e-3]

# acceptance-suite bounds
CLOSED_FORM_TOL = 1e-7          # criterion 01
IMAGE_CM_TOL = 1e-6             # criterion 13
I_DRIFT_TOL, Q_DRIFT_TOL = 1e-6, 1e-5   # criterion 10
# the image relation must reproduce the image radii it was derived for
IMAGE_RELATION_TOL = 1e-8


def _cli(argv: list[str]) -> int:
    return weingarten.cli.main(argv)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    columns = np.loadtxt(lines[1:], delimiter=",", ndmin=2).T
    return dict(zip(lines[0].strip().split(","), columns))


def _rel_err(x, ref) -> float:
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def _integrate_argv(relation: str, r1: float, out_csv: str, report: str,
                    grid_step: float | None) -> list[str]:
    argv = ["integrate", "--relation", relation, "--theta0", repr(HALF_PI),
            "--r1", repr(r1), "--theta-min", repr(THETA_MIN),
            "--theta-max", repr(THETA_MAX), "--output", out_csv, "--report", report]
    if grid_step is not None:
        argv += ["--grid-step", repr(grid_step)]
    return argv


def _sine_power_integral(theta: np.ndarray, n: float) -> np.ndarray:
    """int_0^theta sin(u)^n du through the regularized incomplete beta function."""
    a = 0.5 * (n + 1.0)
    full = beta(a, 0.5)                      # the integral over [0, pi]
    half = 0.5 * full * betainc(a, 0.5, np.sin(theta) ** 2)
    return np.where(theta <= HALF_PI, half, full - half)


def hopf_reference(m: HopfMember, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form r1 and support r of the member, as hopf_closed_form defines them.

    r1 = r0 + a*sin^(lam-1) and r = r1 - cos(theta)*int_{pi/3}^theta g with
    g = -A0*sin^(lam-2), A0 = a*(1 - lam): the support anchored by
    r(pi/3) = r1(pi/3).  The integral is evaluated exactly here rather than
    by hopf_closed_form's adaptive Simpson rule, whose 1e-8 relative
    tolerance leaves errors above the 1e-7 check near the south pole.
    """
    theta = np.asarray(theta, dtype=float)
    A0 = m.amplitude * (1.0 - m.lam)
    r1 = m.r0 + m.amplitude * np.sin(theta) ** (m.lam - 1.0)
    n = m.lam - 2.0
    integral = -A0 * (_sine_power_integral(theta, n)
                      - _sine_power_integral(np.array(SUPPORT_ANCHOR), n))
    return r1, r1 - np.cos(theta) * integral


class SurfaceMesh:
    """relation -> surface -> mesh, plus support recovery in-process."""

    name = "surface_mesh"
    pool = 12

    def prepare(self, inputs: list[HopfMember], workdir: str) -> list:
        return list(inputs)

    def run(self, m: HopfMember, d: str) -> dict:
        j = functools.partial(os.path.join, d)
        rcs = [
            _cli(_integrate_argv(m.relation, m.r1_start, j("profile.csv"),
                                 j("integrate.json"), GRID_STEP)),
            _cli(["export-mesh", "--input", j("profile.csv"),
                  "--segments", str(MESH_SEGMENTS), "--output", j("surface.obj"),
                  "--report", j("mesh.json")]),
            _cli(["report", "--input", j("profile.csv"), "--output", j("report.json")]),
        ]
        rel = P.parse_relation(m.relation)
        profile = P.integrate_cm(rel, HALF_PI, m.r1_start, (THETA_MIN, THETA_MAX),
                                 step_control=P.StepControl(grid_step=GRID_STEP))
        support = P.support_from_r1(profile, SUPPORT_ANCHOR,
                                    float(profile.r1_at(SUPPORT_ANCHOR)))
        return {"rcs": rcs, "profile": profile, "support": support}

    def check(self, m: HopfMember, d: str, out: dict):
        if any(rc != 0 for rc in out["rcs"]):
            return False, math.nan, {}
        j = functools.partial(os.path.join, d)
        run_report = _load(j("integrate.json"))
        mesh = _load(j("mesh.json"))
        diag = _load(j("report.json"))
        csv = _read_csv(j("profile.csv"))
        profile, support = out["profile"], out["support"]
        r1_ref, r_ref = hopf_reference(m, profile.grid)
        r1_csv_ref, _ = hopf_reference(m, csv["theta"])
        accuracy = max(_rel_err(csv["r1"], r1_csv_ref), _rel_err(profile.r1, r1_ref),
                       _rel_err(support.r, r_ref))
        passed = (run_report["stop_reason"] == "completed"
                  and profile.meta["stop_reason"] == "completed"
                  and accuracy <= CLOSED_FORM_TOL
                  and mesh["euler_characteristic"] == 2 and mesh["watertight"]
                  and math.isfinite(diag["residual_max"]))
        return passed, accuracy, {}


class Transform:
    """The curvature-space action on an explicit relation's member."""

    name = "transform"
    pool = 16

    def prepare(self, inputs: list[TransformInput], workdir: str) -> list:
        """Writes the first draw's source CSV; every flow's CLI step transforms it."""
        source = inputs[0]
        src = os.path.join(workdir, "source.csv")
        report = os.path.join(workdir, "source.json")
        rc = _cli(_integrate_argv(source.relation, source.member.r1_start, src, report, None))
        if rc != 0 or _load(report)["stop_reason"] != "completed":
            raise RuntimeError(f"source profile for {source.relation!r} did not complete")
        return [(t, src, source.matrix) for t in inputs]

    def run(self, item, d: str) -> dict:
        t, src, src_matrix = item
        m = t.member
        rel = P.parse_relation(t.relation)
        profile = P.integrate_cm(rel, HALF_PI, m.r1_start, (THETA_MIN, THETA_MAX),
                                 step_control=P.StepControl(grid_step=GRID_STEP))
        M = P.MoebiusElement(*t.matrix)
        image = P.induced_surface(M, profile)
        factor_images = [P.induced_surface(f.moebius(), profile) for f in P.decompose(M)]
        img = image.profile
        queries = np.linspace(img.theta_min, img.theta_max, IMAGE_QUERIES + 2)[1:-1]
        dense = (img.r1_at(queries), img.r2_at(queries))
        image_rel = P.transform_relation(M, rel)
        F_image = P.eval_F_float(image_rel, img.r1)
        verify = P.verify_transform_properties(M, profile)
        ads = P.ads_invariants(profile)
        sq = P.transform_relation(M, P.LinearHopf(m.lam, m.C))
        classification = P.classification_report(sq)
        _, reduced_lam = P.reduce_to_pure_linear(sq)
        rc = _cli(["transform", "--input", src, "--matrix", json.dumps(list(src_matrix)),
                   "--calibration", "auto", "--output", os.path.join(d, "image.csv"),
                   "--report", os.path.join(d, "image.json")])
        return {"rc": rc, "profile": profile, "image": image, "factors": factor_images,
                "dense": dense, "F_image": F_image, "verify": verify, "ads": ads,
                "classification": classification, "reduced_lam": reduced_lam}

    def check(self, item, d: str, out: dict):
        if out["rc"] != 0:
            return False, math.nan, {}
        report = _load(os.path.join(d, "image.json"))
        img = out["image"].profile
        interior = img.restricted(max(img.theta_min, IMAGE_INTERIOR),
                                  min(img.theta_max, math.pi - IMAGE_INTERIOR))
        residual = float(np.max(np.abs(geometry.cm_residual(interior))))
        accuracy = max(residual, float(report.get("cm_residual_max", math.inf)))
        ads = out["ads"]
        passed = (out["profile"].meta["stop_reason"] == "completed"
                  and "degenerate" not in report
                  and accuracy <= IMAGE_CM_TOL
                  and bool(out["verify"]["passed"])
                  and all(f.kind == "surface" for f in out["factors"])
                  and all(np.all(np.isfinite(v)) for v in out["dense"])
                  and _rel_err(out["F_image"], img.r2) <= IMAGE_RELATION_TOL
                  and all(np.all(np.isfinite(x)) for x in (ads.lam1, ads.lam2, ads.lam3))
                  and _sign_law(out["classification"]["class"], out["reduced_lam"]))
        return passed, accuracy, {"mobius.image_cm_residual_max": accuracy}


def _sign_law(klass: str, lam: float) -> bool:
    """Reduction lambda < 0 for elliptic and > 0 for hyperbolic (criterion 08)."""
    return (klass == "elliptic" and lam < 0.0) or (klass == "hyperbolic" and lam > 0.0)


class Variational:
    """Three `weingarten variational` certifications per flow."""

    name = "variational"
    pool = 10

    def prepare(self, inputs: list[tuple[VariationalCall, ...]], workdir: str) -> list:
        return list(inputs)

    def run(self, calls, d: str) -> dict:
        return {"rcs": [_cli(call.argv() + ["--report", os.path.join(d, f"call-{i}.json")])
                        for i, call in enumerate(calls)]}

    def check(self, calls, d: str, out: dict):
        if any(rc != 0 for rc in out["rcs"]):
            return False, math.nan, {}
        passed = True
        el_max = drift_max = 0.0
        for i, call in enumerate(calls):
            report = _load(os.path.join(d, f"call-{i}.json"))
            el_max = max(el_max, report["el_residual_max"])
            i_drift, q_drift = report["I_drift"], report["Q_drift"]
            passed &= i_drift is not None and i_drift <= I_DRIFT_TOL
            passed &= q_drift is not None and q_drift <= Q_DRIFT_TOL
            drift_max = max(drift_max, i_drift or 0.0, q_drift or 0.0)
            if call.lagrangian == "L0":
                passed &= report["second_variation"]["min"] > 0.0   # criterion 11a
        return bool(passed), el_max, {"variational.IQ_drift_max": drift_max}


WORKLOADS = {w.name: w for w in (SurfaceMesh(), Transform(), Variational())}
