"""Command-line front end.

Subcommands: parse | integrate | transform | classify | reduce |
variational | export-mesh | report.  Options may come from flags or a
--config JSON file (flags win).  Exit codes: 0 success, 1 usage/parse
error, 2 numeric failure, 3 empty or inadmissible domain.  All reports
are schema-versioned JSON embedding the resolved configuration; the
rotation axis is +z.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__
from .expressions import ParseError
from .geometry import (
    FlatPointError,
    ProfileCurve3D,
    SingularEvaluationError,
    cm_residual,
    embed_profile,
)
from .integrate import IntegrationError, StepControl, integrate_cm
from .meshing import export_obj, mesh_stats, revolve_profile
from .mobius import (
    Calibration,
    EmptyDomainError,
    MoebiusElement,
    decompose,
    induced_surface,
)
from .profile_io import ProfileBundle, read_profile_csv, write_json_atomic, write_profile_csv
from .relations import (
    CubicRoC,
    LinearHopf,
    RelationError,
    SemiQuadratic,
    WeingartenRelation,
    parse_relation,
    render_relation,
    to_semiquadratic,
)
from .semiquadratic import classification_report, reduce_to_pure_linear
from .umbilic import UndefinedSlopeError, umbilic_slope_estimate
from .variational import (
    HopfL1Spec,
    CubicL1Spec,
    L0Spec,
    Multiplier,
    SingularMultiplierError,
    VariationalState,
    _phi_of_spec,
    euler_lagrange_residual,
    first_integral_I,
    first_integral_Q,
    helmholtz_residual,
    second_variation,
    sine_perturbation_basis,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_DOMAIN = 3


class CliDomainError(RuntimeError):
    pass


class CliUsageError(RuntimeError):
    """An option or config value of the wrong shape (exit 1)."""


def _finite(value, what: str, nonzero: bool = False) -> float:
    """float(value), or a usage error saying `what` if that is not a finite (nonzero) number."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x) or (nonzero and x == 0.0):
        raise CliUsageError(f"{what}, not {value!r}")
    return x


def _angle(config: dict, key: str, default: float) -> float:
    """config[key] (or the default) as a Gauss angle, or a usage error."""
    what = f"{key} must be an angle in [0, pi]"
    theta = _finite(config.get(key, default), what)
    if not 0.0 <= theta <= math.pi:
        raise CliUsageError(f"{what}, not {theta!r}")
    return theta


def _angle_interval(config: dict, keys: tuple[str, str],
                    defaults: tuple[float, float]) -> tuple[float, float]:
    """Two angles of the config that must be in increasing order."""
    lo, hi = (_angle(config, k, d) for k, d in zip(keys, defaults))
    if not lo < hi:
        raise CliUsageError(f"{keys[0]} {lo!r} must be below {keys[1]} {hi!r}")
    return lo, hi


def _relation_kind(rel: WeingartenRelation) -> str:
    return type(rel).__name__


def _emit(report: dict, path: Optional[str]) -> None:
    if path:
        write_json_atomic(path, report)
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _base_report(config: dict) -> dict:
    return {"schema": 1, "tool": f"weingarten {__version__}", "config": config}


def _residual_max(profile, margin: float) -> float:
    """max |cm_residual| over the samples at least ``margin`` from the poles;
    NaN when fewer than 9 remain."""
    interior = profile.restricted(max(profile.theta_min, margin),
                                  min(profile.theta_max, math.pi - margin))
    return float(np.nanmax(np.abs(cm_residual(interior)))) if len(interior) >= 9 else math.nan


def _umbilic_report(profile) -> Optional[dict]:
    """The umbilic slope estimate of a profile; None where it is undefined."""
    try:
        ua = umbilic_slope_estimate(profile)
    except (UndefinedSlopeError, ValueError):
        return None
    return {"slope": ua.slope_estimate, "ci": ua.slope_ci,
            "alpha": ua.vanishing_exponent, "gamma": ua.vanishing_coefficient,
            "rate_class": ua.rate_class}


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(config: dict) -> int:
    rel = parse_relation(config["relation"])
    report = _base_report(config)
    report.update({
        "variant": _relation_kind(rel),
        "canonical": render_relation(rel),
    })
    if isinstance(rel, SemiQuadratic):
        report["coefficients"] = list(rel.coefficients())
    elif isinstance(rel, LinearHopf):
        report["coefficients"] = [rel.lam, rel.C]
    elif isinstance(rel, CubicRoC):
        report["coefficients"] = [rel.gamma]
    _emit(report, config.get("output"))
    return EXIT_OK


def cmd_integrate(config: dict) -> int:
    rel = parse_relation(config["relation"])
    theta0 = _angle(config, "theta0", math.pi / 2.0)
    r1_0 = float(config["r1"])
    interval = _angle_interval(config, ("theta_min", "theta_max"), (1e-6, math.pi - 1e-6))
    sc = StepControl()
    if "grid_step" in config:
        sc.grid_step = float(config["grid_step"])
    profile = integrate_cm(rel, theta0, r1_0, interval, step_control=sc)
    residual_max = _residual_max(profile, 2e-6)
    try:
        emb = embed_profile(profile, h_anchor=float(config.get("h_anchor", 0.0)))
    except FlatPointError:
        emb = None
    bundle = ProfileBundle.from_parts(profile, emb, metadata={"relation": render_relation(rel)})
    out_csv = config.get("output")
    if out_csv:
        write_profile_csv(out_csv, bundle)
    report = _base_report(config)
    report.update({
        "relation": render_relation(rel),
        "start": {"theta0": theta0, "r1_0": r1_0},
        "stop_reason": profile.meta["stop_reason"],
        "grid_stats": {"n": len(profile.grid),
                       "theta_min": profile.theta_min,
                       "theta_max": profile.theta_max},
        "umbilic": _umbilic_report(profile),
        "residual_max": residual_max,
    })
    _emit(report, config.get("report"))
    return EXIT_OK


def cmd_transform(config: dict) -> int:
    bundle = read_profile_csv(config["input"])
    matrix = config["matrix"]
    if isinstance(matrix, str):
        matrix = json.loads(matrix)
    if not isinstance(matrix, list) or len(matrix) != 4:
        raise CliUsageError(f"matrix must be a list of 4 numbers, not {matrix!r}")
    a, b, c, d = (_finite(x, "matrix entries must be finite numbers") for x in matrix)
    det = a * d - b * c
    if abs(det - 1.0) > 1e-9:
        raise RelationError(f"matrix determinant {det} is not 1")
    M = MoebiusElement(a, b, c, d)
    profile = bundle.roc_profile()
    cal = config.get("calibration", "auto")
    if cal not in (None, "auto"):
        cal = Calibration(_finite(cal, "calibration must be 'auto' or a nonzero number",
                                  nonzero=True))
    out = induced_surface(M, profile, cal=cal,
                          h_anchor=float(config.get("h_anchor", 0.0)))
    report = _base_report(config)
    report["matrix"] = [a, b, c, d]
    report["factors"] = [f.to_json() for f in decompose(M)]
    if out.kind != "surface":
        report["degenerate"] = out.kind
        _emit(report, config.get("report"))
        return EXIT_OK
    img = out.profile
    report.update({
        "calibration": out.A,
        "grid_stats": {"n": len(img.grid), "theta_min": img.theta_min,
                       "theta_max": img.theta_max},
        "cm_residual_max": _residual_max(img, 5e-3),
    })
    metadata = {"transform_of": img.meta["transform_of"],
                "matrix": json.dumps([a, b, c, d]),
                "calibration": out.A}
    if img.relation is not None:
        metadata["relation"] = render_relation(img.relation)
    out_bundle = ProfileBundle(img.grid, np.full(len(img.grid), np.nan),
                               img.r1, img.r2, out.embedding.rho, out.embedding.h, metadata)
    if config.get("output"):
        write_profile_csv(config["output"], out_bundle)
    _emit(report, config.get("report"))
    return EXIT_OK


def cmd_classify(config: dict) -> int:
    rel = parse_relation(config["relation"])
    try:
        to_semiquadratic(rel)
    except RelationError as exc:
        raise RelationError(f"not semi-quadratic: {exc}") from exc
    report = _base_report(config)
    report.update(classification_report(rel, reduction=not config.get("no_reduction", False)))
    _emit(report, config.get("output"))
    return EXIT_OK


def cmd_reduce(config: dict) -> int:
    rel = parse_relation(config["relation"])
    M, lam = reduce_to_pure_linear(rel)
    report = _base_report(config)
    report.update({"matrix": M.to_json(), "lambda": lam,
                   "target": f"k2 = {lam}*k1"})
    _emit(report, config.get("output"))
    return EXIT_OK


def cmd_variational(config: dict) -> int:
    rel = parse_relation(config["relation"])
    kind = config.get("lagrangian", "L0").lower()
    theta0 = _angle(config, "theta0", math.pi / 2.0)
    r1_0 = float(config["r1"])
    th1, th2 = _angle_interval(config, ("theta1", "theta2"), (0.3, 1.2))
    if kind == "l0" and th1 < math.pi / 2.0 < th2:
        raise CliDomainError("L0 verification interval must not straddle pi/2")
    spec = {"l0": L0Spec(), "hopf-l1": HopfL1Spec(), "cubic-l1": CubicL1Spec()}.get(kind)
    if spec is None:
        raise ParseError(f"unknown Lagrangian kind {kind!r}", 0)
    pad = 0.05
    sol = integrate_cm(rel, theta0, r1_0, (max(th1 - pad, 1e-3),
                                           min(th2 + pad, math.pi - 1e-3)))
    traj = sol.support
    # the standard multiplier is singular on totally-umbilic (sphere)
    # members; the closed-form L1 kinds do not need it
    try:
        mult = Multiplier(rel, float(sol.r1_at(0.5 * (th1 + th2))))
    except SingularMultiplierError:
        if isinstance(spec, L0Spec):
            raise
        mult = None
    thetas = np.linspace(th1, th2, 17)
    res = euler_lagrange_residual(spec, rel, traj, thetas=thetas, mult=mult)
    values = (thetas, traj.value(thetas), traj.rdot(thetas))
    states = [VariationalState(*p) for p in zip(*values)]
    phi_fn = _phi_of_spec(spec, rel, mult)
    helm = helmholtz_residual(rel, phi_fn, states, mult)
    seed = int(config.get("seed", 0))
    rng = np.random.default_rng(seed)
    basis = sine_perturbation_basis(6, th1, th2, rng=rng, extra_random=4)
    stacked = (lambda th: np.array([v(th) for v, _ in basis]),
               lambda th: np.array([vd(th) for _, vd in basis]))
    d2 = second_variation(spec, rel, traj, stacked, (th1, th2), mult)
    theta_base = float(config.get("q_theta_base", max(1e-3, th1)))
    I_arr = Q_arr = np.empty(0)
    if mult is not None:
        # I where the multiplier is defined, Q off the equator; a level
        # curve of I that leaves the multiplier interval gives a NaN Q
        keep = mult.defined(VariationalState(*values).r1)
        I_arr = first_integral_I(rel, VariationalState(*(v[keep] for v in values)), mult)
        off = keep & (np.abs(np.cos(thetas)) > 0.05)
        Q_arr = first_integral_Q(rel, VariationalState(*(v[off] for v in values)), mult,
                                 theta_base=theta_base)
        Q_arr = Q_arr[~np.isnan(Q_arr)]
    report = _base_report(config)
    report.update({
        "lagrangian_kind": type(spec).__name__,
        "el_residual_max": float(np.nanmax(np.abs(res["defect"]))),
        "helmholtz_residual_max": float(np.max(np.abs(helm))),
        "I_drift": (float((I_arr.max() - I_arr.min()) / max(abs(I_arr.mean()), 1e-300))
                    if len(I_arr) else None),
        "Q_drift": (float((Q_arr.max() - Q_arr.min())
                          / max(abs(Q_arr.mean()), float(np.max(np.abs(Q_arr))), 1e-300))
                    if len(Q_arr) else None),
        "second_variation": {"min": float(np.min(d2)),
                             "argmin_basis_index": int(np.argmin(d2))},
    })
    _emit(report, config.get("report"))
    return EXIT_OK


def cmd_export_mesh(config: dict) -> int:
    bundle = read_profile_csv(config["input"])
    finite = np.isfinite(bundle.rho) & np.isfinite(bundle.h)
    if not finite.any():
        raise ParseError("profile has no finite (rho, h) rows", 0)
    curve = ProfileCurve3D(bundle.theta, bundle.rho, bundle.h)
    mesh = revolve_profile(curve, int(config.get("segments", 64)))
    export_obj(config["output"], mesh,
               comment=f"source: {config['input']}")
    stats = mesh_stats(mesh)
    report = _base_report(config)
    report.update(stats)
    _emit(report, config.get("report"))
    return EXIT_OK


def cmd_report(config: dict) -> int:
    bundle = read_profile_csv(config["input"])
    profile = bundle.roc_profile()
    report = _base_report(config)
    report.update({
        "metadata": bundle.metadata,
        "grid_stats": {"n": len(profile.grid), "theta_min": profile.theta_min,
                       "theta_max": profile.theta_max},
        "residual_max": _residual_max(profile, 5e-3),
    })
    report["umbilic"] = _umbilic_report(profile)
    _emit(report, config.get("output"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="weingarten",
                                description="Rotationally symmetric Weingarten surface toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON file with option defaults")
        sp.add_argument("--seed", type=int, help="seed for randomized checks")

    sp = sub.add_parser("parse", help="parse a relation into its canonical variant")
    sp.add_argument("--relation", required=True)
    sp.add_argument("--output")
    add_common(sp)

    sp = sub.add_parser("integrate", help="integrate the Codazzi-Mainardi ODE")
    sp.add_argument("--relation")
    sp.add_argument("--theta0", type=float)
    sp.add_argument("--r1", type=float)
    sp.add_argument("--theta-min", dest="theta_min", type=float)
    sp.add_argument("--theta-max", dest="theta_max", type=float)
    sp.add_argument("--grid-step", dest="grid_step", type=float)
    sp.add_argument("--h-anchor", dest="h_anchor", type=float)
    sp.add_argument("--output", help="profile CSV path")
    sp.add_argument("--report", help="JSON report path")
    add_common(sp)

    sp = sub.add_parser("transform", help="apply a det-1 matrix to a profile CSV")
    sp.add_argument("--input", help="source profile CSV")
    sp.add_argument("--matrix", help="JSON [a,b,c,d]")
    sp.add_argument("--calibration", help="number or 'auto'")
    sp.add_argument("--h-anchor", dest="h_anchor", type=float)
    sp.add_argument("--output")
    sp.add_argument("--report")
    add_common(sp)

    sp = sub.add_parser("classify", help="semi-quadratic classification report")
    sp.add_argument("--relation")
    sp.add_argument("--no-reduction", dest="no_reduction", action="store_true")
    sp.add_argument("--output")
    add_common(sp)

    sp = sub.add_parser("reduce", help="reduce to the pure curvature-linear form")
    sp.add_argument("--relation")
    sp.add_argument("--output")
    add_common(sp)

    sp = sub.add_parser("variational", help="Lagrangian verification report")
    sp.add_argument("--relation")
    sp.add_argument("--lagrangian", default="L0", help="L0 | hopf-l1 | cubic-l1")
    sp.add_argument("--theta0", type=float)
    sp.add_argument("--r1", type=float)
    sp.add_argument("--theta1", type=float)
    sp.add_argument("--theta2", type=float)
    sp.add_argument("--q-theta-base", dest="q_theta_base", type=float)
    sp.add_argument("--report")
    add_common(sp)

    sp = sub.add_parser("export-mesh", help="revolve a profile CSV into an OBJ mesh")
    sp.add_argument("--input")
    sp.add_argument("--segments", type=int, default=64)
    sp.add_argument("--output")
    sp.add_argument("--report")
    add_common(sp)

    sp = sub.add_parser("report", help="diagnostics for an existing profile CSV")
    sp.add_argument("--input")
    sp.add_argument("--output")
    add_common(sp)
    return p


def _resolve_config(args: argparse.Namespace) -> dict:
    config: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise CliUsageError(f"config file {args.config} must hold a JSON object")
        config.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            config[key] = value
    config["command"] = args.command
    return config


_COMMANDS = {
    "parse": cmd_parse,
    "integrate": cmd_integrate,
    "transform": cmd_transform,
    "classify": cmd_classify,
    "reduce": cmd_reduce,
    "variational": cmd_variational,
    "export-mesh": cmd_export_mesh,
    "report": cmd_report,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_resolve_config(args))
    except (ParseError, RelationError, CliUsageError, KeyError, json.JSONDecodeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EmptyDomainError, CliDomainError) as exc:
        print(f"inadmissible domain: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (IntegrationError, SingularEvaluationError, SingularMultiplierError,
            FlatPointError, UndefinedSlopeError, ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
