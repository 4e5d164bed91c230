"""Command-line front end.

Subcommands: parse | integrate | transform | classify | reduce |
variational | export-mesh | report.  ``_OPTIONS`` declares every option
once (its reader, domain and default, or required) and ``_COMMANDS`` each
subcommand's options.  Values come from flags or a --config JSON object
(flags win) and are checked once, unknown config keys included.  Exit
codes: 0 success, 1 usage/parse error (every input error), 2 numeric
failure, 3 empty or inadmissible domain.  All reports are schema-versioned
JSON embedding the resolved configuration; the rotation axis is +z.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .expressions import ParseError
from .geometry import (
    POLE_EPS,
    FlatPointError,
    ProfileCurve3D,
    SingularEvaluationError,
    cm_residual,
    embed_profile,
)
from .integrate import IntegrationError, StepControl, integrate_cm
from .meshing import export_obj, mesh_stats, revolve_profile
from .mobius import EmptyDomainError, MoebiusElement, decompose, induced_surface
from .profile_io import ProfileBundle, read_profile_csv, write_json_atomic, write_profile_csv
from .relations import (
    CubicRoC,
    LinearHopf,
    RelationError,
    SemiQuadratic,
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


# ---------------------------------------------------------------------------
# the option table


_NUMBER = (int, float, str)   # the JSON types of a number; a flag gives its text


def _matrix(value) -> list[float]:
    """The numbers of a JSON list, or of its text."""
    entries = json.loads(value) if isinstance(value, str) else value
    if not isinstance(entries, list) or any(type(x) not in _NUMBER for x in entries):
        raise ValueError(value)
    return [float(x) for x in entries]


_REQUIRED = object()   # the default of an option that has none


class _Option(NamedTuple):
    types: tuple         # the types a value may have: JSON's, or str from a flag
    read: Callable       # the value -> the option's value; ValueError if malformed
    ok: Callable         # the domain of the value read
    what: str            # the domain, for error messages and --help
    default: object = _REQUIRED   # a value, None, or a function of the options before it


_TEXT = ((str,), str, bool, "nonempty text")
_FINITE = (_NUMBER, float, math.isfinite, "a finite number")
_ANGLE = (_NUMBER, float, lambda x: 0.0 <= x <= math.pi, "an angle in [0, pi]")
_LAGRANGIANS = {"l0": L0Spec, "hopf-l1": HopfL1Spec, "cubic-l1": CubicL1Spec}

_OPTIONS = {
    "relation": _Option(*_TEXT),
    "input": _Option(*_TEXT),
    "output": _Option(*_TEXT, None),
    "report": _Option(*_TEXT, None),
    "r1": _Option(*_FINITE),
    "h_anchor": _Option(*_FINITE, 0.0),
    "theta0": _Option(*_ANGLE, math.pi / 2.0),
    "theta_min": _Option(*_ANGLE, 1e-6),
    "theta_max": _Option(*_ANGLE, math.pi - 1e-6),
    "theta1": _Option(*_ANGLE, 0.3),
    "theta2": _Option(*_ANGLE, 1.2),
    "q_theta_base": _Option(*_ANGLE, lambda config: max(1e-3, config["theta1"])),
    "grid_step": _Option(_NUMBER, float, lambda x: 0.0 < x < math.inf,
                         "a positive finite number", StepControl.grid_step),
    "segments": _Option((int, str), int, lambda n: n >= 3, "an integer >= 3", 64),
    "seed": _Option((int, str), int, lambda n: n >= 0, "an integer >= 0", 0),
    "matrix": _Option((list, str), _matrix,   # a non-finite entry fails the determinant
                      lambda m: len(m) == 4 and abs(m[0] * m[3] - m[1] * m[2] - 1.0) <= 1e-9,
                      "4 finite numbers [a, b, c, d] with ad - bc = 1, as JSON"),
    "calibration": _Option(_NUMBER, lambda c: c if c == "auto" else float(c),
                           lambda c: c == "auto" or (math.isfinite(c) and c != 0.0),
                           "'auto' or a finite nonzero number", "auto"),
    "lagrangian": _Option((str,), str.lower, _LAGRANGIANS.__contains__,
                          "L0, hopf-l1 or cubic-l1, in any case", "l0"),
    "no_reduction": _Option((bool,), bool, lambda b: True, "a JSON boolean", False),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _run_interval(config: dict) -> tuple[float, float]:
    """The run's angles: integrate's, or variational's [theta1, theta2] padded by 0.05."""
    if "theta_min" in config:
        return config["theta_min"], config["theta_max"]
    return max(config["theta1"] - 0.05, 1e-3), min(config["theta2"] + 0.05, math.pi - 1e-3)


def _check_rules(config: dict) -> None:
    """The rules between options, once every value is read."""
    for lo, hi in (("theta_min", "theta_max"), ("theta1", "theta2")):
        if lo in config and not config[lo] < config[hi]:
            raise CliUsageError(f"{lo} {config[lo]!r} must be below {hi} {config[hi]!r}")
    if config.get("lagrangian") == "l0" and config["theta1"] < math.pi / 2.0 < config["theta2"]:
        raise CliDomainError("L0 verification interval must not straddle pi/2")
    if "theta0" in config:   # a start within POLE_EPS of a pole is integrate_cm's pole start
        lo, hi, theta0 = *_run_interval(config), config["theta0"]
        if not (lo <= theta0 <= hi or min(theta0, math.pi - theta0) < POLE_EPS):
            raise CliUsageError(f"theta0 {theta0!r} must lie in the run interval "
                                f"[{lo!r}, {hi!r}] or within {POLE_EPS} of a pole")


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
# subcommands: each takes the resolved config, every declared option present


def cmd_parse(config: dict) -> int:
    rel = parse_relation(config["relation"])
    report = _base_report(config)
    report.update({"variant": type(rel).__name__, "canonical": render_relation(rel)})
    if isinstance(rel, SemiQuadratic):
        report["coefficients"] = list(rel.coefficients())
    elif isinstance(rel, LinearHopf):
        report["coefficients"] = [rel.lam, rel.C]
    elif isinstance(rel, CubicRoC):
        report["coefficients"] = [rel.gamma]
    _emit(report, config["output"])
    return EXIT_OK


def cmd_integrate(config: dict) -> int:
    rel = parse_relation(config["relation"])
    profile = integrate_cm(rel, config["theta0"], config["r1"], _run_interval(config),
                           step_control=StepControl(grid_step=config["grid_step"]))
    residual_max = _residual_max(profile, 2e-6)
    try:
        emb = embed_profile(profile, h_anchor=config["h_anchor"])
    except FlatPointError:
        emb = None
    bundle = ProfileBundle.from_parts(profile, emb, metadata={"relation": render_relation(rel)})
    if config["output"]:
        write_profile_csv(config["output"], bundle)
    report = _base_report(config)
    report.update({
        "relation": render_relation(rel),
        "start": {"theta0": config["theta0"], "r1_0": config["r1"]},
        "stop_reason": profile.meta["stop_reason"],
        "grid_stats": {"n": len(profile.grid),
                       "theta_min": profile.theta_min,
                       "theta_max": profile.theta_max},
        "umbilic": _umbilic_report(profile),
        "residual_max": residual_max,
    })
    _emit(report, config["report"])
    return EXIT_OK


def cmd_transform(config: dict) -> int:
    bundle = read_profile_csv(config["input"])
    M = MoebiusElement(*config["matrix"])
    profile = bundle.roc_profile()
    out = induced_surface(M, profile, cal=config["calibration"], h_anchor=config["h_anchor"])
    report = _base_report(config)
    report["matrix"] = config["matrix"]
    report["factors"] = [f.to_json() for f in decompose(M)]
    if out.kind != "surface":
        report["degenerate"] = out.kind
        _emit(report, config["report"])
        return EXIT_OK
    img = out.profile
    report.update({
        "calibration": out.A,
        "grid_stats": {"n": len(img.grid), "theta_min": img.theta_min,
                       "theta_max": img.theta_max},
        "cm_residual_max": _residual_max(img, 5e-3),
    })
    metadata = {"transform_of": img.meta["transform_of"],
                "matrix": json.dumps(config["matrix"]),
                "calibration": out.A}
    if img.relation is not None:
        metadata["relation"] = render_relation(img.relation)
    out_bundle = ProfileBundle(img.grid, np.full(len(img.grid), np.nan),
                               img.r1, img.r2, out.embedding.rho, out.embedding.h, metadata)
    if config["output"]:
        write_profile_csv(config["output"], out_bundle)
    _emit(report, config["report"])
    return EXIT_OK


def cmd_classify(config: dict) -> int:
    rel = parse_relation(config["relation"])
    try:
        to_semiquadratic(rel)
    except RelationError as exc:
        raise RelationError(f"not semi-quadratic: {exc}") from exc
    report = _base_report(config)
    report.update(classification_report(rel, reduction=not config["no_reduction"]))
    _emit(report, config["output"])
    return EXIT_OK


def cmd_reduce(config: dict) -> int:
    rel = parse_relation(config["relation"])
    M, lam = reduce_to_pure_linear(rel)
    report = _base_report(config)
    report.update({"matrix": M.to_json(), "lambda": lam,
                   "target": f"k2 = {lam}*k1"})
    _emit(report, config["output"])
    return EXIT_OK


def cmd_variational(config: dict) -> int:
    rel = parse_relation(config["relation"])
    th1, th2 = config["theta1"], config["theta2"]
    spec = _LAGRANGIANS[config["lagrangian"]]()
    sol = integrate_cm(rel, config["theta0"], config["r1"], _run_interval(config))
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
    rng = np.random.default_rng(config["seed"])
    basis = sine_perturbation_basis(6, th1, th2, rng=rng, extra_random=4)
    stacked = (lambda th: np.array([v(th) for v, _ in basis]),
               lambda th: np.array([vd(th) for _, vd in basis]))
    d2 = second_variation(spec, rel, traj, stacked, (th1, th2), mult)
    I_arr = Q_arr = np.empty(0)
    if mult is not None:
        # I where the multiplier is defined, Q off the equator; a level
        # curve of I that leaves the multiplier interval gives a NaN Q
        keep = mult.defined(VariationalState(*values).r1)
        I_arr = first_integral_I(rel, VariationalState(*(v[keep] for v in values)), mult)
        off = keep & (np.abs(np.cos(thetas)) > 0.05)
        Q_arr = first_integral_Q(rel, VariationalState(*(v[off] for v in values)), mult,
                                 theta_base=config["q_theta_base"])
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
    _emit(report, config["report"])
    return EXIT_OK


def cmd_export_mesh(config: dict) -> int:
    bundle = read_profile_csv(config["input"])
    finite = np.isfinite(bundle.rho) & np.isfinite(bundle.h)
    if not finite.any():
        raise ParseError("profile has no finite (rho, h) rows", 0)
    curve = ProfileCurve3D(bundle.theta, bundle.rho, bundle.h)
    mesh = revolve_profile(curve, config["segments"])
    export_obj(config["output"], mesh,
               comment=f"source: {config['input']}")
    stats = mesh_stats(mesh)
    report = _base_report(config)
    report.update(stats)
    _emit(report, config["report"])
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
        "umbilic": _umbilic_report(profile),
    })
    _emit(report, config["output"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


class _Command(NamedTuple):
    handler: Callable[[dict], int]
    help: str
    options: tuple[str, ...]          # in order: a derived default reads the ones before it
    required: tuple[str, ...] = ()    # options this subcommand needs although they have a default


_COMMANDS = {
    "parse": _Command(cmd_parse, "parse a relation into its canonical variant",
                      ("relation", "output")),
    "integrate": _Command(cmd_integrate, "integrate the Codazzi-Mainardi ODE",
                          ("relation", "theta0", "r1", "theta_min", "theta_max", "grid_step",
                           "h_anchor", "output", "report")),
    "transform": _Command(cmd_transform, "apply a det-1 matrix to a profile CSV",
                          ("input", "matrix", "calibration", "h_anchor", "output", "report")),
    "classify": _Command(cmd_classify, "semi-quadratic classification report",
                         ("relation", "no_reduction", "output")),
    "reduce": _Command(cmd_reduce, "reduce to the pure curvature-linear form",
                       ("relation", "output")),
    "variational": _Command(cmd_variational, "Lagrangian verification report",
                            ("relation", "lagrangian", "theta0", "r1", "theta1", "theta2",
                             "q_theta_base", "seed", "report")),
    "export-mesh": _Command(cmd_export_mesh, "revolve a profile CSV into an OBJ mesh",
                            ("input", "segments", "output", "report"), required=("output",)),
    "report": _Command(cmd_report, "diagnostics for an existing profile CSV",
                       ("input", "output")),
}


class _Parser(argparse.ArgumentParser):
    """argparse whose own errors are usage errors (exit 1), not its exit 2."""

    def error(self, message):
        raise CliUsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per ``_COMMANDS`` row; a flag not given is absent, not defaulted."""
    p = _Parser(prog="weingarten",
                description="Rotationally symmetric Weingarten surface toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON object of option values (flags win)")
        for key in command.options:
            opt = _OPTIONS[key]
            sp.add_argument(_flag(key), dest=key, help=opt.what,
                            action="store_true" if opt.types == (bool,) else "store")
    return p


def _resolve_config(args: argparse.Namespace) -> dict:
    """The subcommand's options: --config, then the flags over it, each value
    read and checked through its ``_OPTIONS`` row, defaults filled in."""
    flags = dict(vars(args))
    command, path = flags.pop("command"), flags.pop("config", None)
    given: dict = {}
    if path:
        with open(path) as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise CliUsageError(f"config file {path} must hold a JSON object")
    declared = _COMMANDS[command].options
    unknown = sorted(set(given) - set(declared))
    if unknown:
        raise CliUsageError(f"config file {path}: {command} has no option {unknown[0]!r}")
    given.update(flags)
    config = {"command": command}
    for key in declared:
        opt = _OPTIONS[key]
        if key in given:
            try:
                ok = type(given[key]) in opt.types and opt.ok(value := opt.read(given[key]))
            except (ValueError, OverflowError):
                ok = False
            if not ok:
                source = _flag(key) if key in flags else f"config key {key!r}"
                raise CliUsageError(f"{source} must be {opt.what}, not {given[key]!r}")
            config[key] = value
        elif opt.default is _REQUIRED or key in _COMMANDS[command].required:
            raise CliUsageError(f"{command} needs {_flag(key)} (config key {key!r})")
        else:
            config[key] = opt.default(config) if callable(opt.default) else opt.default
    _check_rules(config)
    return config


def main(argv: Optional[list[str]] = None) -> int:
    try:
        config = _resolve_config(_build_parser().parse_args(argv))
        return _COMMANDS[config["command"]].handler(config)
    except (ParseError, RelationError, CliUsageError, json.JSONDecodeError, OSError) as exc:
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
