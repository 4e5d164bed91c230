import json
import math
import os

import numpy as np
import pytest

from weingarten import (
    MoebiusElement,
    StepControl,
    VariationalState,
    integrate_cm,
    parse_relation,
    transform_relation,
)
from weingarten import cli
from weingarten.cli import main
from weingarten.profile_io import read_profile_csv


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def hopf_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    csv = os.path.join(d, "hopf.csv")
    rep = os.path.join(d, "hopf.json")
    rc = run(["integrate", "--relation", "r2 = 2*r1", "--theta0", "1.5707963",
              "--r1", "1.0", "--theta-min", "0.001", "--theta-max", "3.140",
              "--grid-step", "0.005",
              "--output", csv, "--report", rep])
    assert rc == 0
    return csv, rep


class TestIntegrateCmd:
    def test_profile_matches_sine(self, hopf_csv):
        csv, rep = hopf_csv
        bundle = read_profile_csv(csv)
        assert np.max(np.abs(bundle.r1 - np.sin(bundle.theta))) <= 1e-7
        report = json.load(open(rep))
        assert report["schema"] == 1
        assert report["stop_reason"] == "completed"
        assert report["residual_max"] <= 1e-7
        assert report["config"]["relation"] == "r2 = 2*r1"

    def test_cmc_sphere(self, tmp_path):
        csv = os.path.join(tmp_path, "cmc.csv")
        rc = run(["integrate", "--relation", "k1 + k2 = 4", "--theta0", "1.5707963",
                  "--r1", "0.5", "--output", csv])
        assert rc == 0
        bundle = read_profile_csv(csv)
        assert np.allclose(bundle.r1, 0.5, atol=1e-10)
        assert np.allclose(bundle.r2, 0.5, atol=1e-10)

    def test_r_column_is_the_support_samples(self, hopf_csv):
        # the CSV's r column is the support's grid samples, not a second quadrature pass
        profile = integrate_cm(parse_relation("r2 = 2*r1"), 1.5707963, 1.0, (0.001, 3.140),
                               step_control=StepControl(grid_step=0.005))
        np.testing.assert_array_equal(read_profile_csv(hopf_csv[0]).r, profile.support.r)

    def test_malformed_relation_exit_1(self, capsys):
        assert run(["integrate", "--relation", "r2 == r1", "--r1", "1.0"]) == 1
        assert "position" in capsys.readouterr().err

    def test_start_outside_the_domain_of_F_exit_2(self, capsys):
        assert run(["integrate", "--relation", "r2 = sqrt(r1) + 1", "--r1", "-1"]) == 2
        assert "not defined at r1_0" in capsys.readouterr().err

    def test_config_file(self, tmp_path):
        cfg = os.path.join(tmp_path, "cfg.json")
        out = os.path.join(tmp_path, "out.csv")
        json.dump({"relation": "r2 = 2*r1", "r1": 1.0, "theta0": 1.5707963,
                   "theta_min": 0.4, "theta_max": 2.0, "output": out}, open(cfg, "w"))
        assert run(["integrate", "--config", cfg]) == 0
        assert os.path.exists(out)

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
    def test_bad_config_file_exit_1(self, tmp_path, capsys, content):
        # a missing file, invalid JSON and a JSON array: one error line, no traceback
        cfg = os.path.join(tmp_path, "cfg.json")
        if content is not None:
            with open(cfg, "w") as fh:
                fh.write(content)
        assert run(["integrate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("extra", [["--theta0", "nan"], ["--theta0", "4"],
                                       ["--theta-max", "inf"],
                                       ["--theta-min", "2.0", "--theta-max", "1.0"]])
    def test_bad_angle_or_interval_exit_1(self, capsys, extra):
        # input errors, not numeric failures
        assert run(["integrate", "--relation", "r2 = 2*r1", "--r1", "1.0"] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTransformCmd:
    def test_translate_sphere(self, tmp_path):
        csv = os.path.join(tmp_path, "sph.csv")
        run(["integrate", "--relation", "r2 = r1", "--theta0", "1.5707963",
             "--r1", "1.0", "--theta-min", "0.01", "--theta-max", "3.13",
             "--output", csv])
        out = os.path.join(tmp_path, "sph_t.csv")
        rep = os.path.join(tmp_path, "t.json")
        rc = run(["transform", "--input", csv, "--matrix", "[1,2,0,1]",
                  "--calibration", "1", "--output", out, "--report", rep])
        assert rc == 0
        report = json.load(open(rep))
        assert report["factors"][0] == {"type": "parallel_translation", "parameter": 2.0}
        assert report["cm_residual_max"] <= 1e-6
        bundle = read_profile_csv(out)
        assert np.allclose(bundle.r1, 3.0, atol=1e-8)

    def test_reciprocal_auto(self, tmp_path):
        csv = os.path.join(tmp_path, "sph.csv")
        run(["integrate", "--relation", "r2 = r1", "--theta0", "1.5707963",
             "--r1", "2.0", "--theta-min", "0.001", "--theta-max", "3.1405",
             "--output", csv])
        out = os.path.join(tmp_path, "recip.csv")
        rc = run(["transform", "--input", csv, "--matrix", "[0,-1,1,0]",
                  "--calibration", "auto", "--output", out])
        assert rc == 0
        bundle = read_profile_csv(out)
        assert np.allclose(bundle.r1, -0.5, atol=1e-8)

    def test_image_csv_carries_transported_relation(self, tmp_path, capsys):
        src = os.path.join(tmp_path, "src.csv")
        img = os.path.join(tmp_path, "img.csv")
        assert run(["integrate", "--relation", "r2 = 3*r1 - 2", "--r1", "1.5",
                    "--grid-step", "0.01", "--output", src,
                    "--report", os.path.join(tmp_path, "src.json")]) == 0
        assert run(["transform", "--input", src, "--matrix", "[1, 0.5, 0, 1]",
                    "--output", img, "--report", os.path.join(tmp_path, "img.json")]) == 0
        meta = read_profile_csv(img).metadata
        want = transform_relation(MoebiusElement(1.0, 0.5, 0.0, 1.0),
                                  parse_relation("r2 = 3*r1 - 2"))
        assert parse_relation(meta["relation"]) == want
        assert meta["transform_of"] == "r2 = 3*r1 - 2"
        assert run(["report", "--input", img]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["umbilic"]["slope"] == pytest.approx(3.0, abs=5e-2)

    def test_bad_determinant_exit_1(self, hopf_csv):
        csv, _ = hopf_csv
        assert run(["transform", "--input", csv, "--matrix", "[2,0,0,2]"]) == 1

    @pytest.mark.parametrize("extra", [
        ["--matrix", "5"],
        ["--matrix", "[1,0,0]"],
        ["--matrix", "[1,0,0,\"x\"]"],
        ["--matrix", "[1,0,0,1]", "--calibration", "foo"],
        ["--matrix", "[1,0,0,1]", "--calibration", "0"],
        ["--matrix", "[1,0,0,1]", "--calibration", "nan"],
    ])
    def test_bad_matrix_or_calibration_exit_1(self, hopf_csv, capsys, extra):
        csv, _ = hopf_csv
        assert run(["transform", "--input", csv] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestClassifyReduce:
    def test_cmc(self, capsys):
        assert run(["classify", "--relation", "k1 + k2 = 4"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["class"] == "elliptic"
        assert rep["lambda1"] == 0.0 and rep["lambda2"] == 4.0
        assert rep["reduction"]["lambda"] == pytest.approx(-1.0)

    def test_lw_path(self, capsys):
        assert run(["classify", "--relation", "2*H + 3*K = 1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["lambda1"] == 0.0

    def test_not_semiquadratic_exit_1(self, capsys):
        assert run(["classify", "--relation", "r2 = r1^3"]) == 1
        assert "not semi-quadratic" in capsys.readouterr().err

    def test_reduce_cmd(self, capsys):
        assert run(["reduce", "--relation", "k1 + k2 = 4"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["lambda"] == pytest.approx(-1.0)


class TestVariationalCmd:
    def test_hopf_l1_sphere_member(self, tmp_path):
        rep_path = os.path.join(tmp_path, "v.json")
        rc = run(["variational", "--relation", "r2 = 0.5*r1 + 1", "--lagrangian",
                  "hopf-l1", "--theta0", "0.75", "--r1", "2.0",
                  "--theta1", "0.3", "--theta2", "1.2", "--report", rep_path])
        assert rc == 0
        rep = json.load(open(rep_path))
        assert rep["el_residual_max"] <= 1e-8
        assert rep["second_variation"]["min"] > 0.0

    def test_l0_doubling(self, tmp_path):
        rep_path = os.path.join(tmp_path, "v0.json")
        rc = run(["variational", "--relation", "r2 = 2*r1", "--lagrangian", "L0",
                  "--theta0", "0.75", "--r1", "0.68", "--theta1", "0.3",
                  "--theta2", "1.2", "--report", rep_path])
        assert rc == 0
        rep = json.load(open(rep_path))
        assert rep["el_residual_max"] <= 1e-6
        assert rep["helmholtz_residual_max"] <= 1e-6
        assert rep["I_drift"] <= 1e-6

    def test_Q_drift_from_the_level_curves_that_stay_inside(self, tmp_path, monkeypatch):
        args = ["variational", "--relation", "r2 = 2.5*r1 + 0.05*sin(r1)", "--lagrangian", "L0",
                "--theta0", "0.75", "--r1", "0.8", "--theta1", "0.3", "--theta2", "1.2"]
        clean_path = os.path.join(tmp_path, "clean.json")
        assert run(args + ["--report", clean_path]) == 0
        real_Q = cli.first_integral_Q

        def with_a_leaving_member(rel, state, mult, theta_base):
            # toward theta_base = 0.3 the level curve from (0.05, r1 = 5) rises
            # past the multiplier interval's upper end
            extra = VariationalState(np.append(state.theta, 0.05), np.append(state.r, 5.0),
                                     np.append(state.rdot, 0.0))
            Q = real_Q(rel, extra, mult, theta_base=theta_base)
            assert math.isnan(Q[-1]) and np.all(np.isfinite(Q[:-1]))
            return Q

        monkeypatch.setattr(cli, "first_integral_Q", with_a_leaving_member)
        rep_path = os.path.join(tmp_path, "v.json")
        assert run(args + ["--report", rep_path]) == 0
        rep, clean = json.load(open(rep_path)), json.load(open(clean_path))
        assert math.isfinite(rep["Q_drift"]) and rep["Q_drift"] == clean["Q_drift"]

    @pytest.mark.parametrize("extra", [["--theta1", "1.2", "--theta2", "0.3"],
                                       ["--theta1", "nan"], ["--theta0", "-0.5"]])
    def test_bad_angle_or_interval_exit_1(self, capsys, extra):
        args = ["variational", "--relation", "r2 = 2*r1", "--lagrangian", "L0",
                "--theta0", "0.75", "--r1", "0.68"]
        assert run(args + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_interval_across_equator_exit_3(self):
        rc = run(["variational", "--relation", "r2 = 2*r1", "--lagrangian", "L0",
                  "--theta0", "1.0", "--r1", "0.8",
                  "--theta1", "1.2", "--theta2", "1.9"])
        assert rc == 3


class TestMeshAndReport:
    def test_export_mesh_watertight(self, hopf_csv, tmp_path, capsys):
        csv, _ = hopf_csv
        obj = os.path.join(tmp_path, "m.obj")
        rc = run(["export-mesh", "--input", csv, "--segments", "32",
                  "--output", obj])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["euler_characteristic"] == 2
        assert rep["watertight"]
        text = open(obj).read()
        n_v = sum(1 for ln in text.splitlines() if ln.startswith("v "))
        n_vn = sum(1 for ln in text.splitlines() if ln.startswith("vn "))
        assert n_v == n_vn > 0

    def test_empty_profile_exit(self, tmp_path):
        bad = os.path.join(tmp_path, "bad.csv")
        with open(bad, "w") as fh:
            fh.write("theta,r,r1,r2,rho,h\n")
        rc = run(["export-mesh", "--input", bad, "--output",
                  os.path.join(tmp_path, "x.obj")])
        assert rc in (1, 2)

    def test_report_cmd(self, hopf_csv, capsys):
        csv, _ = hopf_csv
        assert run(["report", "--input", csv]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["residual_max"] <= 1e-6
        assert rep["umbilic"]["slope"] == pytest.approx(2.0, abs=5e-2)

    @pytest.mark.parametrize("rows, line, fields", [
        (["1,2,3,4,5", "2,3,4,5,6"], 3, 5),          # five columns under the six-column header
        (["1,2,3,4,5,6", "2,3,4,5,6,7,8"], 4, 7),    # one ragged row
    ])
    def test_report_on_wrong_field_count_exit_1(self, tmp_path, capsys, rows, line, fields):
        bad = os.path.join(tmp_path, "bad.csv")
        with open(bad, "w") as fh:
            fh.write("\n".join(["# weingarten profile", "theta,r,r1,r2,rho,h"] + rows) + "\n")
        assert run(["report", "--input", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"line {line} has {fields} fields, expected 6" in err

    @pytest.mark.parametrize("lines, message", [
        (["theta,r,r1,r2,rho,height", "1,2,3,4,5,6"],
         "line 2 has columns 'theta,r,r1,r2,rho,height', expected 'theta,r,r1,r2,rho,h'"),
        (["theta,r,r1,r2,rho,h", "1,2,3,4,5,6", "", "2,3,abc,5,6,7"],
         "line 5 has a non-numeric field: '2,3,abc,5,6,7'"),
    ])
    def test_report_on_bad_header_or_field_exit_1(self, tmp_path, capsys, lines, message):
        bad = os.path.join(tmp_path, "bad.csv")
        with open(bad, "w") as fh:
            fh.write("\n".join(["# weingarten profile"] + lines) + "\n")
        assert run(["report", "--input", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_parse_cmd_variants(capsys):
    assert run(["parse", "--relation", "r2 = 3*r1 - 5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["variant"] == "LinearHopf"
    assert rep["coefficients"] == [3.0, -5.0]


def test_parse_cmd_lone_dot_is_a_usage_error(capsys):
    assert run(["parse", "--relation", "r2 = ."]) == 1
    assert "position 5" in capsys.readouterr().err


def test_deterministic_given_config_and_seed(tmp_path):
    args = ["variational", "--relation", "r2 = 2*r1", "--lagrangian", "L0",
            "--theta0", "0.75", "--r1", "0.68", "--theta1", "0.3",
            "--theta2", "1.2", "--seed", "7"]
    rep_a = os.path.join(tmp_path, "a.json")
    rep_b = os.path.join(tmp_path, "b.json")
    assert run(args + ["--report", rep_a]) == 0
    assert run(args + ["--report", rep_b]) == 0
    a = json.load(open(rep_a))
    b = json.load(open(rep_b))
    a["config"].pop("report")
    b["config"].pop("report")
    assert a == b
    assert a["config"]["seed"] == 7


# ---------------------------------------------------------------------------
# the option table: every rejected value exits 1 before any relation is parsed

# valid values of the options each subcommand requires
_NEEDS = {"parse": {"relation": "r2 = 2*r1"},
          "integrate": {"relation": "r2 = 2*r1", "r1": "1.0"},
          "transform": {"input": "in.csv", "matrix": "[1, 0, 0, 1]"},
          "classify": {"relation": "k1 + k2 = 4"},
          "variational": {"relation": "r2 = 2*r1", "r1": "0.68", "theta0": "0.75"},
          "export-mesh": {"input": "in.csv", "output": "out.obj"},
          "report": {"input": "in.csv"}}

_TEXT = ["", True, ["r2 = r1"], 5]
_FINITE = ["nan", "inf", "-inf", "", "abc", True, [1.0], math.nan, math.inf]
_ANGLE = _FINITE + ["-0.5", "4", -1e-9, 3.2]

# (subcommand, option): values its row rejects
_REJECTED = {
    ("parse", "relation"): _TEXT,
    ("transform", "input"): _TEXT,
    ("parse", "output"): _TEXT,
    ("integrate", "report"): _TEXT,
    ("variational", "lagrangian"): _TEXT + ["foo", "L1"],
    ("integrate", "r1"): _FINITE,
    ("transform", "h_anchor"): _FINITE,
    ("integrate", "theta0"): _ANGLE,
    ("integrate", "theta_min"): _ANGLE,
    ("integrate", "theta_max"): _ANGLE,
    ("variational", "theta1"): _ANGLE,
    ("variational", "theta2"): _ANGLE,
    ("variational", "q_theta_base"): _ANGLE,
    ("integrate", "grid_step"): _FINITE + ["0", "-1", 0, -1e-300],
    ("export-mesh", "segments"): ["2", "-3", "3.5", "1e308", 3.0, 1e308, "nan", "", True, [8]],
    ("variational", "seed"): ["-1", "1.5", "1e3", -1, 2.0, "nan", "", True, [7]],
    ("transform", "matrix"): ["5", "", "[1,0,0]", "[1,0,0,\"x\"]", "[2,0,0,2]",
                              "[NaN, 0, 0, 1]", "[1, 0, 0, Infinity]", "[true, 0, 0, 1]",
                              "{}", [1, 0, 0], [1, 0, 0, "x"], [2, 0, 0, 2], 1, True],
    ("transform", "calibration"): _FINITE + ["foo", "0", 0, -0.0],
    ("classify", "no_reduction"): [1, 0, "true", "", None, [True]],
}


def _cases():
    for (command, key), values in _REJECTED.items():
        for value in values:
            yield pytest.param(command, key, value, "config", id=f"{key}-config-{value!r}")
            if isinstance(value, str) and key != "no_reduction":   # a switch takes no value
                yield pytest.param(command, key, value, "flag", id=f"{key}-flag-{value!r}")


def _argv(command, options):
    return [command] + [f"--{k.replace('_', '-')}={v}" for k, v in options.items()]


def _config(tmp_path, **values):
    cfg = os.path.join(tmp_path, "cfg.json")
    with open(cfg, "w") as fh:
        json.dump(values, fh)
    return cfg


@pytest.mark.parametrize("command, key, value, via", list(_cases()))
def test_rejected_value_exit_1(tmp_path, capsys, command, key, value, via):
    needs = {k: v for k, v in _NEEDS.get(command, {}).items() if k != key}
    argv = _argv(command, needs)
    if via == "flag":
        argv.append(f"--{key.replace('_', '-')}={value}")
        named = f"--{key.replace('_', '-')}"
    else:
        argv += ["--config", _config(tmp_path, **{key: value})]
        named = f"config key {key!r}"
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} must be ") and err.count("\n") == 1


class TestConfigValues:
    """Every option can come from --config; flags win; the report echoes the resolved set."""

    def test_segments(self, hopf_csv, tmp_path, capsys):
        by_flag, by_config = (os.path.join(tmp_path, n) for n in ("flag.obj", "config.obj"))
        assert run(["export-mesh", "--input", hopf_csv[0], "--segments", "8",
                    "--output", by_flag]) == 0
        capsys.readouterr()
        assert run(["export-mesh", "--input", hopf_csv[0], "--output", by_config,
                    "--config", _config(tmp_path, segments=8)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["segments"] == 8
        assert open(by_config).read() == open(by_flag).read()

    def test_lagrangian_and_derived_defaults(self, tmp_path):
        rep_path = os.path.join(tmp_path, "v.json")
        assert run(["variational", "--relation", "r2 = 0.5*r1 + 1", "--theta0", "0.75",
                    "--r1", "2.0", "--report", rep_path,
                    "--config", _config(tmp_path, lagrangian="hopf-l1")]) == 0
        rep = json.load(open(rep_path))
        assert rep["lagrangian_kind"] == "HopfL1Spec"
        config = rep["config"]
        assert (config["theta1"], config["theta2"], config["q_theta_base"]) == (0.3, 1.2, 0.3)
        assert config["seed"] == 0

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_no_reduction(self, tmp_path, capsys, how):
        extra = (["--no-reduction"] if how == "flag"
                 else ["--config", _config(tmp_path, no_reduction=True)])
        assert run(["classify", "--relation", "k1 + k2 = 4"] + extra) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["reduction"] is None and rep["config"]["no_reduction"] is True

    def test_parse_relation(self, tmp_path, capsys):
        assert run(["parse", "--config", _config(tmp_path, relation="r2 = 3*r1 - 5")]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["variant"] == "LinearHopf"
        assert rep["config"] == {"command": "parse", "relation": "r2 = 3*r1 - 5",
                                 "output": None}

    def test_flags_win(self, tmp_path, capsys):
        assert run(["parse", "--relation", "r2 = 3*r1 - 5",
                    "--config", _config(tmp_path, relation="r2 = .")]) == 0
        assert json.loads(capsys.readouterr().out)["coefficients"] == [3.0, -5.0]

    def test_numeric_text_reads_as_a_flag(self, hopf_csv, tmp_path, capsys):
        assert run(["report", "--input", hopf_csv[0]]) == 0
        capsys.readouterr()
        cfg = _config(tmp_path, matrix="[1, 0.5, 0, 1]", calibration="1", h_anchor="0.25")
        assert run(["transform", "--input", hopf_csv[0], "--config", cfg]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["matrix"], config["calibration"], config["h_anchor"]) == (
            [1.0, 0.5, 0.0, 1.0], 1.0, 0.25)


@pytest.mark.parametrize("argv, message", [
    (["integrate", "--relation", "r2 = 2*r1", "--r1", "1", "--config", "GRID"], "'grid-step'"),
    (["integrate", "--relation", "r2 = 2*r1", "--r1", "1", "--config", "COMMAND"],
     "'command'"),
    (["parse", "--relation", "r2 = 2*r1", "--seed", "3"], "unrecognized arguments"),
    (["integrate", "--relation", "r2 = 2*r1", "--r1", "1", "--bogus", "3"],
     "unrecognized arguments"),
    (["integrate", "--relation", "r2 = 2*r1", "--r1"], "expected one argument"),
    (["frobnicate"], "invalid choice"),
    ([], "required: command"),
    (["integrate", "--relation", "r2 = 2*r1"], "integrate needs --r1"),
    (["export-mesh", "--input", "in.csv"], "export-mesh needs --output"),
    (["variational", "--relation", "r2 = 2*r1", "--r1", "0.68", "--theta1", "0",
      "--theta2", "0.5"], "theta0 1.5707963267948966 must lie in the run interval"),
    (["variational", "--relation", "r2 = 2*r1", "--r1", "0.68", "--theta0", "0.2"],
     "theta0 0.2 must lie in the run interval"),
    (["integrate", "--relation", "r2 = 2*r1", "--r1", "1", "--theta0", "0.1",
      "--theta-min", "0.5", "--theta-max", "2.0"], "theta0 0.1 must lie in the run interval"),
])
def test_usage_errors_exit_1(tmp_path, capsys, argv, message):
    # unknown config keys, options a subcommand lacks, argparse's own errors,
    # missing options and a start outside variational's run interval
    files = {"GRID": {"grid-step": 0.1}, "COMMAND": {"command": "integrate"}}
    argv = [_config(tmp_path, **files[a]) if a in files else a for a in argv]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_pole_start_outside_the_run_interval(tmp_path):
    # theta0 = 0 seeds a pole start, which integrate_cm launches inside the interval
    rep_path = os.path.join(tmp_path, "v.json")
    assert run(["variational", "--relation", "r2 = 3*r1 - 3", "--lagrangian", "hopf-l1",
                "--r1", "1.5", "--theta0", "0", "--theta1", "0.01", "--theta2", "0.5",
                "--report", rep_path]) == 0
    assert json.load(open(rep_path))["I_drift"] <= 1e-6


def test_version_and_help_exit_0(capsys):
    for argv in (["--version"], ["--help"], ["integrate", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--grid-step" in out and "--seed" not in out


def test_folded_gauss_angle_map_exit_3(hopf_csv, capsys):
    # r1 = 1 at the equator is the matrix pole -d/c
    assert run(["transform", "--input", hopf_csv[0], "--matrix", "[1,0,-1,1]"]) == 3
    assert "folds" in capsys.readouterr().err


def test_write_to_a_missing_directory_names_the_target(tmp_path, capsys):
    target = os.path.join(tmp_path, "missing", "r.json")
    assert run(["parse", "--relation", "r2 = 2*r1", "--output", target]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and target in err and ".tmp" not in err
