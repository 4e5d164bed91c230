import json
import math
import os

import numpy as np
import pytest

from weingarten import MoebiusElement, parse_relation, transform_relation
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


def test_parse_cmd_variants(capsys):
    assert run(["parse", "--relation", "r2 = 3*r1 - 5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["variant"] == "LinearHopf"
    assert rep["coefficients"] == [3.0, -5.0]


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
