"""Tests of the benchmark's seeded input generator.

    python3 -m pytest -q bench/test_inputs.py
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from inputs import make_inputs  # noqa: E402
from weingarten import StepControl, integrate_cm, parse_relation  # noqa: E402

WORKLOADS = ("surface_mesh", "transform", "variational")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert make_inputs(workload, 7, 16) == make_inputs(workload, 7, 16)
    assert make_inputs(workload, 7, 16) != make_inputs(workload, 8, 16)


@pytest.mark.parametrize("seed", range(5))
def test_surface_mesh_draws_complete(seed):
    for m in make_inputs("surface_mesh", seed, 8):
        profile = integrate_cm(parse_relation(m.relation), math.pi / 2.0, m.r1_start,
                               (1e-6, math.pi - 1e-6),
                               step_control=StepControl(grid_step=0.01))
        assert profile.meta["stop_reason"] == "completed", m


@pytest.mark.parametrize("seed", range(3))
def test_transform_draws_complete_and_clear_the_pole(seed):
    for t in make_inputs("transform", seed, 3):
        a, b, c, d = t.matrix
        assert a * d - b * c == pytest.approx(1.0, abs=1e-12)
        assert c < 0.0
        profile = integrate_cm(parse_relation(t.relation), math.pi / 2.0,
                               t.member.r1_start, (1e-6, math.pi - 1e-6),
                               step_control=StepControl(grid_step=0.01))
        assert profile.meta["stop_reason"] == "completed", t
        pole = -d / c
        radii = [profile.r1.min(), profile.r1.max(), profile.r2.min(), profile.r2.max()]
        assert all(pole > 1.2 * r for r in radii), t


@pytest.mark.parametrize("seed", range(20))
def test_l0_intervals_avoid_the_equator(seed):
    for calls in make_inputs("variational", seed, 64):
        for call in calls:
            if call.lagrangian != "L0":
                continue
            assert call.theta1 < call.theta0 < call.theta2
            assert not (call.theta1 < math.pi / 2.0 < call.theta2), call
