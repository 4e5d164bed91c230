"""Benchmark of the weingarten toolkit: three seeded flows, checked and timed.

    python3 bench/run.py --workload surface_mesh --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the program is imported from the ``src`` directory
next to this one.  One run is one process and one workload, driven as a
closed loop with one client on one thread: set up (three times, the
median is ``setup_s``), then run flows one after another until their
summed wall time reaches ``--seconds``, checking each flow's outputs
after it, outside its timing.  Every reported time is scaled to a
reference host speed (see speed.py).  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, where ``failed`` counts flows that raised or failed a check.
With ``--trace 0`` the metrics are the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer ones; the traced run
alternates untraced and traced flows on the same input to measure the
tracing overhead, and writes its spans to
``.bench_work/spans-<workload>.npz``.  Scratch files go to a per-run
directory under ``.bench_work`` that is removed at the end.
``--workload all`` runs each workload in its own child process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# BLAS and OpenMP pools stay at one thread in this process and its
# children; set before the first import of numpy
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

from speed import Scaled  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("surface_mesh", "transform", "variational")
SETUP_REPEATS = 3
MIN_FLOWS = 3
CHILD_TIMEOUT_S = 900

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import weingarten, weingarten.cli\n"
    "print(time.perf_counter() - t)\n"
)

# per-layer time groups: inclusive time of the outermost span of these names
TIME_GROUPS = {
    "relations.F_s": ("relations.eval_F_float", "relations.eval_F", "relations.eval_F_prime"),
    "geometry.dense_s": ("geometry.RoCProfile.r1_at", "geometry.RoCProfile.r2_at",
                         "geometry.SupportProfile.value", "geometry.SupportProfile.rdot",
                         "geometry.SupportProfile.rddot"),
    "geometry.support_s": ("geometry.support_from_r1",),
    "geometry.embed_s": ("geometry.embed_profile",),
    "geometry.cm_residual_s": ("geometry.cm_residual",),
    "numerics.quad_s": ("numerics.adaptive_simpson", "numerics.cumulative_quadrature",
                        "numerics.cumulative_simpson_uniform"),
    "umbilic.s": ("umbilic.umbilic_slope_estimate", "umbilic.vanishing_rate_estimate",
                  "umbilic.slope_theorem_check"),
    "mobius.induced_s": ("mobius.induced_surface",),
    "mobius.verify_s": ("mobius.verify_transform_properties",),
    "mobius.relation_s": ("mobius.transform_relation",),
    "semiquadratic.s": ("semiquadratic.classification_report",
                        "semiquadratic.reduce_to_pure_linear", "semiquadratic.invariants",
                        "semiquadratic.normalize", "semiquadratic.transitivity_solve",
                        "semiquadratic.canal_classify"),
    "variational.second_variation_s": ("variational.second_variation",),
    "variational.first_integral_Q_s": ("variational.first_integral_Q",),
    "variational.el_s": ("variational.euler_lagrange_residual",),
    "variational.helmholtz_s": ("variational.helmholtz_residual",),
    "profile_io.write_s": ("profile_io.write_profile_csv", "profile_io.write_json_atomic"),
    "profile_io.read_s": ("profile_io.read_profile_csv",),
    "meshing.revolve_s": ("meshing.revolve_profile",),
    "meshing.stats_s": ("meshing.mesh_stats",),
    "meshing.export_s": ("meshing.export_obj",),
}

# per-layer call counts: every span of these names
COUNT_GROUPS = {
    "relations.F_calls": ("relations.eval_F_float", "relations.eval_F"),
    "relations.Fprime_calls": ("relations.eval_F_prime",),
    "geometry.dense_calls": TIME_GROUPS["geometry.dense_s"],
    "numerics.quad_calls": TIME_GROUPS["numerics.quad_s"],
    "umbilic.calls": TIME_GROUPS["umbilic.s"],
    "mobius.root_solves": ("mobius.scipy.brentq",),
    "variational.partials_calls": ("variational.lagrangian_partials",),
    "variational.level_solves": ("variational.scipy.brentq",),
    "variational.J_calls": ("variational.Multiplier.J",),
}

# per-layer ratios of two per-flow figures
RATIOS = {
    "integrate.rhs_evals_per_step": ("integrate.rhs_evals", "integrate.steps"),
    "geometry.points_per_dense_call": ("geometry.dense_points", "geometry.dense_calls"),
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def time_import() -> float:
    """Import time of the program, measured in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workload, seed: int, workdir: Path):
    """Import and input generation, repeated; returns (median seconds, inputs).

    Every repetition must produce the same inputs: the generator is seeded.
    """
    from inputs import make_inputs

    times, prepared, first = [], None, None
    for rep in range(SETUP_REPEATS):
        rep_dir = workdir / f"setup-{rep}"
        rep_dir.mkdir()
        with Scaled() as timed:
            import_s = time_import()
            t0 = perf_counter()
            inputs = make_inputs(workload.name, seed, workload.pool)
            items = workload.prepare(inputs, str(rep_dir))
            generate_s = perf_counter() - t0
        # the child's own import time, not its interpreter start, counts
        times.append((import_s + generate_s) * timed.scale)
        if first is None:
            first, prepared = inputs, items
        else:
            if inputs != first:
                raise RuntimeError("the input generator is not deterministic")
            shutil.rmtree(rep_dir)
    return statistics.median(times), prepared


def run_flow(workload, item, flow_dir: Path, tracer=None, flow_id: int = 0):
    """One timed flow plus its check: (Scaled timing, passed, accuracy, extras)."""
    flow_dir.mkdir()
    gc.collect()   # the previous flow's garbage is not this flow's work
    out = None
    with Scaled() as timed:
        if tracer is not None:
            tracer.begin_flow(flow_id)
        try:
            out = workload.run(item, str(flow_dir))
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.end_flow()
    if tracer is not None:
        tracer.scales[flow_id] = timed.scale
    passed, accuracy, extras = False, math.nan, {}
    if out is not None:
        try:
            passed, accuracy, extras = workload.check(item, str(flow_dir), out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
    if not passed:
        print(f"flow {flow_id} failed its check on {item!r}", file=sys.stderr)
    shutil.rmtree(flow_dir)
    return timed, passed, accuracy, extras


def measure(workload, prepared, seconds: float, workdir: Path, tracer=None) -> dict:
    """Closed loop over the prepared inputs until the flows' wall time reaches ``seconds``.

    With a tracer, each input runs twice in a row, untraced and traced, in
    alternating order, so the pair's difference is the tracing overhead.
    """
    untraced, overhead, accuracies = [], [], []
    extras_max: dict[str, float] = {}
    attempted = failed = 0
    wall = 0.0
    k = 0
    while wall < seconds or attempted < MIN_FLOWS:
        item = prepared[k % len(prepared)]
        modes = [False] if tracer is None else ([False, True] if k % 2 == 0 else [True, False])
        pair = {}
        for on in modes:
            timed, passed, accuracy, extras = run_flow(
                workload, item, workdir / f"flow-{attempted}",
                tracer if on else None, attempted)
            wall += timed.wall
            attempted += 1
            failed += not passed
            pair[on] = timed.seconds
            if not on:
                untraced.append(timed.seconds)
            if math.isfinite(accuracy):
                accuracies.append(accuracy)
            if passed:
                for key, value in extras.items():
                    extras_max[key] = max(extras_max.get(key, 0.0), value)
        if tracer is not None:
            overhead.append(pair[True] - pair[False])
        k += 1
    return {"untraced": untraced, "overhead": overhead,
            "accuracies": accuracies, "extras_max": extras_max,
            "attempted": attempted, "failed": failed}


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    times = result["untraced"]
    return {
        "setup_s": setup_s,
        "flows_per_s": len(times) / sum(times),
        "flow_p50_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(result: dict, tracer) -> dict[str, float]:
    n = max(len(tracer.flows), 1)
    values = tracer.analyse(TIME_GROUPS, COUNT_GROUPS)
    values.update({key: count / n for key, count in tracer.counts.items()})
    for key, (num, den) in RATIOS.items():
        values[key] = values.get(num, 0.0) / values[den] if values.get(den) else 0.0
    values.update(tracer.maxima)
    values.update(result["extras_max"])
    values["trace.overhead_s"] = statistics.median(result["overhead"])
    # 1.0 (all digits lost) when no flow got as far as its comparison
    values["check.accuracy_err"] = statistics.median(result["accuracies"] or [1.0])
    return values


def run_one(args) -> int:
    spec = load_spec()
    sys.path.insert(0, str(SRC))
    import weingarten

    if not Path(weingarten.__file__).resolve().is_relative_to(SRC):
        print(f"error: weingarten imported from {weingarten.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from flows import P, WORKLOADS as FLOWS
    from layertrace import Tracer

    workload = FLOWS[args.workload]
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s, prepared = set_up(workload, args.seed, workdir)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(extra=(P,))
        try:
            result = measure(workload, prepared, args.seconds, workdir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # stays while it holds spans or other runs
            WORK.rmdir()

    env = environment()
    if tracer is not None:
        values = per_layer(result, tracer)
        tracer.save(str(WORK / f"spans-{args.workload}.npz"),
                    {"workload": args.workload, "seed": args.seed, "environment": env})
        wanted = spec["per_layer"]
    else:
        values = end_to_end(result, setup_s)
        wanted = spec["end_to_end"]
    # a layer the workload never enters reads 0
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload}, seed {args.seed}: {result['attempted']} flows, "
          f"{result['failed']} failed")
    print("# flow seconds (scaled): " + " ".join(f"{t:.3f}" for t in result["untraced"]))
    for name, m in metrics.items():
        print(f"#   {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric of every workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weingarten" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
