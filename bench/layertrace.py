"""Layer tracing from outside the program.

``Tracer.install()`` replaces the public functions of the ``weingarten``
modules, some methods, and the ``scipy`` entry points the modules call,
with timing wrappers, at run time and in this process only.  A function
is replaced under every name that binds it: in the module that defines
it, in each module that imported it (``from .x import f`` makes a second
binding), in the ``weingarten`` package namespace, and in the namespaces
the benchmark's own flows call through.  The F evaluators
keep their binding inside ``relations``, so only calls that cross into
the layer are spans.  ``uninstall()`` puts every original back.

A span is (name, start, end, parent span, flow id); spans live in
compact arrays until ``save()`` writes them out.  Counts that need the
call's arguments or result (points, RHS evaluations, bytes) are added by
per-function hooks at the same boundary.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("relations", "integrate", "geometry", "numerics", "umbilic", "mobius",
          "semiquadratic", "variational", "profile_io", "meshing", "cli")

# (module, function or Class.method, hook name, patch the defining module too)
TARGETS = [
    ("relations", "eval_F_float", "f_points", False),
    ("relations", "eval_F", "f_points", False),
    ("relations", "eval_F_prime", None, False),
    ("relations", "parse_relation", None, True),
    ("relations", "render_relation", None, True),
    ("relations", "fixed_points", None, True),
    ("integrate", "integrate_cm", "integrated", True),
    ("integrate", "hopf_closed_form", None, True),
    ("geometry", "RoCProfile.r1_at", "dense", True),
    ("geometry", "RoCProfile.r2_at", "dense", True),
    ("geometry", "SupportProfile.value", "dense", True),
    ("geometry", "SupportProfile.rdot", "dense", True),
    ("geometry", "SupportProfile.rddot", "dense", True),
    ("geometry", "support_from_r1", None, True),
    ("geometry", "embed_profile", None, True),
    ("geometry", "cm_residual", "cm_residual", True),
    ("geometry", "curvatures_from_support", None, True),
    ("geometry", "integrated_cm_check", None, True),
    ("numerics", "adaptive_simpson", "quad", True),
    ("numerics", "cumulative_quadrature", "quad", True),
    ("numerics", "cumulative_simpson_uniform", "quad_samples", True),
    ("numerics", "derivative_samples", None, True),
    ("numerics", "refine_max_parabolic", None, True),
    ("umbilic", "umbilic_slope_estimate", None, True),
    ("umbilic", "vanishing_rate_estimate", None, True),
    ("umbilic", "slope_theorem_check", None, True),
    ("mobius", "induced_surface", None, True),
    ("mobius", "reparameterize", None, True),
    ("mobius", "decompose", None, True),
    ("mobius", "transform_relation", None, True),
    ("mobius", "to_semiquadratic", None, True),
    ("mobius", "verify_transform_properties", None, True),
    ("mobius", "ads_invariants", None, True),
    ("semiquadratic", "classification_report", None, True),
    ("semiquadratic", "reduce_to_pure_linear", None, True),
    ("semiquadratic", "invariants", None, True),
    ("semiquadratic", "normalize", None, True),
    ("semiquadratic", "transitivity_solve", None, True),
    ("semiquadratic", "canal_classify", None, True),
    ("variational", "Multiplier.__init__", None, True),
    ("variational", "Multiplier.J", None, True),
    ("variational", "lagrangian_partials", None, True),
    ("variational", "second_variation", None, True),
    ("variational", "first_integral_I", None, True),
    ("variational", "first_integral_Q", None, True),
    ("variational", "euler_lagrange_residual", None, True),
    ("variational", "helmholtz_residual", None, True),
    ("variational", "sine_perturbation_basis", None, True),
    ("profile_io", "write_profile_csv", "written", True),
    ("profile_io", "write_json_atomic", "written", True),
    ("profile_io", "read_profile_csv", "read", True),
    ("profile_io", "ProfileBundle.from_parts", None, True),
    ("profile_io", "ProfileBundle.roc_profile", None, True),
    ("meshing", "revolve_profile", "faces", True),
    ("meshing", "export_obj", "obj_written", True),
    ("meshing", "mesh_stats", None, True),
    ("cli", "main", None, True),
]

# scipy entry points, traced in the layer of the module that calls them:
# (layer, module whose attribute is replaced, attribute, hook name)
SCIPY_TARGETS = [
    ("integrate", "weingarten.integrate", "solve_ivp", "ode"),
    ("variational", "weingarten.variational", "solve_ivp", None),
    ("variational", "weingarten.variational", "brentq", None),
    # mobius imports brentq inside _ImageEvaluator, so it reads the
    # scipy.optimize attribute on every call
    ("mobius", "scipy.optimize", "brentq", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.name_ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_flow = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.stack: list[int] = []
        self.active = False
        self.flow_id = -1
        self.flows: list[tuple[int, float, float]] = []   # (flow id, start, end)
        self.scales: dict[int, float] = {}   # flow id -> host-speed scale of its times
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(LAYERS.index(layer))
        return self.name_ids[name]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def note_max(self, key: str, value: float) -> None:
        if np.isfinite(value) and value > self.maxima.get(key, -np.inf):
            self.maxima[key] = float(value)

    def begin_flow(self, flow_id: int) -> None:
        self.flow_id = flow_id
        self.active = True
        self._flow_start = perf_counter()

    def end_flow(self) -> None:
        self.flows.append((self.flow_id, self._flow_start, perf_counter()))
        self.active = False
        self.stack.clear()

    def _wrap(self, fn, name: str, layer: str, hook):
        nid = self.name_id(name, layer)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                args, kwargs = hook.before(tracer, args, kwargs)
            stack = tracer.stack
            idx = len(tracer.s_name)
            tracer.s_name.append(nid)
            tracer.s_parent.append(stack[-1] if stack else -1)
            tracer.s_flow.append(tracer.flow_id)
            tracer.s_start.append(0.0)
            tracer.s_end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.s_start[idx] = t0
                tracer.s_end[idx] = t1
            if hook is not None:
                hook.after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, extra=()) -> None:
        """Wrap every target; ``extra`` namespaces holding targets are patched too."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "weingarten" or n.startswith("weingarten."))]
        modules += list(extra)
        for layer, qualname, hook_name, inside in TARGETS:
            module = importlib.import_module(f"weingarten.{layer}")
            hook = HOOKS.get(hook_name)
            name = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(raw.__func__, name, layer, hook)))
                else:
                    self._set(cls, meth, self._wrap(raw, name, layer, hook))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, name, layer, hook)
            for mod in modules:
                if mod is module and not inside:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        for layer, module_name, attr, hook_name in SCIPY_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self._wrap(original, f"{layer}.scipy.{attr}", layer,
                                 HOOKS.get(hook_name))
            self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.s_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.s_parent, dtype=np.int32).copy(),
            "flow": np.frombuffer(self.s_flow, dtype=np.int32).copy(),
            "start": np.frombuffer(self.s_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.s_end, dtype=np.float64).copy(),
        }

    def analyse(self, time_groups: dict[str, tuple[str, ...]],
                count_groups: dict[str, tuple[str, ...]]) -> dict[str, float]:
        """Per-flow layer self times, uncovered time, group times and call counts.

        Times are scaled by their flow's entry in ``scales`` (see speed.py).
        A span's self time is its duration minus its children's; a group's
        inclusive time counts only spans with no ancestor in the group, so
        recursion and nested calls are not counted twice.  A count group
        counts every span of its names.
        """
        sp = self.span_arrays()
        n_flows = max(len(self.flows), 1)
        flow_ids = [f for f, _, _ in self.flows]
        scale_of = np.ones(max(flow_ids, default=0) + 1)
        for f in flow_ids:
            scale_of[f] = self.scales.get(f, 1.0)
        dur = (sp["end"] - sp["start"]) * scale_of[sp["flow"]]
        parent = sp["parent"]
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
        self_time = dur - child_sum
        layer = np.asarray(self.layer_of, dtype=np.int64)[sp["name"]]
        per_layer = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        out = {f"{name}.self_s": float(per_layer[i]) / n_flows
               for i, name in enumerate(LAYERS)}

        flow_total = sum((end - start) * scale_of[f] for f, start, end in self.flows)
        out["trace.uncovered_s"] = (flow_total - float(dur[~has_parent].sum())) / n_flows

        calls = np.bincount(sp["name"], minlength=len(self.names))
        for metric, members in count_groups.items():
            out[metric] = float(sum(calls[self.name_ids[m]] for m in members
                                    if m in self.name_ids)) / n_flows

        # group membership as bits; a span is outermost in its group when
        # no ancestor carries the group's bit
        bit_of_name = np.zeros(len(self.names), dtype=np.int64)
        for g, (metric, members) in enumerate(time_groups.items()):
            for member in members:
                if member in self.name_ids:
                    bit_of_name[self.name_ids[member]] |= 1 << g
        bits = bit_of_name[sp["name"]]
        bits_list = bits.tolist()
        anc = [0] * len(dur)
        for i, p in enumerate(parent.tolist()):   # parents precede their children
            if p >= 0:
                anc[i] = anc[p] | bits_list[p]
        ancestors = np.asarray(anc, dtype=np.int64)
        for g, metric in enumerate(time_groups):
            outer = ((bits >> g) & 1).astype(bool) & ~((ancestors >> g) & 1).astype(bool)
            out[metric] = float(dur[outer].sum()) / n_flows
        return out

    def save(self, path: str, extra: dict) -> None:
        sp = self.span_arrays()
        flows = np.asarray(self.flows, dtype=np.float64).reshape(-1, 3)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names),
                            layers=np.asarray(LAYERS),
                            layer_of_name=np.asarray(self.layer_of, dtype=np.int32),
                            flows=flows, meta=np.asarray(repr(extra)), **sp)


# ---------------------------------------------------------------------------
# counting hooks


class Hook:
    def before(self, tracer, args, kwargs):
        return args, kwargs

    def after(self, tracer, args, kwargs, result):
        pass


class _FPoints(Hook):
    def after(self, tracer, args, kwargs, result):
        tracer.add("relations.F_points", np.size(args[1]))


class _Integrated(Hook):
    def after(self, tracer, args, kwargs, result):
        tracer.add("integrate.grid_points", len(result.grid))
        tracer.add("integrate.stops_early", result.meta.get("stop_reason") != "completed")


class _Ode(Hook):
    def after(self, tracer, args, kwargs, result):
        tracer.add("integrate.rhs_evals", result.nfev)
        tracer.add("integrate.steps", len(result.t) - 1)


class _Dense(Hook):
    def after(self, tracer, args, kwargs, result):
        points = np.size(args[1])
        tracer.add("geometry.dense_points", points)
        evaluator = getattr(args[0], "evaluator", None)
        if type(evaluator).__name__ == "_ImageEvaluator":
            tracer.add("mobius.image_eval_points", points)


class _CmResidual(Hook):
    def after(self, tracer, args, kwargs, result):
        finite = np.abs(np.asarray(result, dtype=float))
        finite = finite[np.isfinite(finite)]
        if finite.size:
            tracer.note_max("geometry.cm_residual_max", float(finite.max()))


class _Quad(Hook):
    """Counts integrand evaluations by wrapping the integrand argument."""

    def before(self, tracer, args, kwargs):
        f = args[0]

        def counted(x):
            tracer.counts["numerics.quad_evals"] = tracer.counts.get("numerics.quad_evals", 0) + 1
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs


class _QuadSamples(Hook):
    def after(self, tracer, args, kwargs, result):
        tracer.add("numerics.quad_evals", np.size(args[0]))


def _path_arg(args, kwargs):
    return kwargs.get("path", args[0] if args else None)


class _Written(Hook):
    def after(self, tracer, args, kwargs, result):
        tracer.add("profile_io.bytes_written", os.path.getsize(_path_arg(args, kwargs)))


class _Read(Hook):
    def before(self, tracer, args, kwargs):
        tracer.add("profile_io.bytes_read", os.path.getsize(_path_arg(args, kwargs)))
        return args, kwargs


class _Faces(Hook):
    def after(self, tracer, args, kwargs, result):
        tracer.add("meshing.faces", len(result.faces))


class _ObjWritten(Hook):
    def after(self, tracer, args, kwargs, result):
        tracer.add("meshing.obj_bytes", os.path.getsize(_path_arg(args, kwargs)))


HOOKS = {
    "f_points": _FPoints(),
    "integrated": _Integrated(),
    "ode": _Ode(),
    "dense": _Dense(),
    "cm_residual": _CmResidual(),
    "quad": _Quad(),
    "quad_samples": _QuadSamples(),
    "written": _Written(),
    "read": _Read(),
    "faces": _Faces(),
    "obj_written": _ObjWritten(),
}
