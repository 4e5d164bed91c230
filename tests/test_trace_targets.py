"""The benchmark's layer tracer must find every name it patches.

``bench/layertrace.py`` wraps the functions and methods it lists at run
time; a name that was deleted or moved would break ``--trace 1`` runs
without any test noticing.  The tracer module is loaded by path and left
unchanged.
"""

import importlib
import importlib.util
import os

import weingarten.mobius

LAYERTRACE_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "bench", "layertrace.py")


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    layertrace = _load_layertrace()
    missing = []
    for layer, qualname, _, _ in layertrace.TARGETS:
        module = importlib.import_module(f"weingarten.{layer}")
        if "." in qualname:
            # the tracer patches the method found in the class's own __dict__
            cls_name, meth = qualname.split(".")
            ok = meth in vars(getattr(module, cls_name, object))
        else:
            ok = callable(getattr(module, qualname, None))
        if not ok:
            missing.append(f"{layer}.{qualname}")
    for _, module_name, attr, _ in layertrace.SCIPY_TARGETS:
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_mobius_looks_brentq_up_at_call_time():
    # the tracer patches scipy.optimize.brentq; a module-level binding in
    # mobius would keep the unpatched function and hide its root solves
    assert "brentq" not in vars(weingarten.mobius)
