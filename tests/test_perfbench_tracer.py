"""The benchmark's tracer still finds every library name it wraps.

``perfbench/tracer.py`` rebinds package functions and methods by name; a
rename in the library would otherwise surface only in the slow benchmark
check. This installs and uninstalls the tracer in-process.
"""

import importlib.util
import sys
from pathlib import Path

import eigenscore.cli  # noqa: F401  (the package and its CLI, as the benchmark loads them)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer):
    """Every binding the tracer may rebind: package module globals, the
    wrapped class methods, and the linear-algebra entry points."""
    owners = [m for n, m in sys.modules.items()
              if n == "eigenscore" or n.startswith("eigenscore.")]
    owners += [getattr(sys.modules[mod], cls) for _, mod, cls, _ in tracer._METHODS]
    owners += [owner for _, owner, _ in tracer._LINALG]
    return {(id(o), k): (o, v) for o in owners for k, v in list(vars(o).items())}


def test_tracer_wraps_every_named_attribute_and_restores_them():
    tracer = _load_tracer()
    before = _bindings(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        for _, mod, attr in tracer._FUNCTIONS:
            orig = before[(id(sys.modules[mod]), attr)][1]
            assert getattr(sys.modules[mod], attr) is not orig, f"{mod}.{attr}"
        for _, mod, cls, attr in tracer._METHODS:
            owner = getattr(sys.modules[mod], cls)
            assert vars(owner)[attr] is not before[(id(owner), attr)][1], f"{cls}.{attr}"
        for _, owner, attr in tracer._LINALG:
            assert vars(owner)[attr] is not before[(id(owner), attr)][1], attr
    finally:
        t.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k][1] is not before[k][1]]
    assert not changed, changed
