"""The benchmark's tracer still finds every library name it wraps, and the
benchmark's fits still run and count under it.

``perfbench/tracer.py`` rebinds package functions and methods by name and
reads basis sizes in its hooks; a rename in the library, or a change to what
the hooks read, would otherwise surface only in the slow benchmark check.
This installs and uninstalls the tracer in-process.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import eigenscore.cli  # noqa: F401  (the package and its CLI, as the benchmark loads them)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("perfbench_tracer", TRACER)


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


@pytest.mark.parametrize("name, fit", [("pinwheel-2d", "pinwheel_fit"), ("bart-1d", "bart_fit")])
def test_benchmark_fits_run_and_count_under_the_tracer(monkeypatch, name, fit):
    """A workload's fit at its "small" size, through a pass-through ``step``:
    the sample-moment hook counts every data row over the extended basis, and
    every grid node is one solve."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports speed
    workloads = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    w = workloads.WORKLOADS[name]
    sizes = w.sizes["small"]
    inp = w.setup(w.default_seed, sizes)
    t = _load_tracer().Tracer()
    try:
        t.install()
        start = t.mark()
        model = getattr(workloads, fit)(inp, lambda call, *a, **k: call(*a, **k))
        metrics = t.metrics([(start, t.mark())])
    finally:
        t.uninstall()
    assert model.alphas.shape == (sizes["n_times"], inp.basis.n_active)
    n_data = len(getattr(inp, "data", ()))  # bart's moments are analytic
    assert metrics["moments.bytes_computed"] == n_data * len(inp.basis.extended) * 8
    assert metrics["solver.nodes"] == sizes["n_times"]
