"""The before/after harness, scripts/bench_flow.py, run on this checkout's package."""

import importlib.util
import os
from unittest import mock

import numpy as np

import eigenscore as es

HARNESS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_flow.py")


def load_harness():
    spec = importlib.util.spec_from_file_location("bench_flow", HARNESS)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # importing it pins BLAS threads in os.environ
        spec.loader.exec_module(module)
    return module


def test_presolve_paths_count_one_zsytrf_per_ldl_node():
    # a solve that stopped reaching LAPACK's zsytrf through scipy.linalg.lapack
    # would silently zero the ldl columns of the harness's fits part; bart's
    # exact moments keep every LDL node on the double factorization
    harness = load_harness()
    model, paths, steps, seconds = harness.presolve_paths(es, harness.bart_inputs(es), 20)
    assert len(paths) == len(seconds) == 20 and min(seconds) > 0.0
    assert set(paths) == {"diagonal", "ldl_double"} and steps == 0


def test_presolve_paths_count_single_precision_nodes_and_refinement_steps():
    # a pinwheel fit on perfbench's 400-function basis, whose early nodes
    # take csytrf and refinement
    ds = es.toy2d("pinwheel", 2000, np.random.default_rng(3))
    basis = es.trig_basis_nd(2, -125.0)
    inputs = (basis, es.product_table(basis),
              es.modulation_shrink(es.sample_moments(basis, ds.points)), {})
    harness = load_harness()
    model, paths, steps, seconds = harness.presolve_paths(es, inputs, 20)
    single = paths.count("ldl_single")
    assert single > 0 and paths.count("fallback") == 0 and steps >= 2 * single
    bands = harness.tau_bands(model.grid, {side: paths for side in harness.SIDES},
                              {side: [seconds] for side in harness.SIDES})
    assert sum(row["nodes"] for row in bands.values()) == 20
    assert bands["[0.00, 0.25)"]["after"]["paths"] == {"ldl_single": 5}
