"""The before/after harness, scripts/bench_flow.py, run on this checkout's package."""

import importlib.util
import os
from unittest import mock

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
    # would silently zero the ldl column of the harness's fits part
    harness = load_harness()
    _, paths, factorizations = harness.presolve_paths(es, harness.bart_inputs(es), 20)
    assert paths["ldl"] + paths["diagonal"] == 20
    assert paths["ldl"] == factorizations > 0
