"""The benchmark's own test, at reduced sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps it out of the default test collection, since each
workload is run several times in fresh processes.
"""

import json
import os
import subprocess
import sys

import pytest

import run  # first: puts the package source on sys.path

import eigenscore as es
from eigenscore.errors import IllConditionedError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
# counts that must repeat exactly between two traced runs at one seed
EXACT_COUNTS = ("solver.nodes", "solver.eigh_calls", "odeint.nfev", "basis.kernel_calls")


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_metrics_and_exact_counts(workload):
    plain = _run(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = [_run(workload, 1) for _ in range(2)]
    for result in traced:
        assert {k: m["unit"] for k, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in EXACT_COUNTS:
        first, second = (r["metrics"][name]["value"] for r in traced)
        assert first == second, name
    assert traced[0]["metrics"]["solver.nodes"]["value"] > 0
    assert traced[0]["metrics"]["odeint.nfev"]["value"] > 0


def test_typed_errors_are_counted_and_fail_the_run(monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise IllConditionedError("singular", float("inf"))

    monkeypatch.setattr(es, "presolve_grid", singular)
    code = run.main(["--workload", "pinwheel-2d", "--small", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 4  # the fit, then three skipped
