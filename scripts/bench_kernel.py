"""Before/after benchmark of the float32 flow kernel, written to BENCH_kernel.json.

Run from the repository root, with a checkout of the commit to compare
against (made with ``git clone`` or ``git archive``):

    python3 scripts/bench_kernel.py --before ../parent --after . --out BENCH_kernel.json

Three parts, each alternating the two checkouts:

* ``kernel_ms_per_call``: ms per call of ``EigenBasis.weighted_eval`` on trig-1d-25,
  trig-2d-125 and trig-3d-6 at 64, 801, 2000 and 8192 rows. Both packages
  are loaded into one process and timed in interleaved rounds (A then B,
  then B then A); each figure is the median over rounds of the mean per-call
  time of a round. The kernel error is the largest deviation of the score
  and the Laplacian from the float64 ``eval_batch`` contraction over the
  rows, relative to each output's largest magnitude. The kernel returns
  (score, laplacian); checkouts from before it dropped its energy output
  return (energy, score, laplacian), whose energy is skipped. Any other
  output count fails.
* ``perfbench``: the end-to-end metrics and quality figures of
  ``perfbench/run.py --trace 0`` on every workload, ``--runs`` alternating
  runs per checkout, and their medians.
* ``trace``: ``basis.kernel_s`` per 1000 ``basis.kernel_rows`` from one
  ``perfbench/run.py --trace 1`` run per checkout and workload.

BLAS and OpenMP are pinned to one thread, as in perfbench.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

BASES = {
    "trig-1d-25": lambda es: es.trig_basis_1d(25),
    "trig-2d-125": lambda es: es.trig_basis_nd(2, -125.0),
    "trig-3d-6": lambda es: es.trig_basis_nd(3, -6.0),
}
ROWS = (64, 801, 2000, 8192)
WORKLOADS = ("pinwheel-2d", "bart-1d")
PERFBENCH_SECONDS = 55  # the run length BENCHMARK.json sets
SIDES = ("before", "after")


def load_package(name, root):
    """The eigenscore package under ``root/src``, imported as module ``name``."""
    pkg = os.path.join(root, "src", "eigenscore")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def per_call_ms(fn, calls):
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls * 1e3


def kernel_error(basis, X, alpha, got):
    if len(got) == 3:  # (energy, score, laplacian) of an older checkout
        got = got[1:]
    _, grads, laps = basis.eval_batch(X)
    want = (grads[:, :, 1:] @ alpha, laps[:, 1:] @ alpha)
    return max(float(np.abs(g - w).max() / np.abs(w).max())
               for g, w in zip(got, want, strict=True))


def bench_kernel(packages, rounds, seed):
    out = {}
    for name, make in BASES.items():
        bases = {side: make(packages[side]) for side in SIDES}
        rng = np.random.default_rng(seed)
        alpha = rng.normal(size=bases["after"].n_active)
        for n in ROWS:
            X = rng.uniform(-math.pi, math.pi, (n, bases["after"].dimension))
            calls = max(3, int(2e5 // n))
            times = {side: [] for side in SIDES}
            for r in range(rounds):
                for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                    basis = bases[side]
                    times[side].append(per_call_ms(lambda: basis.weighted_eval(X, alpha), calls))
            row = {side: statistics.median(times[side]) for side in SIDES}
            row["speedup"] = row["before"] / row["after"]
            row["error"] = {side: kernel_error(bases["after"], X, alpha,
                                               bases[side].weighted_eval(X, alpha))
                            for side in SIDES}
            out[f"{name}@{n}"] = row
            print(f"kernel {name:12s} {n:5d} rows: before {row['before']:.4f} ms, "
                  f"after {row['after']:.4f} ms, x{row['speedup']:.2f}", flush=True)
    return out


def commit_of(root):
    """The checkout's commit, marked when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True).stdout
    dirty = git("status", "--porcelain", "--untracked-files=no").strip()
    return git("rev-parse", "--short", "HEAD").strip() + (" with uncommitted changes" if dirty else "")


def perfbench_run(root, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(PERFBENCH_SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(root, "perfbench", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        quality = json.load(fh)["detail"]["quality"]
    return {k: m["value"] for k, m in result["metrics"].items()}, quality, result["failed"]


def bench_perfbench(roots, runs, seed):
    out = {}
    for workload in WORKLOADS:
        rec = {side: {"runs": [], "quality": [], "failed": 0} for side in SIDES}
        for r in range(runs):
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                metrics, quality, failed = perfbench_run(roots[side], workload, seed, 0)
                rec[side]["runs"].append(metrics)
                rec[side]["quality"].append(quality)
                rec[side]["failed"] += failed
                print(f"perfbench {workload} {side}: " + ", ".join(
                    f"{k} {v:.4g}" for k, v in metrics.items()), flush=True)
        for side in SIDES:
            keys = rec[side]["runs"][0]
            rec[side]["median"] = {k: statistics.median(m[k] for m in rec[side]["runs"])
                                   for k in keys}
        out[workload] = rec
    return out


def bench_trace(roots, seed):
    out = {}
    for workload in WORKLOADS:
        row = {}
        for side in SIDES:
            metrics, _, _ = perfbench_run(roots[side], workload, seed, 1)
            row[side] = {"kernel_s": metrics["basis.kernel_s"],
                         "kernel_rows": metrics["basis.kernel_rows"],
                         "kernel_calls": metrics["basis.kernel_calls"],
                         "kernel_ms_per_1k_rows":
                             1e6 * metrics["basis.kernel_s"] / metrics["basis.kernel_rows"]}
        out[workload] = row
        print(f"trace {workload}: " + ", ".join(
            f"{side} {row[side]['kernel_ms_per_1k_rows']:.4f} ms/1k rows" for side in SIDES),
            flush=True)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="root of the checkout to compare against")
    parser.add_argument("--after", default=".", help="root of the changed checkout")
    parser.add_argument("--out", default="BENCH_kernel.json")
    parser.add_argument("--rounds", type=int, default=21, help="interleaved kernel rounds")
    parser.add_argument("--runs", type=int, default=2, help="perfbench runs per checkout")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    roots = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    record = {
        "commits": {side: commit_of(roots[side]) for side in SIDES},
        "settings": {"rounds": args.rounds, "runs": args.runs, "seed": args.seed,
                     "perfbench_seconds": PERFBENCH_SECONDS},
        "environment": {"cpu": platform.processor() or platform.machine(),
                        "cpus": os.cpu_count(), "numpy": np.__version__,
                        "blas_threads": 1},
    }
    # perfbench first: a child started from this process reports at least this
    # process's resident size as its peak_rss_mb, which the kernel part raises
    record["perfbench"] = bench_perfbench(roots, args.runs, args.seed)
    record["trace"] = bench_trace(roots, args.seed)
    packages = {side: load_package(f"eigenscore_{side}", roots[side]) for side in SIDES}
    record["kernel_ms_per_call"] = bench_kernel(packages, args.rounds, args.seed)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
