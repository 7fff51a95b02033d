"""Benchmark of the eigenscore fit -> flow pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pinwheel-2d --seed 3 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

One run sets up the workload's inputs from ``--seed``, then repeats passes
over its operations (see ``workloads.py``) for about ``--seconds`` seconds
and reports, for each stage, the median over the run of its times at a
reference machine speed (see ``speed.py``): each library call is timed
between two runs of a fixed speed probe, which cancels the minute-long slow
spells of a shared host. ``setup_s`` is the median, scaled the same way, of
five fresh interpreter processes that import the package, make the inputs and
build the basis. ``--trace 0`` prints the end-to-end metrics. ``--trace 1``
instead runs an untraced warm-up pass, then alternates traced and untraced
passes, and prints the per-layer metrics of one unit of work (setup,
once-per-run operations and the first pass; unscaled) with the tracing
overhead. The last line of standard output is one JSON object; the full
record, with the spans of a traced run and the unscaled stage times, is
written under ``perfbench/results/``. The exit code is 1 when any operation
failed.

BLAS and OpenMP are pinned to one thread before numpy is imported: with
OpenBLAS's default of two threads on a two-core machine, ``presolve_grid``
takes about twice as long, so figures from unpinned runs are not comparable.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
if not os.path.isdir(os.path.join(SRC, "eigenscore")):
    # benchmark the checkout's own source, never an installed copy
    sys.exit(f"no package source under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Pass  # noqa: E402

SETUP_PROBES = 5
_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
          "w = workloads.WORKLOADS[sys.argv[3]]; w.setup(int(sys.argv[4]), w.sizes[sys.argv[5]])")

# end-to-end metric -> unit; rates are work units per second of a stage
E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "sample_per_s": "samples/s",
    "density_pts_per_s": "points/s",
    "sde_per_s": "samples/s",
    "peak_rss_mb": "MB",
}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_seconds(workload, seed, size):
    """Median scaled time of fresh processes doing import + inputs + basis,
    and the unscaled wall times."""
    scaled, times = [], []
    for _ in range(SETUP_PROBES):
        before = speed.probe()
        t0 = time.perf_counter()
        # a blocking wait: with a timeout, Popen.wait polls in steps of up to 50 ms
        code = subprocess.Popen(
            [sys.executable, "-c", _PROBE, HERE, SRC, workload, str(seed), size]).wait()
        times.append(time.perf_counter() - t0)
        scaled.append(speed.scale(times[-1], before, speed.probe()))
        if code != 0:
            raise RuntimeError(f"setup probe exited with code {code}")
    return statistics.median(scaled), times


def measure(name, seed, seconds, trace, size):
    wl = WORKLOADS[name]
    sizes = wl.sizes[size]
    work_dir = os.path.join(RESULTS, f"{name}-work")
    os.makedirs(work_dir, exist_ok=True)
    setup_s, setup_samples = setup_seconds(name, seed, size)

    tracer = Tracer() if trace else None
    quiet = tracer.paused if trace else contextlib.nullcontext
    quality = {}

    @contextlib.contextmanager
    def tracing(on):
        """Trace the block when ``on``; the yielded list receives its marks."""
        marks = []
        if on:
            tracer.install()
            lo = tracer.mark()
        try:
            yield marks
        finally:
            if on:
                marks.append((lo, tracer.mark()))
                tracer.uninstall()

    def one_pass(run, traced, index=0):
        p = Pass(quiet, quality, index)
        t0 = time.perf_counter()
        with tracing(traced) as p.marks:
            run(p, inp, work_dir)
        p.wall = time.perf_counter() - t0
        return p

    with tracing(trace) as setup_marks:
        inp = wl.setup(seed, sizes)
    # a traced run first lets caches and the allocator settle in an untraced
    # pass, then alternates traced and untraced passes to measure the overhead
    warm = [one_pass(wl.run_pass, False)] if trace else []
    once = one_pass(wl.run_once, trace)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(wl.run_pass, trace and len(passes) % 2 == 0, len(passes)))
        if (time.perf_counter() - start + passes[-1].wall > seconds
                and (not trace or len(passes) >= 2)):
            break

    counted = [once] + passes
    attempted = sum(p.attempted for p in warm + counted)
    failures = [f for p in warm + counted for f in p.failures]
    stages = {st: [t for p in counted for t in p.times.get(st, [])]
              for st in ("fit", "sample", "density", "sde", "study")}
    wall_stages = {st: [t for p in counted for t in p.wall_times.get(st, [])]
                   for st in stages}
    rates = {}
    for p in counted:
        rates.update(p.rates)

    def per_second(stage):
        return rates[stage] / statistics.median(stages[stage])

    if trace:
        # one unit of work: the setup, the once-per-run operations and the first
        # pass, whose prior draws are the same in every run at a seed
        layer = tracer.metrics(setup_marks + once.marks + passes[0].marks)
        layer["trace.overhead_s"] = (
            statistics.median(p.wall for p in passes if p.marks)
            - statistics.median(p.wall for p in passes if not p.marks))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
    else:
        values = {"setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if stages["fit"]:
            values["fit_s"] = statistics.median(stages["fit"])
        for metric, stage in (("sample_per_s", "sample"), ("density_pts_per_s", "density"),
                              ("sde_per_s", "sde")):
            if stages[stage]:
                values[metric] = per_second(stage)
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()
                   if k in values}

    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "passes": len(passes), "pass_wall_s": [p.wall for p in passes],
        "stage_s": stages, "stage_wall_s": wall_stages, "stage_units": rates,
        "reference_probe_s": speed.REFERENCE_S,
        "study_fits_per_s": per_second("study") if stages["study"] else None,
        "setup_samples_s": setup_samples,
        "failed_frac": len(failures) / attempted, "failures": failures,
        "quality": quality, "environment": environment(),
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {"result": result, "detail": detail}
    if trace:
        record["spans"] = tracer.spans
        record["traced_pass"] = [bool(p.marks) for p in passes]
    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    return result, detail, path


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_computed"):
        return "bytes"
    return "count"


def report(result, detail, path):
    print(f"workload {detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
          f"{detail['passes']} passes, {result['attempted']} operations, "
          f"{result['failed']} failed")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")
    for key, m in result["metrics"].items():
        print(f"  {key:28s} {m['value']:14.6g} {m['unit']}")
    if detail["study_fits_per_s"] is not None:
        print(f"  {'study_fits_per_s':28s} {detail['study_fits_per_s']:14.6g} fits/s")
    print(f"  {'failed_frac':28s} {detail['failed_frac']:14.6g}")
    for key, v in sorted(detail["quality"].items()):
        print(f"  {key:28s} {v:14.6g}")
    print(f"  environment {json.dumps(detail['environment'])}")
    print(f"  record {os.path.relpath(path)}")
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's acceptance-test seed)")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if args.workload == "all":
        code = 0
        for name in sorted(WORKLOADS):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            if args.small:
                cmd.append("--small")
            code = max(code, subprocess.run(cmd).returncode)
        return code

    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    result, detail, path = measure(args.workload, seed, args.seconds, args.trace,
                                   "small" if args.small else "full")
    report(result, detail, path)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
