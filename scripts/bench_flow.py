"""Before/after benchmark of the pipeline, written to BENCH_flow.json.

Run from the repository root, with a checkout of the commit to compare
against (made with ``git clone`` or ``git archive``):

    python3 scripts/bench_flow.py --before ../parent --after . --out BENCH_flow.json

Both packages are loaded into one process, the ``after`` checkout as module
``eigenscore`` (so its ``tests/conftest.py`` imports it) and the ``before``
one as ``eigenscore_before``. Each checkout samples and evaluates its own
fit (cached per checkout and fit), so no model file crosses checkouts and a
change of the model-file format needs no branch here; the ``fits`` part
records how the two checkouts' fits differ. Parts that repeat a
measurement alternate the checkouts in interleaved rounds (A then B, then B
then A). Parts:

* ``perfbench``: the end-to-end metrics and quality figures of
  ``perfbench/run.py --trace 0`` on every workload, ``--runs`` alternating
  runs per checkout, and their medians. Both checkouts' ``src`` are
  byte-compiled first, so ``setup_s`` reads ``.pyc`` files on both sides.
* ``trace``: the per-layer metrics ``TRACED`` of one ``perfbench/run.py
  --trace 1`` run per checkout and workload.
* ``kernel``: ms per call of ``EigenBasis.weighted_eval`` on trig-1d-25,
  trig-2d-125 and trig-3d-6 at 64, 801, 2000 and 8192 rows, the median over
  ``KERNEL_ROUNDS`` rounds of the mean per-call time of a round. The kernel
  error is the largest deviation of the score and the Laplacian from the
  float64 ``eval_batch`` contraction over the rows, relative to each
  output's largest magnitude.
* ``moments``: ms per call of ``sample_moments`` on pinwheel (20k points,
  ``trig_basis_nd(2, -125)``), Bart-Simpson (2000 points, ``trig_basis_1d(25)``,
  the loss study's shape), a 3D Gaussian on the torus (20k points,
  ``trig_basis_nd(3, -25)``) and a 2D Gaussian (20k points,
  ``hermite_univariate_basis(2, 10)``), the median and quartiles over
  ``MOMENT_ROUNDS`` interleaved rounds of the mean per-call time of a round,
  after one untimed call per checkout. Each case also carries the largest
  absolute theta_hat difference and relative var_hat difference between
  the checkouts.
* ``fits``: each checkout's own presolve of perfbench's two fits (pinwheel-2d,
  100 nodes; bart-1d, 1000 nodes) and of acceptance criterion 8's fit
  (pinwheel, 1000 nodes): its median time and quartiles over the fit's
  interleaved rounds (``FITS``); the number of nodes each solve path took,
  told apart by the LAPACK factorizations a ``solve_node`` call makes
  (``diagonal``: none, ``ldl_double``: ``zsytrf``, ``ldl_single``:
  ``csytrf``, ``fallback``: ``csytrf`` then ``zsytrf``) and the
  refinement steps, every ``csytrs`` call of a node after its first; node
  times by tau band (``TAU_BANDS``): per band, the nodes, their paths and
  the median over the band's nodes of each node's median time over the
  rounds; the largest relative max-norm difference of a node's alpha and
  the largest relative difference of its ``condition`` between the
  checkouts, whether ``alphas`` are identical, and
  ``model_dict_differences``: the sorted top-level keys of ``model_to_dict``
  whose values differ between the checkouts (empty when the dicts are
  identical).
* ``flow``: stage times of PF-ODE sampling, of one log-density batch and of
  reverse-SDE sampling, at the shapes of perfbench's workloads (pinwheel-2d:
  100 nodes, 2000 samples at rtol 1e-4, a 40x40 batch at rtol 1e-3, 2000 SDE
  samples in 200 steps; bart-1d: 1000 nodes, 2000 samples at rtol 1e-5, 801
  points at rtol 1e-6, 2000 SDE samples in 1000 steps) and of acceptance
  criterion 8 (pinwheel, 1000 nodes, 2000 samples, one 8192-point batch at
  rtol 1e-3, 2000 SDE samples in 200 steps), with the RHS evaluations (calls
  of ``generate.flow_rate``) of the two flows; the SDE calls the kernel once
  a step. A stage's time is the median over ``--rounds`` interleaved rounds,
  and ``max_abs_difference`` is the largest difference of its output between
  the checkouts. Each checkout's PF-ODE samples also carry their largest and
  RMS distance from a reference integrated in internal time at rtol 1e-8
  from the same prior draw.
* ``criterion_8_grid``: RHS evaluations of each of the eight 8192-point
  batches of criterion 8's 256x256 grid, and the median time of a pass over
  it over ``GRID_ROUNDS`` interleaved rounds.
* ``accuracy``: the largest |log-density difference| of each checkout's fit
  from the interpolation-free flow of the ``after`` checkout's
  ``tests/conftest.py::reference_log_density``, which solves the node system
  at every tau the integrator asks for, with the RHS evaluations of each
  (bart 100/200/1000 nodes, 41 points, and OU on the VE clock 50/200 nodes,
  21 points, at rtol 1e-8; pinwheel 100 nodes, a 16x16 grid, at rtol 1e-6).

BLAS and OpenMP are pinned to one thread, as in perfbench.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg.lapack  # noqa: E402

SIDES = ("before", "after")
WORKLOADS = ("pinwheel-2d", "bart-1d")
PERFBENCH_SECONDS = 55  # the run length BENCHMARK.json sets
TRACED = ("odeint.nfev", "solver.alpha_at_calls", "solver.alpha_at_s", "generate.sample_s",
          "generate.density_s", "generate.sde_s", "cli.loss_study_s", "cli.self_s",
          "targets.reference_s", "solver.presolve_s", "solver.nodes",
          "solver.regularized_nodes", "solver.self_s", "basis.kernel_s", "basis.kernel_rows",
          "basis.kernel_calls")
KERNEL_BASES = {
    "trig-1d-25": lambda es: es.trig_basis_1d(25),
    "trig-2d-125": lambda es: es.trig_basis_nd(2, -125.0),
    "trig-3d-6": lambda es: es.trig_basis_nd(3, -6.0),
}
KERNEL_ROWS = (64, 801, 2000, 8192)
KERNEL_ROUNDS = 21  # interleaved rounds per kernel shape, each of about 2e5 rows a side
MOMENT_ROUNDS = 11  # interleaved rounds per moments case, 0.1-0.8 s a side each
GRID_ROUNDS = 5  # interleaved passes over criterion 8's density grid, 5-9 s each


def interleaved(rounds):
    """The order of the sides in each of ``rounds`` rounds: A then B, then B then A."""
    for r in range(rounds):
        yield from (SIDES if r % 2 == 0 else SIDES[::-1])


def load_package(name, root):
    """The eigenscore package under ``root/src``, imported as module ``name``."""
    pkg = os.path.join(root, "src", "eigenscore")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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
        for side in interleaved(runs):
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
        out[workload] = {}
        for side in SIDES:
            metrics, _, _ = perfbench_run(roots[side], workload, seed, 1)
            out[workload][side] = {k: metrics[k] for k in TRACED if k in metrics}
        print(f"trace {workload}: {out[workload]}", flush=True)
    return out


def per_call_ms(fn, calls):
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls * 1e3


def kernel_error(basis, X, alpha, got):
    _, grads, laps = basis.eval_batch(X)
    want = (grads[:, :, 1:] @ alpha, laps[:, 1:] @ alpha)
    return max(float(np.abs(g - w).max() / np.abs(w).max())
               for g, w in zip(got, want, strict=True))


def bench_kernel(packages, seed):
    out = {}
    for name, make in KERNEL_BASES.items():
        bases = {side: make(packages[side]) for side in SIDES}
        rng = np.random.default_rng(seed)
        alpha = rng.normal(size=bases["after"].n_active)
        for n in KERNEL_ROWS:
            X = rng.uniform(-math.pi, math.pi, (n, bases["after"].dimension))
            calls = max(3, int(2e5 // n))
            times = {side: [] for side in SIDES}
            for side in interleaved(KERNEL_ROUNDS):
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


def moment_cases(es, seed):
    """(name, basis builder, data, calls per round) of the ``moments`` part."""
    rng = np.random.default_rng(seed)
    bart = es.sample_gaussian_mixture(es.bart_simpson(), 2000, rng)
    return (
        ("pinwheel-20k-trig-2d-125", lambda pkg: pkg.trig_basis_nd(2, -125.0),
         es.toy2d("pinwheel", 20000, rng).points, 1),
        ("bart-2000-trig-1d-25", lambda pkg: pkg.trig_basis_1d(25), es.wrap_torus(bart), 20),
        ("normal-20k-trig-3d-25", lambda pkg: pkg.trig_basis_nd(3, -25.0),
         es.wrap_torus(0.4 + 0.7 * rng.standard_normal((20000, 3))), 1),
        ("normal-20k-hermite-2d-10", lambda pkg: pkg.hermite_univariate_basis(2, 10),
         rng.standard_normal((20000, 2)), 10),
    )


def bench_moments(packages, seed):
    out = {}
    for name, make, data, calls in moment_cases(packages["after"], seed):
        bases = {side: make(packages[side]) for side in SIDES}
        first = {side: packages[side].sample_moments(bases[side], data) for side in SIDES}
        times = {side: [] for side in SIDES}
        for side in interleaved(MOMENT_ROUNDS):
            pkg, basis = packages[side], bases[side]
            times[side].append(per_call_ms(lambda: pkg.sample_moments(basis, data), calls))
        before, after = first["before"], first["after"]
        positive = before.var_hat > 0  # all but the constant's
        row = {"points": len(data), "extended_functions": len(bases["after"].extended),
               "calls_per_round": calls}
        for side in SIDES:
            q = statistics.quantiles(times[side], n=4)
            row[side] = {"median_ms": statistics.median(times[side]), "quartiles_ms": [q[0], q[2]]}
        row["speedup"] = row["before"]["median_ms"] / row["after"]["median_ms"]
        row["max_abs_theta_hat_difference"] = float(
            np.abs(after.theta_hat - before.theta_hat).max())
        row["max_relative_var_hat_difference"] = float(
            (np.abs(after.var_hat - before.var_hat)[positive] / before.var_hat[positive]).max())
        out[name] = row
        print(f"moments {name}: before {row['before']['median_ms']:.2f} ms, after "
              f"{row['after']['median_ms']:.2f} ms, x{row['speedup']:.2f}; "
              f"theta_hat {row['max_abs_theta_hat_difference']:.2e}, "
              f"var_hat {row['max_relative_var_hat_difference']:.2e}", flush=True)
    return out


def midpoint_grid_2d(n):
    x = (np.arange(n) + 0.5) / n * 2.0 * math.pi - math.pi
    gx, gy = np.meshgrid(x, x, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def counted(pkg, fn):
    """fn's result and the number of flow RHS evaluations it made."""
    calls = [0]
    flow_rate = pkg.generate.flow_rate

    def counting(*args):
        calls[0] += 1
        return flow_rate(*args)

    with mock.patch.object(pkg.generate, "flow_rate", counting):
        return fn(), calls[0]


def reference_samples(pkg, model, n, rng):
    """PF-ODE samples from ``sample_pf_ode``'s prior draw for ``rng``, integrated
    in internal time t, dx/dt = -score at tau(t), at rtol 1e-8."""
    schedule = model.schedule

    def velocity(t, Y):
        alpha = pkg.alpha_at(model, pkg.process.tau_at(schedule, t))
        return -model.basis.weighted_eval(Y, alpha)[0]

    x1 = pkg.generate._prior_draw(model, n, rng, "uniform")
    return pkg.integrate_batch(velocity, x1, pkg.internal_time(schedule, 1.0),
                               pkg.internal_time(schedule, 0.0),
                               pkg.odeint.IntegratorConfig(rtol=1e-8, atol=1e-10))


def distance_to_reference(pkg, model, x, ref):
    """Largest and RMS Euclidean distance of samples from their reference (on
    the torus, the shortest way round)."""
    diff = x - ref
    if model.process == pkg.basis.TRUNCATED_BM:
        diff = pkg.wrap_torus(diff)
    dist = np.sqrt((diff * diff).sum(axis=1))
    return {"max_distance_to_reference": float(dist.max()),
            "rms_distance_to_reference": float(np.sqrt((dist * dist).mean()))}


@functools.cache
def ou_ve_fit(es, n_times):
    basis = es.hermite_univariate_basis(1, 2)
    table = es.product_table(basis)
    gm = es.GaussianMixture(weights=np.array([1.0]), means=np.array([[0.5]]),
                            variances=np.array([[0.25]]))
    moments = es.analytic_moments(gm, basis)
    model = es.presolve_grid(basis, table, moments, es.Schedule.ve(0.01, 50.0),
                             n_times=n_times)
    return model, table, moments


def pinwheel_inputs(es):
    """Basis, table, moments and presolve keywords of the pinwheel fits."""
    ds = es.toy2d("pinwheel", 20000, np.random.default_rng(3))
    basis = es.trig_basis_nd(2, -125.0)
    moments = es.modulation_shrink(es.sample_moments(basis, ds.points))
    return basis, es.product_table(basis), moments, {"domain_map": ds.domain_map}


def bart_inputs(es):
    """Basis, table, moments and presolve keywords of the bart fits."""
    basis = es.trig_basis_1d(25)
    return basis, es.product_table(basis), es.analytic_moments(es.bart_simpson(), basis), {}


def presolve(es, inputs, n_times):
    basis, table, moments, kwargs = inputs
    return es.presolve_grid(basis, table, moments, es.Schedule.ve(0.01, 50.0),
                            n_times=n_times, **kwargs)


@functools.cache
def pinwheel_fit(es, n_times):
    inputs = pinwheel_inputs(es)
    return presolve(es, inputs, n_times), inputs[1], inputs[2]


@functools.cache
def bart_fit(es, n_times):
    inputs = bart_inputs(es)
    return presolve(es, inputs, n_times), inputs[1], inputs[2]


# (name, inputs, nodes, interleaved presolve rounds): perfbench's fits take up
# to 1.2 s a side, criterion 8's 5-22 s
FITS = (("pinwheel-2d", pinwheel_inputs, 100, 10),
        ("bart-1d", bart_inputs, 1000, 10),
        ("criterion-8", pinwheel_inputs, 1000, 3))


TAU_BANDS = (0.0, 0.25, 0.5, 0.75, 1.0)
PATHS = {(0, 0): "diagonal", (1, 0): "ldl_double", (0, 1): "ldl_single", (1, 1): "fallback"}


def presolve_paths(pkg, inputs, n_times):
    """The model of ``pkg``'s presolve, the solve path of each node (see the
    ``fits`` part of the module docstring), the fit's refinement steps and
    each node's solve time in seconds."""
    lapack = scipy.linalg.lapack
    calls = dict.fromkeys(("zsytrf", "csytrf", "csytrs"), 0)
    paths, seconds, steps = [], [], 0
    solve_node = pkg.solver.solve_node

    def counting(name):
        routine = getattr(lapack, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)
        return count

    def recording(system):
        nonlocal steps
        seen = dict(calls)
        t0 = time.perf_counter()
        node = solve_node(system)
        seconds.append(time.perf_counter() - t0)
        made = {name: calls[name] - seen[name] for name in calls}
        paths.append(PATHS[made["zsytrf"], made["csytrf"]])
        steps += max(made["csytrs"] - 1, 0)
        return node

    with contextlib.ExitStack() as stack:
        for name in calls:
            stack.enter_context(mock.patch.object(lapack, name, counting(name)))
        stack.enter_context(mock.patch.object(pkg.solver, "solve_node", recording))
        model = presolve(pkg, inputs, n_times)
    return model, paths, steps, seconds


def tau_bands(grid, paths, node_seconds):
    """Per band of ``TAU_BANDS``: its nodes, their paths and, per checkout,
    the median over the band's nodes of each node's median time over the
    rounds (ms). ``paths`` and ``node_seconds`` hold one list per side, the
    latter one row of node times per round."""
    out = {}
    for lo, hi in zip(TAU_BANDS[:-1], TAU_BANDS[1:]):
        nodes = np.flatnonzero((grid >= lo) & ((grid < hi) | (hi == TAU_BANDS[-1])))
        row = {"nodes": len(nodes)}
        for side in SIDES:
            per_node = np.median(np.array(node_seconds[side])[:, nodes], axis=0)
            row[side] = {"median_node_ms": float(np.median(per_node)) * 1e3,
                         "paths": dict(collections.Counter(paths[side][i] for i in nodes))}
        out[f"[{lo:.2f}, {hi:.2f}{']' if hi == TAU_BANDS[-1] else ')'}"] = row
    return out


def bench_fits(packages):
    out = {}
    for name, make_inputs, n_times, rounds in FITS:
        inputs = {side: make_inputs(packages[side]) for side in SIDES}
        times = {side: [] for side in SIDES}
        node_seconds = {side: [] for side in SIDES}
        models, paths, steps = {}, {}, {}
        for side in interleaved(rounds):
            t0 = time.perf_counter()
            models[side], paths[side], steps[side], seconds = presolve_paths(
                packages[side], inputs[side], n_times)
            times[side].append(time.perf_counter() - t0)
            node_seconds[side].append(seconds)
        before, after = models["before"].alphas, models["after"].alphas
        diff = np.abs(after - before).max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # alpha is 0 at late nodes
            rel = np.where(diff == 0.0, 0.0, diff / np.abs(before).max(axis=1))
        cond = {side: models[side].diagnostics["condition"] for side in SIDES}
        rel_cond = np.abs(cond["after"] - cond["before"]) / cond["before"]
        dicts = {side: packages[side].model_to_dict(models[side]) for side in SIDES}
        quartiles = {side: statistics.quantiles(times[side], n=4) for side in SIDES}
        out[name] = {
            "nodes": n_times,
            "presolve_seconds": {side: {"median": statistics.median(times[side]),
                                        "quartiles": [quartiles[side][0], quartiles[side][2]],
                                        "runs": times[side]} for side in SIDES},
            "solve_paths": {side: {path: paths[side].count(path) for path in PATHS.values()}
                            for side in SIDES},
            "refinement_steps": steps,
            "tau_bands": tau_bands(models["after"].grid, paths, node_seconds),
            "max_relative_alpha_difference": float(rel.max()),
            "max_relative_condition_difference": float(rel_cond.max()),
            "alphas_identical": before.tobytes() == after.tobytes(),
            "model_dict_differences": sorted(
                key for key in dicts["before"].keys() | dicts["after"].keys()
                if json.dumps(dicts["before"].get(key)) != json.dumps(dicts["after"].get(key))),
        }
        print(f"fits {name}: {out[name]}", flush=True)
    return out


def flow_stages(packages, rounds):
    es = packages["after"]
    IC = es.odeint.IntegratorConfig
    line = np.linspace(-math.pi, math.pi, 801)[:, None]
    grid_8192 = midpoint_grid_2d(256)[:8192]
    shapes = (
        # (name, fit, nodes, sample cfg, density points, density cfg, SDE steps)
        ("pinwheel-2d", pinwheel_fit, 100, IC(rtol=1e-4, atol=1e-6),
         midpoint_grid_2d(40), IC(rtol=1e-3, atol=1e-5), 200),
        ("bart-1d", bart_fit, 1000, IC(rtol=1e-5, atol=1e-7), line, IC(rtol=1e-6, atol=1e-8),
         1000),
        ("criterion-8", pinwheel_fit, 1000, IC(rtol=1e-4, atol=1e-6),
         grid_8192, IC(rtol=1e-3, atol=1e-5), 200),
    )
    out = {}
    for name, fit, n_times, sample_cfg, points, density_cfg, sde_steps in shapes:
        models = {side: fit(packages[side], n_times)[0] for side in SIDES}
        stages = {
            "sample": lambda side: packages[side].sample_pf_ode(
                models[side], 2000, sample_cfg, rng=np.random.default_rng(10)),
            "density": lambda side: packages[side].log_density(models[side], points, density_cfg),
            "sde": lambda side: packages[side].sample_reverse_sde(
                models[side], 2000, sde_steps, rng=np.random.default_rng(11)),
        }
        out[name] = {"nodes": n_times, "density_points": len(points), "sde_steps": sde_steps}
        for stage, run in stages.items():
            row = {side: {} for side in SIDES}
            results = {}
            for side in SIDES:
                if stage == "sde":  # one kernel call a step, no flow RHS
                    results[side] = run(side)
                else:
                    results[side], row[side]["rhs_evaluations"] = counted(
                        packages[side], functools.partial(run, side))
            times = {side: [] for side in SIDES}
            for side in interleaved(rounds):
                t0 = time.perf_counter()
                run(side)
                times[side].append(time.perf_counter() - t0)
            for side in SIDES:
                row[side]["seconds"] = statistics.median(times[side])
            if stage == "sample":
                ref = reference_samples(es, models["after"], 2000, np.random.default_rng(10))
                for side in SIDES:
                    row[side].update(distance_to_reference(es, models["after"], results[side], ref))
            row["speedup"] = row["before"]["seconds"] / row["after"]["seconds"]
            row["max_abs_difference"] = float(np.abs(results["before"] - results["after"]).max())
            out[name][stage] = row
            rhs = (f"RHS {row['before']['rhs_evaluations']} -> {row['after']['rhs_evaluations']}, "
                   if stage != "sde" else "")
            print(f"flow {name} {stage}: {rhs}{row['before']['seconds']:.3f} s -> "
                  f"{row['after']['seconds']:.3f} s (x{row['speedup']:.2f}, max difference "
                  f"{row['max_abs_difference']:.3g})", flush=True)
    return out


def criterion8_grid(packages):
    """RHS evaluations of each 8192-point batch of criterion 8's 256x256
    density grid, and the median time of a pass over the grid over
    ``GRID_ROUNDS`` interleaved rounds, per checkout."""
    es = packages["after"]
    models = {side: pinwheel_fit(packages[side], 1000)[0] for side in SIDES}
    points = midpoint_grid_2d(256)
    cfg = es.odeint.IntegratorConfig(rtol=1e-3, atol=1e-5)

    def grid_pass(side):
        return [counted(packages[side], lambda: packages[side].log_density(
            models[side], points[i:i + 8192], cfg))[1] for i in range(0, len(points), 8192)]

    out = {side: {"rhs_evaluations": grid_pass(side), "runs": []} for side in SIDES}
    for side in interleaved(GRID_ROUNDS):
        t0 = time.perf_counter()
        grid_pass(side)
        out[side]["runs"].append(time.perf_counter() - t0)
    for side in SIDES:
        out[side]["total_rhs_evaluations"] = sum(out[side]["rhs_evaluations"])
        out[side]["seconds"] = statistics.median(out[side]["runs"])
    print(f"criterion-8 grid: RHS {out['before']['total_rhs_evaluations']} -> "
          f"{out['after']['total_rhs_evaluations']}, {out['before']['seconds']:.2f} s -> "
          f"{out['after']['seconds']:.2f} s (medians of {GRID_ROUNDS})", flush=True)
    return out


def bench_accuracy(packages, root):
    es = packages["after"]
    # the reference flow of the after checkout's tests, which import it as ``eigenscore``
    spec = importlib.util.spec_from_file_location(
        "eigenscore_conftest", os.path.join(root, "tests", "conftest.py"))
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    IC = es.odeint.IntegratorConfig
    tight = IC(rtol=1e-8, atol=1e-10)
    cases = [(f"bart-{n}", bart_fit, n, np.linspace(-math.pi, math.pi, 41)[:, None], tight)
             for n in (100, 200, 1000)]
    cases += [(f"ou-ve-{n}", ou_ve_fit, n, np.linspace(-1.5, 2.5, 21)[:, None], tight)
              for n in (50, 200)]
    cases.append(("pinwheel-100", pinwheel_fit, 100, midpoint_grid_2d(16),
                  IC(rtol=1e-6, atol=1e-8)))
    out = {}
    for name, fit, n_times, x, cfg in cases:
        model, table, moments = fit(es, n_times)
        ref, ref_rhs = counted(
            es, lambda: conftest.reference_log_density(model, table, moments, x, cfg))
        row = {"reference_rhs_evaluations": ref_rhs}
        for side in SIDES:
            m = fit(packages[side], n_times)[0]
            ld, rhs = counted(packages[side], lambda: packages[side].log_density(m, x, cfg))
            row[side] = {"max_abs_error": float(np.abs(ld - ref).max()), "rhs_evaluations": rhs}
        out[name] = row
        print(f"accuracy {name}: " + ", ".join(
            f"{side} {row[side]['max_abs_error']:.2e} ({row[side]['rhs_evaluations']} RHS)"
            for side in SIDES) + f"; reference {ref_rhs} RHS", flush=True)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="root of the checkout to compare against")
    parser.add_argument("--after", default=".", help="root of the changed checkout")
    parser.add_argument("--out", default="BENCH_flow.json")
    parser.add_argument("--rounds", type=int, default=8, help="interleaved stage rounds")
    parser.add_argument("--runs", type=int, default=2, help="perfbench runs per checkout")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    roots = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    record = {
        "commits": {side: commit_of(roots[side]) for side in SIDES},
        "settings": {"rounds": args.rounds,
                     "fit_rounds": {name: rounds for name, _, _, rounds in FITS},
                     "runs": args.runs,
                     "seed": args.seed,
                     "kernel_rounds": KERNEL_ROUNDS,
                     "moment_rounds": MOMENT_ROUNDS,
                     "perfbench_seconds": PERFBENCH_SECONDS,
                     "src_compiled": True},
        "environment": {"cpu": platform.processor() or platform.machine(),
                        "cpus": os.cpu_count(), "numpy": np.__version__,
                        "blas_threads": 1},
    }
    for root in roots.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")],
                       check=True)
    # perfbench first: a child started from this process reports at least this
    # process's resident size as its peak_rss_mb, which the other parts raise
    record["perfbench"] = bench_perfbench(roots, args.runs, args.seed)
    record["trace"] = bench_trace(roots, args.seed)
    packages = {"before": load_package("eigenscore_before", roots["before"]),
                "after": load_package("eigenscore", roots["after"])}
    record["kernel"] = bench_kernel(packages, args.seed)
    record["moments"] = bench_moments(packages, args.seed)
    record["fits"] = bench_fits(packages)
    record["flow"] = flow_stages(packages, args.rounds)
    record["criterion_8_grid"] = criterion8_grid(packages)
    record["accuracy"] = bench_accuracy(packages, roots["after"])
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
