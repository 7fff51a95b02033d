"""Before/after benchmark of the probability flow, written to BENCH_flow.json.

Run from the repository root, with a checkout of the commit to compare
against (made with ``git clone`` or ``git archive``):

    python3 scripts/bench_flow.py --before ../parent --after . --out BENCH_flow.json

Both packages are loaded into one process. Each model is fit once (cached
per fit) by the ``after`` checkout and loaded into the ``before`` one through its
``model_from_dict``, so both flows read the same node coefficients. Parts:

* ``fits``: each checkout's own presolve of perfbench's two fits (pinwheel-2d,
  100 nodes; bart-1d, 1000 nodes) and of acceptance criterion 8's fit
  (pinwheel, 1000 nodes): its time over ``FIT_ROUNDS`` interleaved rounds,
  the number of nodes each solve path took (``floored`` where ``solve_node``
  calls ``scipy.linalg.eigh``, ``cholesky`` where it calls ``cho_solve``,
  ``diagonal`` where it calls neither), the largest relative max-norm
  difference of a node's alpha between the checkouts, on floored and on
  other nodes, and whether ``regularized``, ``clamped``, ``alphas`` and
  ``model_to_dict`` output are identical.
* ``flow``: RHS evaluations (calls of ``generate.flow_rate``) and stage times
  of PF-ODE sampling and of one log-density batch, at the shapes of
  perfbench's workloads (pinwheel-2d: 100 nodes, 2000 samples at rtol 1e-4,
  a 40x40 batch at rtol 1e-3; bart-1d: 1000 nodes, 2000 samples at rtol 1e-5,
  801 points at rtol 1e-6) and of acceptance criterion 8 (pinwheel, 1000
  nodes, 2000 samples, one 8192-point batch at rtol 1e-3). A stage's time is
  the median over ``--rounds`` interleaved rounds (A then B, then B then A).
  Each checkout's samples also carry their largest and RMS distance from a
  reference integrated in internal time at rtol 1e-8 from the same prior draw.
* ``criterion_8_grid``: RHS evaluations of each of the eight 8192-point
  batches of criterion 8's 256x256 grid, and the median time of a pass over
  it over ``GRID_ROUNDS`` interleaved rounds.
* ``accuracy``: the largest |log-density difference| of each checkout from
  the interpolation-free flow, which solves the node system at every tau the
  integrator asks for, with the RHS evaluations of each (bart 100/200/1000
  nodes, 41 points, and OU on the VE clock 50/200 nodes, 21 points, at rtol
  1e-8; pinwheel 100 nodes, a 16x16 grid, at rtol 1e-6).
* ``perfbench``: ``perfbench/run.py --trace 0`` on every workload, ``--runs``
  alternating runs per checkout (``scripts/bench_kernel.py``'s harness).
* ``trace``: per-layer metrics of one ``perfbench/run.py --trace 1`` run per
  checkout and workload.

BLAS and OpenMP are pinned to one thread, as in perfbench.
"""

import bench_kernel  # pins BLAS and OpenMP to one thread before numpy loads

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from bench_kernel import SIDES, WORKLOADS, bench_perfbench, commit_of, load_package  # noqa: E402

TRACED = ("odeint.nfev", "solver.alpha_at_calls", "solver.alpha_at_s", "generate.sample_s",
          "generate.density_s", "generate.sde_s", "cli.loss_study_s", "cli.self_s",
          "targets.reference_s", "solver.presolve_s", "solver.linalg_s", "solver.nodes",
          "solver.eigh_calls", "solver.chol_calls")
FIT_ROUNDS = 3  # interleaved presolve rounds per fit; criterion 8's takes 15-22 s a side
GRID_ROUNDS = 5  # interleaved passes over criterion 8's density grid, 5-9 s each


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


def reference_log_density(pkg, model, table, moments, x, cfg):
    """Log-densities and RHS evaluations of the flow that solves the node
    system at every tau it reads (memoised per tau) instead of interpolating."""
    assembler = pkg.SystemAssembler(model.basis, table, moments)

    @functools.cache
    def solve(tau):
        t = pkg.internal_time(model.schedule, tau)
        return pkg.solver.solve_node(assembler.system(t)).alpha

    with mock.patch.object(pkg.generate, "alpha_at", lambda _, tau: solve(float(tau))):
        return counted(pkg, lambda: pkg.log_density(model, x, cfg))


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


def both_sides(packages, model):
    """The model as each package's ScoreModel."""
    d = packages["after"].model_to_dict(model)
    return {"after": model, "before": packages["before"].model_from_dict(d)}


def presolve_paths(pkg, inputs, n_times):
    """The model of ``pkg``'s presolve and the solve path of each node (see
    the ``fits`` part of the module docstring)."""
    calls = {"eigh": 0, "cho_solve": 0}
    paths = []
    solve_node = pkg.solver.solve_node

    def counting(name):
        fn = getattr(scipy.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recording(system):
        seen = dict(calls)
        node = solve_node(system)
        paths.append("floored" if calls["eigh"] > seen["eigh"] else
                     "cholesky" if calls["cho_solve"] > seen["cho_solve"] else "diagonal")
        return node

    with mock.patch.object(scipy.linalg, "eigh", counting("eigh")), \
            mock.patch.object(scipy.linalg, "cho_solve", counting("cho_solve")), \
            mock.patch.object(pkg.solver, "solve_node", recording):
        return presolve(pkg, inputs, n_times), paths


def bench_fits(packages):
    out = {}
    for name, make_inputs, n_times in (("pinwheel-2d", pinwheel_inputs, 100),
                                       ("bart-1d", bart_inputs, 1000),
                                       ("criterion-8", pinwheel_inputs, 1000)):
        inputs = {side: make_inputs(packages[side]) for side in SIDES}
        times = {side: [] for side in SIDES}
        models, paths = {}, {}
        for r in range(FIT_ROUNDS):
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                t0 = time.perf_counter()
                models[side], paths[side] = presolve_paths(packages[side], inputs[side], n_times)
                times[side].append(time.perf_counter() - t0)
        diags = {side: models[side].diagnostics for side in SIDES}
        before, after = models["before"].alphas, models["after"].alphas
        diff = np.abs(after - before).max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # alpha is 0 at late nodes
            rel = np.where(diff == 0.0, 0.0, diff / np.abs(before).max(axis=1))
        floored = diags["before"]["regularized"]
        dicts = {side: json.dumps(packages[side].model_to_dict(models[side])) for side in SIDES}
        out[name] = {
            "nodes": n_times,
            "presolve_seconds": {side: {"median": statistics.median(times[side]),
                                        "runs": times[side]} for side in SIDES},
            "solve_paths": {side: {path: paths[side].count(path)
                                   for path in ("diagonal", "cholesky", "floored")}
                            for side in SIDES},
            "max_relative_alpha_difference": {
                "floored": float(rel[floored].max(initial=0.0)),
                "other": float(rel[~floored].max(initial=0.0))},
            "regularized_identical": bool(np.array_equal(
                diags["before"]["regularized"], diags["after"]["regularized"])),
            "clamped_identical": bool(np.array_equal(
                diags["before"]["clamped"], diags["after"]["clamped"])),
            "alphas_identical": before.tobytes() == after.tobytes(),
            "model_dict_identical": dicts["before"] == dicts["after"],
        }
        print(f"fits {name}: {out[name]}", flush=True)
    return out


def flow_stages(packages, rounds):
    es = packages["after"]
    IC = es.odeint.IntegratorConfig
    line = np.linspace(-math.pi, math.pi, 801)[:, None]
    grid_8192 = midpoint_grid_2d(256)[:8192]
    shapes = (
        # (name, fit, nodes, sample cfg, density points, density cfg)
        ("pinwheel-2d", pinwheel_fit, 100, IC(rtol=1e-4, atol=1e-6),
         midpoint_grid_2d(40), IC(rtol=1e-3, atol=1e-5)),
        ("bart-1d", bart_fit, 1000, IC(rtol=1e-5, atol=1e-7), line, IC(rtol=1e-6, atol=1e-8)),
        ("criterion-8", pinwheel_fit, 1000, IC(rtol=1e-4, atol=1e-6),
         grid_8192, IC(rtol=1e-3, atol=1e-5)),
    )
    out = {}
    for name, fit, n_times, sample_cfg, points, density_cfg in shapes:
        models = both_sides(packages, fit(es, n_times)[0])
        stages = {
            "sample": lambda side: packages[side].sample_pf_ode(
                models[side], 2000, sample_cfg, rng=np.random.default_rng(10)),
            "density": lambda side: packages[side].log_density(models[side], points, density_cfg),
        }
        out[name] = {"nodes": n_times, "density_points": len(points)}
        for stage, run in stages.items():
            row = {side: {} for side in SIDES}
            results = {}
            for side in SIDES:
                results[side], row[side]["rhs_evaluations"] = counted(
                    packages[side], functools.partial(run, side))
            times = {side: [] for side in SIDES}
            for r in range(rounds):
                for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
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
            print(f"flow {name} {stage}: RHS {row['before']['rhs_evaluations']} -> "
                  f"{row['after']['rhs_evaluations']}, {row['before']['seconds']:.3f} s -> "
                  f"{row['after']['seconds']:.3f} s (x{row['speedup']:.2f})", flush=True)
    return out


def criterion8_grid(packages):
    """RHS evaluations of each 8192-point batch of criterion 8's 256x256
    density grid, and the median time of a pass over the grid over
    ``GRID_ROUNDS`` interleaved rounds, per checkout."""
    es = packages["after"]
    models = both_sides(packages, pinwheel_fit(es, 1000)[0])
    points = midpoint_grid_2d(256)
    cfg = es.odeint.IntegratorConfig(rtol=1e-3, atol=1e-5)

    def grid_pass(side):
        return [counted(packages[side], lambda: packages[side].log_density(
            models[side], points[i:i + 8192], cfg))[1] for i in range(0, len(points), 8192)]

    out = {side: {"rhs_evaluations": grid_pass(side), "runs": []} for side in SIDES}
    for r in range(GRID_ROUNDS):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
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


def bench_accuracy(packages):
    es = packages["after"]
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
        ref, ref_rhs = reference_log_density(es, model, table, moments, x, cfg)
        row = {"reference_rhs_evaluations": ref_rhs}
        for side, m in both_sides(packages, model).items():
            ld, rhs = counted(packages[side], lambda: packages[side].log_density(m, x, cfg))
            row[side] = {"max_abs_error": float(np.abs(ld - ref).max()), "rhs_evaluations": rhs}
        out[name] = row
        print(f"accuracy {name}: " + ", ".join(
            f"{side} {row[side]['max_abs_error']:.2e} ({row[side]['rhs_evaluations']} RHS)"
            for side in SIDES) + f"; reference {ref_rhs} RHS", flush=True)
    return out


def bench_trace(roots, seed):
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for side in SIDES:
            metrics, _, _ = bench_kernel.perfbench_run(roots[side], workload, seed, 1)
            out[workload][side] = {k: metrics[k] for k in TRACED if k in metrics}
        print(f"trace {workload}: {out[workload]}", flush=True)
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
        "settings": {"rounds": args.rounds, "fit_rounds": FIT_ROUNDS, "runs": args.runs,
                     "seed": args.seed,
                     "perfbench_seconds": bench_kernel.PERFBENCH_SECONDS},
        "environment": {"cpu": platform.processor() or platform.machine(),
                        "cpus": os.cpu_count(), "numpy": np.__version__,
                        "blas_threads": 1},
    }
    # perfbench first: a child started from this process reports at least this
    # process's resident size as its peak_rss_mb, which the other parts raise
    record["perfbench"] = bench_perfbench(roots, args.runs, args.seed)
    record["trace"] = bench_trace(roots, args.seed)
    packages = {side: load_package(f"eigenscore_{side}", roots[side]) for side in SIDES}
    record["fits"] = bench_fits(packages)
    record["flow"] = flow_stages(packages, args.rounds)
    record["criterion_8_grid"] = criterion8_grid(packages)
    record["accuracy"] = bench_accuracy(packages)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
