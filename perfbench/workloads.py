"""Benchmark workloads: inputs made from a seed, one pass of operations, checks.

A pass runs every repeated operation of a workload once. Passes fit the same
problem and integrate the same density points; each pass draws its own
prior samples from the seed and its index, so that a run's median covers
several draws, since the number of ODE steps a batch takes varies by about
10% from draw to draw. ``run_once`` holds operations done once per run (the
loss study, whose time is not an end-to-end metric, so that passes are short
and many). An operation is a fit, an integration batch, or a
loss-study cell. An operation fails when the library raises a typed
``EigenScoreError`` or when its output fails a check: a non-finite value, a
sample off the torus, a density whose mass leaves the acceptance bounds, or a
missing loss-study cell. Failures are counted, never raised.

The library is called through module attributes at call time
(``es.product_table``, ``eigenscore.cli.main``) so that the tracer's
rebinding reaches every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import csv
import math
import time
import types

import numpy as np

import speed

import eigenscore as es
import eigenscore.cli
from eigenscore.errors import EigenScoreError
from eigenscore.odeint import IntegratorConfig

TORUS_EDGE = math.pi + 1e-9
# |mass - 1| bounds of acceptance criteria 6 (1D line) and 8 (2D grid), and
# the L1 bound of criterion 6
MASS_TOL_1D, MASS_TOL_2D, L1_MAX = 0.02, 0.05, 0.15


class Pass:
    """Times, checks and counts the operations of one pass."""

    def __init__(self, quiet=contextlib.nullcontext, quality=None, index=0):
        self.index = index  # position in the run, which picks the prior draws
        self.times = {}  # stage -> seconds of each run at the reference speed
        self.wall_times = {}  # stage -> unscaled wall seconds of each run
        self.attempted = 0
        self.failures = []
        self.quality = {} if quality is None else quality  # shared by a run's passes
        self.rates = {}  # stage -> work units done, for per-second figures
        self.quiet = quiet  # wraps the benchmark's own checks and speed probes
        self._spent = [0.0, 0.0]

    def step(self, call, *args, **kwargs):
        """One library call, timed between two speed probes (see speed.py)."""
        with self.quiet():
            before = speed.probe()
        t0 = time.perf_counter()
        out = call(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        with self.quiet():
            after = speed.probe()
        self._spent[0] += elapsed
        self._spent[1] += speed.scale(elapsed, before, after)
        return out

    def op(self, stage, fn, check, units):
        """Run one operation ``fn(step)``, which makes its timed library calls
        through ``step``; return its output, or None if it failed."""
        self.attempted += 1
        self._spent = [0.0, 0.0]
        try:
            out = fn(self.step)
        except EigenScoreError as exc:
            self.failures.append(f"{stage}: {type(exc).__name__}: {exc}")
            return None
        with self.quiet():
            problem = check(out)
        if problem:
            self.failures.append(f"{stage}: {problem}")
            return None
        self.wall_times.setdefault(stage, []).append(self._spent[0])
        self.times.setdefault(stage, []).append(self._spent[1])
        self.rates[stage] = units
        return out

    def skip(self, *stages):
        for stage in stages:
            self.attempted += 1
            self.failures.append(f"{stage}: not run because the fit failed")


def energy_statistic(X, Y, block=256):
    """Two-sample energy statistic 2E|X-Y| - E|X-X'| - E|Y-Y'| (blocked)."""
    X, Y = np.atleast_2d(X), np.atleast_2d(Y)

    def mean_dist(A, B):
        total = 0.0
        for i in range(0, len(A), block):
            diff = A[i:i + block, None, :] - B[None, :, :]
            total += float(np.sqrt((diff * diff).sum(axis=-1)).sum())
        return total / (len(A) * len(B))

    return 2.0 * mean_dist(X, Y) - mean_dist(X, X) - mean_dist(Y, Y)


def _bad_points(x):
    if not np.all(np.isfinite(x)):
        return "non-finite sample"
    if np.any(np.abs(x) > TORUS_EDGE):
        return "sample off the torus"
    return None


def _check_model(model):
    if not np.all(np.isfinite(model.alphas)):
        return "non-finite coefficients"
    return None


def _nothing(p, inp, work_dir):
    pass


def _pass(fit):
    """A pass: ``fits`` fits, then PF-ODE samples, log-densities and
    reverse-SDE samples from the last fitted model."""
    def run_pass(p, inp, work_dir):
        for _ in range(inp.sizes["fits"]):
            model = p.op("fit", lambda step: fit(inp, step), _check_model, 1)
        if model is None:
            p.skip("sample", "density", "sde")
        else:
            _flow(p, inp, model, p.index)
    return run_pass


def _flow(p, inp, model, draw):
    def check_samples(key):
        def check(x):
            problem = _bad_points(x)
            if problem is None and key not in p.quality:  # from the first draw
                p.quality[key] = energy_statistic(x, inp.reference_draws)
            return problem
        return check

    def check_density(ld):
        if not np.all(np.isfinite(ld)):
            return "non-finite log-density"
        dens = np.exp(ld)
        mass = float(inp.density_weights @ dens)
        p.quality["density_mass_err"] = abs(mass - 1.0)
        if inp.density_ref is not None:
            l1 = float(inp.density_weights @ np.abs(dens - inp.density_ref))
            p.quality["density_l1"] = l1
            if l1 > L1_MAX:
                return f"density L1 {l1:.4f} > {L1_MAX}"
        if abs(mass - 1.0) > inp.mass_tol:
            return f"density mass {mass:.5f} outside 1 +- {inp.mass_tol}"
        return None

    s = inp.sizes
    p.op("sample", lambda step: step(
        es.sample_pf_ode, model, s["n_samples"], inp.sample_cfg,
        rng=np.random.default_rng([inp.seeds["sample"], draw])),
        check_samples("sample_energy"), s["n_samples"])
    p.op("density", lambda step: step(
        es.log_density, model, inp.density_points, inp.density_cfg),
        check_density, len(inp.density_points))
    p.op("sde", lambda step: step(
        es.sample_reverse_sde, model, s["n_samples"], s["sde_steps"],
        rng=np.random.default_rng([inp.seeds["sde"], draw])),
        check_samples("sde_energy"), s["n_samples"])


# ---------------------------------------------------------------------------
# pinwheel-2d: sampled moments, modulation shrinkage, noise-floored solves
# ---------------------------------------------------------------------------

PINWHEEL_DATA_SEED = 3


def _midpoint_grid_2d(n):
    x = (np.arange(n) + 0.5) / n * 2.0 * math.pi - math.pi
    gx, gy = np.meshgrid(x, x, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1), np.full(n * n, (2.0 * math.pi / n) ** 2)


def pinwheel_setup(seed, sizes):
    # The data set is the one of acceptance criterion 8 (data seed 3) in every
    # run: the fit and the density integration then do the same work at every
    # seed, where a fresh draw of the data moves the density's ODE steps by
    # about 12%. The seed draws the priors and the held-out reference set
    # (stream offsets follow criterion 8 at seed 3: samples 10, held-out 99).
    seeds = {"data": PINWHEEL_DATA_SEED, "sample": seed + 7, "held": seed + 96,
             "sde": seed + 8}
    ds = es.toy2d("pinwheel", sizes["n_data"], np.random.default_rng(seeds["data"]))
    basis = es.trig_basis_nd(2, sizes["eigenvalue_floor"])
    raw_held = es.targets._TOYS["pinwheel"](sizes["n_samples"],
                                            np.random.default_rng(seeds["held"]))
    points, weights = _midpoint_grid_2d(sizes["grid_n"])
    return types.SimpleNamespace(
        sizes=sizes, seeds=seeds, basis=basis, data=ds.points, domain_map=ds.domain_map,
        schedule=es.Schedule.ve(0.01, 50.0),
        reference_draws=ds.domain_map.forward(raw_held),
        sample_cfg=IntegratorConfig(rtol=1e-4, atol=1e-6),
        density_points=points, density_weights=weights, density_ref=None,
        density_cfg=IntegratorConfig(rtol=1e-3, atol=1e-5), mass_tol=MASS_TOL_2D,
    )


def pinwheel_fit(inp, step):
    # three timed steps, so that each is scaled by the speed around it
    table = step(es.product_table, inp.basis)
    moments = step(lambda: es.modulation_shrink(es.sample_moments(inp.basis, inp.data)))
    return step(es.presolve_grid, inp.basis, table, moments, inp.schedule,
                n_times=inp.sizes["n_times"], domain_map=inp.domain_map)


# ---------------------------------------------------------------------------
# bart-1d: analytic moments (LU path), tight tolerances, SDE, loss study
# ---------------------------------------------------------------------------

def bart_setup(seed, sizes):
    # stream offsets follow acceptance criteria 6 and 9 at seed 8:
    # PF-ODE prior 8, reverse-SDE prior 9, loss study 77
    seeds = {"sample": seed, "sde": seed + 1, "exact": seed + 2, "study": seed + 69}
    gm = es.bart_simpson()
    basis = es.trig_basis_1d(sizes["max_freq"])
    exact = es.wrap_torus(es.sample_gaussian_mixture(
        gm, sizes["n_samples"], np.random.default_rng(seeds["exact"])))
    line = np.linspace(-math.pi, math.pi, sizes["line_n"])[:, None]
    weights = np.full(len(line), line[1, 0] - line[0, 0])
    weights[[0, -1]] *= 0.5
    return types.SimpleNamespace(
        sizes=sizes, seeds=seeds, basis=basis, target=gm,
        schedule=es.Schedule.ve(0.01, 50.0), reference_draws=exact,
        sample_cfg=IntegratorConfig(rtol=1e-5, atol=1e-7),
        density_points=line, density_weights=weights,
        density_ref=es.wrapped_mixture_pdf(gm, line),
        density_cfg=IntegratorConfig(rtol=1e-6, atol=1e-8), mass_tol=MASS_TOL_1D,
    )


def _loss_study(p, inp, work_dir):
    """One in-process ``eigenscore loss-study`` run; each CSV cell is an operation."""
    s = inp.sizes
    sizes = [int(v) for v in s["study_sizes"].split(",")]
    n_taus, n_estimators = 2, 2
    n_cells = len(sizes) * n_taus * n_estimators
    out = f"{work_dir}/loss-study.csv"
    argv = ["loss-study", "--reps", str(s["study_reps"]), "--basis-sizes", s["study_sizes"],
            "--n", str(s["study_n"]), "--n-quad", str(s["n_quad"]), "--workers", "1",
            "--seed", str(inp.seeds["study"]), "--out", out]
    p.attempted += n_cells
    code = p.step(eigenscore.cli.main, argv)  # the pass's only timed call
    if code != 0:
        p.failures.append(f"loss-study: exit code {code}, {n_cells} cells missing")
        return
    with p.quiet(), open(out, newline="") as fh:
        rows = [r for r in csv.DictReader(fh)
                if math.isfinite(float(r["mean"]))
                and int(r["replications"]) == s["study_reps"]]
    if len(rows) != n_cells:
        p.failures.append(f"loss-study: {n_cells - len(rows)} of {n_cells} cells "
                          "missing or invalid")
        return
    top = [float(r["mean"]) for r in rows
           if int(r["basis_size"]) == max(sizes) and r["estimator"] == "shrinkage"]
    p.quality["study_loss"] = float(np.mean(top))
    p.wall_times["study"], p.times["study"] = [p._spent[0]], [p._spent[1]]
    p.rates["study"] = s["study_reps"] * n_cells  # one fit per rep and cell


def bart_fit(inp, step):
    def fit():
        table = es.product_table(inp.basis)
        moments = es.analytic_moments(inp.target, inp.basis)
        return es.presolve_grid(inp.basis, table, moments, inp.schedule,
                                n_times=inp.sizes["n_times"])
    return step(fit)


# "full" sizes follow the ROADMAP workloads, scaled so that a 55 s run holds
# three or four pinwheel passes of about 15 s: 100 tau nodes instead of 1000, one
# 40x40 density batch instead of the 128x128 grid, 200 SDE steps. A bart
# pass fits three times, since its 0.3 s fit is the noisiest stage per call.
# "small" sizes serve the benchmark's own test.
WORKLOADS = {
    "pinwheel-2d": types.SimpleNamespace(
        setup=pinwheel_setup, run_pass=_pass(pinwheel_fit), run_once=_nothing, default_seed=3,
        sizes={
            "full": dict(n_data=20000, eigenvalue_floor=-125.0, n_times=100,
                         n_samples=2000, grid_n=40, sde_steps=200, fits=1),
            "small": dict(n_data=2000, eigenvalue_floor=-25.0, n_times=100,
                          n_samples=200, grid_n=40, sde_steps=20, fits=1),
        }),
    "bart-1d": types.SimpleNamespace(
        setup=bart_setup, run_pass=_pass(bart_fit), run_once=_loss_study, default_seed=8,
        sizes={
            "full": dict(max_freq=25, n_times=1000, line_n=801, n_samples=2000,
                         sde_steps=1000, fits=3, study_reps=5,
                         study_sizes="5,10,15,20,25", study_n=2000, n_quad=4096),
            "small": dict(max_freq=25, n_times=200, line_n=201, n_samples=200,
                          sde_steps=100, fits=2, study_reps=2,
                          study_sizes="4,6", study_n=200, n_quad=512),
        }),
}
