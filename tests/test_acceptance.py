"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; each criterion is a single
test function, so the verbose report shows exactly one PASSED/FAILED line per
criterion. Each test also prints a one-line summary with the measured values
(visible with ``-s`` or on failure).
"""

import math
import sys
import time

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.stats import binomtest, kstest

import eigenscore as es
from eigenscore.cli import main as cli_main
from eigenscore.odeint import IntegratorConfig
from eigenscore.solver import QuadratureSpec, reference_loss, shrinkage_losses
from eigenscore.targets import _TOYS, AnalyticReference
from eigenscore.process import OU, TRUNCATED_BM, tau_at

from conftest import energy_distance_pvalue, fit_gaussian_ou, uniform_moments


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}", file=sys.stderr)
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# helpers shared by the Bart Simpson loss studies (criteria 6 and 7)
# ---------------------------------------------------------------------------

def _loss_study(sizes, n_reps, seed, n_samples=2000):
    """Per-replication weighted L2 score losses, sample-mean vs shrinkage.

    Replication ``rep`` fits the data drawn by ``default_rng([seed, rep])``,
    as the loss-study CLI does, through ``solver.shrinkage_losses`` with one
    ``solver.reference_loss`` per size and time. Losses are averaged over the
    default pair of study times (smallest grid tau and the tau with internal
    time 0.02); returns arrays of shape (n_reps,) per size and estimator.
    """
    gm = es.bart_simpson()
    sched = es.Schedule.ve(0.01, 50.0)
    ref = AnalyticReference(gm, sched, TRUNCATED_BM)
    spec = QuadratureSpec(n_nodes=4096)
    bases = [(basis, es.product_table(basis)) for basis in map(es.trig_basis_1d, sizes)]
    refs = [[reference_loss(basis, table, ref, tau, spec) for tau in (0.0, tau_at(sched, 0.02))]
            for basis, table in bases]
    losses = np.stack([
        shrinkage_losses(es.wrap_torus(es.sample_gaussian_mixture(
            gm, n_samples, np.random.default_rng([seed, rep]))), bases, refs)
        for rep in range(n_reps)]).mean(axis=2)  # (n_reps, sizes, estimators)
    return {size: {"raw": losses[:, i, 0], "shr": losses[:, i, 1]}
            for i, size in enumerate(sizes)}


# ---------------------------------------------------------------------------
# 1. Spectral correctness
# ---------------------------------------------------------------------------

def test_criterion_01_spectral_correctness():
    t0 = time.monotonic()
    # trig orthonormality up to frequency 50 by midpoint quadrature
    basis_t = es.trig_basis_1d(50)
    n_q = 16384
    xq = ((np.arange(n_q) + 0.5) / n_q * 2 * math.pi - math.pi)[:, None]
    V = basis_t.eval_values(xq)
    gram_t = (V.T @ V) * (2 * math.pi / n_q) / (2 * math.pi)
    err_trig = np.max(np.abs(gram_t - np.eye(V.shape[1])))
    # Hermite orthonormality up to order 50 by Gauss-Hermite quadrature
    basis_h = es.hermite_univariate_basis(1, 50)
    nodes, w = hermegauss(200)
    Vh = basis_h.eval_values(nodes[:, None])
    gram_h = (Vh.T * w) @ Vh / math.sqrt(2 * math.pi)
    err_herm = np.max(np.abs(gram_h - np.eye(Vh.shape[1])))
    # product-table pointwise identity phi_k phi_l = sum_h beta_h phi_h
    rng = np.random.default_rng(1)
    xs = rng.uniform(-math.pi, math.pi, (200, 1))
    tab_t = es.product_table(basis_t)
    vals = basis_t.eval_values(xs)
    ext = basis_t.eval_values(xs, extended=True)
    err_prod_t = 0.0
    for k, l in [(1, 1), (3, 7), (20, 31), (49, 50), (99, 100), (2, 98)]:
        h, beta = tab_t.get(k, l)
        err_prod_t = max(err_prod_t,
                         float(np.max(np.abs(vals[:, k] * vals[:, l] - ext[:, h] @ beta))))
    # Hermite product identity at order 50: individual expansion terms reach
    # ~1e7, so the identity is checked relative to the term magnitude
    tab_h = es.product_table(basis_h)
    xh = rng.normal(0.0, 1.0, (200, 1))
    vh = basis_h.eval_values(xh)
    eh = basis_h.eval_values(xh, extended=True)
    err_prod_h = 0.0
    for k, l in [(1, 2), (10, 10), (25, 40), (50, 50)]:
        h, beta = tab_h.get(k, l)
        scale = np.max(np.abs(eh[:, h] * beta), axis=1) + 1.0
        err_prod_h = max(err_prod_h,
                         float(np.max(np.abs(vh[:, k] * vh[:, l] - eh[:, h] @ beta) / scale)))
    # gradient / Laplacian finite differences (relative 1e-5)
    xs = rng.uniform(-2.5, 2.5, (50, 1))
    err_fd = 0.0
    for basis, pts in ((basis_t, xs), (basis_h, xs)):
        _, grads, laps = basis.eval_batch(pts)
        h1, h2 = 1e-6, 1e-4
        gfd = (basis.eval_values(pts + h1) - basis.eval_values(pts - h1)) / (2 * h1)
        lfd = (basis.eval_values(pts + h2) - 2 * basis.eval_values(pts)
               + basis.eval_values(pts - h2)) / h2 ** 2
        scale_g = np.max(np.abs(gfd)) + 1.0
        scale_l = np.max(np.abs(lfd)) + 1.0
        err_fd = max(err_fd,
                     float(np.max(np.abs(grads[:, 0, :] - gfd)) / scale_g),
                     float(np.max(np.abs(laps - lfd)) / scale_l))
    elapsed = time.monotonic() - t0
    ok = (err_trig < 1e-8 and err_herm < 1e-8 and err_prod_t < 1e-10
          and err_prod_h < 1e-10 and err_fd < 1e-5 and elapsed < 30)
    _report(1, ok, f"orthonormality trig {err_trig:.1e} hermite {err_herm:.1e}; "
                   f"product identity trig {err_prod_t:.1e} hermite(rel) {err_prod_h:.1e}; "
                   f"FD {err_fd:.1e}; {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# 2. Eigenrelation under forward simulation
# ---------------------------------------------------------------------------

def test_criterion_02_eigenrelation():
    t0 = time.monotonic()
    n_mc = 1_000_000
    worst = 0.0
    for process in (OU, TRUNCATED_BM):
        rng = np.random.default_rng(2)
        if process == OU:
            basis = es.hermite_univariate_basis(1, 5)
            sched = es.Schedule.vp(0.1, 20.0)
            x0 = 0.3 + 0.5 * rng.standard_normal((n_mc, 1))
        else:
            basis = es.trig_basis_1d(5)
            sched = es.Schedule.ve(0.1, 3.0)
            x0 = es.wrap_torus(0.3 + 0.5 * rng.standard_normal((n_mc, 1)))
        v0 = basis.eval_values(x0)
        lam = basis.eigenvalues
        for t_target in (0.1, 1.0):
            tau = tau_at(sched, t_target)
            xt = es.sample_forward(process, sched, x0, tau, rng)
            vt = basis.eval_values(xt)
            expect = np.exp(lam * t_target) * v0.mean(axis=0)
            got = vt.mean(axis=0)
            se = (vt.std(axis=0) / math.sqrt(n_mc)
                  + np.exp(lam * t_target) * v0.std(axis=0) / math.sqrt(n_mc))
            worst = max(worst, float(np.max(np.abs(got - expect) / (4 * se + 1e-15))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1.0 and elapsed < 60
    _report(2, ok, f"max |deviation|/4SE = {worst:.3f} <= 1 over both processes, "
                   f"t in {{0.1, 1}}, 1e6 samples; {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 3. A_t / b_t Monte-Carlo oracle and invariant-measure limit
# ---------------------------------------------------------------------------

def test_criterion_03_system_oracle():
    basis = es.trig_basis_1d(3)  # 6 active functions
    table = es.product_table(basis)
    gm = es.GaussianMixture(weights=np.array([1.0]), means=np.array([[0.7]]),
                            variances=np.array([[0.16]]))
    moments = es.analytic_moments(gm, basis)
    sched = es.Schedule.ve(0.1, 2.0)
    tau = 0.6
    t = es.internal_time(sched, tau)
    system = es.SystemAssembler(basis, table, moments).system(t)
    A, b = system.A, system.b
    rng = np.random.default_rng(3)
    n_mc = 300_000
    x0 = es.wrap_torus(es.sample_gaussian_mixture(gm, n_mc, rng))
    xt = es.sample_forward(TRUNCATED_BM, sched, x0, tau, rng)
    _, grads, _ = basis.eval_batch(xt)
    G = grads[:, 0, 1:]
    vals = basis.eval_values(xt)[:, 1:]
    lam = basis.eigenvalues[1:]
    n = basis.n_active
    worst = 0.0
    for k in range(n):
        for l in range(n):
            prod = G[:, k] * G[:, l]
            se = prod.std() / math.sqrt(n_mc)
            worst = max(worst, abs(A[k, l] - prod.mean()) / (4 * se + 1e-15))
        se = abs(lam[k]) * vals[:, k].std() / math.sqrt(n_mc)
        worst = max(worst, abs(b[k] - lam[k] * vals[:, k].mean()) / (4 * se + 1e-15))
    # invariant measure: A_t = Lambda, b_t = 0 exactly
    invariant = es.SystemAssembler(basis, table, uniform_moments(basis))
    err_inv = 0.0
    for t_chk in (0.0, 0.5, 3.0):
        sys_u = invariant.system(t_chk)
        err_inv = max(err_inv, float(np.max(np.abs(sys_u.A - np.diag(-lam)))),
                      float(np.max(np.abs(sys_u.b))))
    ok = worst <= 1.0 and err_inv < 1e-12
    _report(3, ok, f"MC oracle max |dev|/4SE = {worst:.3f} <= 1 (6-function basis); "
                   f"invariant-measure limit error {err_inv:.1e}")


# ---------------------------------------------------------------------------
# 4. Gaussian exactness
# ---------------------------------------------------------------------------

def test_criterion_04_gaussian_exactness():
    mean, var = 0.5, 0.25
    model, gm, sched = fit_gaussian_ou(mean, var, n_tau=20)
    err = 0.0
    for g, tau in enumerate(model.grid):
        t = es.internal_time(sched, tau)
        m_t = math.exp(-t) * mean
        v_t = math.exp(-2 * t) * var + (1 - math.exp(-2 * t))
        alpha = model.alphas[g]
        err = max(err, abs(alpha[0] - m_t / v_t),
                  abs(alpha[1] - (v_t - 1) / (math.sqrt(2) * v_t)))
    ref = AnalyticReference(gm, sched, OU)
    spec = QuadratureSpec(n_nodes=4096, lower=-10.0, upper=10.0)
    loss = max(es.sm_loss(model, tau, ref, spec)
               for tau in model.grid[[0, len(model.grid) // 2, -1]])
    ok = err < 1e-10 and loss < 1e-12
    _report(4, ok, f"coefficient error {err:.2e} < 1e-10 across 20 times; "
                   f"sm_loss {loss:.2e} < 1e-12")


# ---------------------------------------------------------------------------
# 5. Modulation estimator closed form vs grid search
# ---------------------------------------------------------------------------

def test_criterion_05_modulation_grid_search():
    rng = np.random.default_rng(5)
    n = 1000
    theta = rng.normal(0.0, 0.5, n) * rng.choice([0.05, 0.3, 1.0], n)
    var = rng.uniform(1e-6, 0.3, n)
    m = es.MomentVector(theta_hat=theta, var_hat=var, gamma=np.ones(n), n_samples=100)
    gamma_closed = es.modulation_shrink(m).gamma
    # two-stage grid search of the per-coordinate risk
    # R(g) = g^2 sigma^2 + (1-g)^2 max(theta^2 - sigma^2, 0)
    c = np.maximum(theta ** 2 - var, 0.0)
    grid = np.linspace(0.0, 1.0, 10001)
    risk = grid[None, :] ** 2 * var[:, None] + (1 - grid[None, :]) ** 2 * c[:, None]
    coarse = grid[np.argmin(risk, axis=1)]
    lo = np.clip(coarse - 2e-4, 0.0, 1.0)
    hi = np.clip(coarse + 2e-4, 0.0, 1.0)
    fine = lo[:, None] + (hi - lo)[:, None] * np.linspace(0, 1, 2001)[None, :]
    risk = fine ** 2 * var[:, None] + (1 - fine) ** 2 * c[:, None]
    gamma_grid = fine[np.arange(n), np.argmin(risk, axis=1)]
    # entry 0 is the constant eigenfunction and is never shrunk
    err = float(np.max(np.abs(gamma_closed[1:] - gamma_grid[1:])))
    ok = err < 1e-6
    _report(5, ok, f"closed-form vs grid-search gamma max error {err:.2e} < 1e-6 "
                   f"on 1000 random inputs")


# ---------------------------------------------------------------------------
# 6. Bart Simpson end-to-end
# ---------------------------------------------------------------------------

def test_criterion_06_bart_simpson_end_to_end():
    t0 = time.monotonic()
    gm = es.bart_simpson()
    rng = np.random.default_rng(6)
    data = es.wrap_torus(es.sample_gaussian_mixture(gm, 2000, rng))
    basis = es.trig_basis_1d(25)
    table = es.product_table(basis)
    mom = es.modulation_shrink(es.sample_moments(basis, data))
    sched = es.Schedule.ve(0.01, 50.0)
    model = es.presolve_grid(basis, table, mom, sched, n_times=1000)
    x = np.linspace(-math.pi, math.pi, 801)[:, None]
    ld = es.log_density(model, x, IntegratorConfig(rtol=1e-6, atol=1e-8))
    w = np.full(801, x[1, 0] - x[0, 0])
    w[0] *= 0.5
    w[-1] *= 0.5
    integral = float(w @ np.exp(ld))
    l1 = float(w @ np.abs(np.exp(ld) - es.wrapped_mixture_pdf(gm, x)))
    study = _loss_study([25], n_reps=50, seed=77)
    mean_raw = float(study[25]["raw"].mean())
    mean_shr = float(study[25]["shr"].mean())
    elapsed = time.monotonic() - t0
    ok = (abs(integral - 1.0) <= 0.02 and l1 <= 0.15
          and mean_shr <= mean_raw and elapsed < 300)
    _report(6, ok, f"density integral {integral:.4f} (1 +- 0.02); L1 {l1:.4f} <= 0.15; "
                   f"size-25 mean loss shrinkage {mean_shr:.3f} <= sample-mean "
                   f"{mean_raw:.3f} over 50 reps; {elapsed:.1f}s < 300s")


# ---------------------------------------------------------------------------
# 7. Shrinkage-gap monotonicity
# ---------------------------------------------------------------------------

def test_criterion_07_shrinkage_gap_monotonicity():
    sizes = [5, 10, 15, 20, 25]
    study = _loss_study(sizes, n_reps=50, seed=77)
    gaps = {s: study[s]["raw"] - study[s]["shr"] for s in sizes}
    detail = []
    ok = True
    for s in sizes:
        g = gaps[s]
        nz = int((g != 0).sum())
        neg = int((g < 0).sum())
        # sign test: the gap is NOT significantly negative at level 0.05
        p_neg = binomtest(neg, nz, alternative="greater").pvalue
        detail.append(f"size {s}: +{int((g > 0).sum())}/-{neg} (p_neg={p_neg:.3f})")
        ok = ok and p_neg >= 0.05
    widen = gaps[25] - gaps[5]
    nz = int((widen != 0).sum())
    p_widen = binomtest(int((widen > 0).sum()), nz, alternative="greater").pvalue
    ok = ok and p_widen < 0.05
    _report(7, ok, "; ".join(detail) + f"; widening 5->25 sign test p={p_widen:.4f} < 0.05")


# ---------------------------------------------------------------------------
# 8. 2D end-to-end on the pinwheel
# ---------------------------------------------------------------------------

def test_criterion_08_pinwheel_2d():
    t0 = time.monotonic()
    ds = es.toy2d("pinwheel", 20000, np.random.default_rng(3))
    basis = es.trig_basis_nd(2, -125.0)
    table = es.product_table(basis)
    mom = es.modulation_shrink(es.sample_moments(basis, ds.points))
    sched = es.Schedule.ve(0.01, 50.0)
    model = es.presolve_grid(basis, table, mom, sched, n_times=1000,
                             domain_map=ds.domain_map)
    samples = es.sample_pf_ode(model, 2000, IntegratorConfig(rtol=1e-4, atol=1e-6),
                               rng=np.random.default_rng(10))
    held = ds.domain_map.forward(_TOYS["pinwheel"](2000, np.random.default_rng(99)))
    _, p_energy = energy_distance_pvalue(samples, held, np.random.default_rng(11))
    n = 256
    x = (np.arange(n) + 0.5) / n * 2 * math.pi - math.pi
    gx, gy = np.meshgrid(x, x, indexing="ij")
    nodes = np.stack([gx.ravel(), gy.ravel()], axis=1)
    cfg = IntegratorConfig(rtol=1e-3, atol=1e-5)
    ld = np.concatenate([es.log_density(model, nodes[i:i + 8192], cfg)
                         for i in range(0, len(nodes), 8192)])
    integral = float(np.exp(ld).sum() * (2 * math.pi / n) ** 2)
    elapsed = time.monotonic() - t0
    ok = abs(integral - 1.0) <= 0.05 and p_energy >= 0.01 and elapsed < 600
    _report(8, ok, f"256^2 density integral {integral:.4f} (1 +- 0.05); "
                   f"energy-distance p={p_energy:.3f} >= 0.01 vs held-out; "
                   f"{elapsed:.1f}s < 600s")


# ---------------------------------------------------------------------------
# 9. Transport consistency
# ---------------------------------------------------------------------------

def test_criterion_09_transport_consistency():
    gm = es.bart_simpson()
    basis = es.trig_basis_1d(25)
    table = es.product_table(basis)
    mom = es.analytic_moments(gm, basis)
    sched = es.Schedule.ve(0.01, 50.0)
    model = es.presolve_grid(basis, table, mom, sched, n_times=1000)
    # forward transport of 1e5 data points onto the uniform prior
    rng = np.random.default_rng(7)
    x0 = es.wrap_torus(es.sample_gaussian_mixture(gm, 100_000, rng))
    x1 = es.integrate_batch(lambda tau, Y: es.flow_rate(model, tau, Y)[0],
                            x0, 0.0, 1.0, IntegratorConfig(rtol=1e-6, atol=1e-8))
    x1 = es.wrap_torus(x1)
    ks = kstest(x1[:, 0], "uniform", args=(-math.pi, 2 * math.pi))
    # reverse-SDE vs probability-flow samples from the same model
    a = es.sample_pf_ode(model, 2000, IntegratorConfig(rtol=1e-5, atol=1e-7),
                         rng=np.random.default_rng(8))
    b = es.sample_reverse_sde(model, 2000, 1000, rng=np.random.default_rng(9))
    _, p_energy = energy_distance_pvalue(a, b, np.random.default_rng(12))
    ok = ks.pvalue > 0.005 and p_energy >= 0.01
    _report(9, ok, f"forward transport KS p={ks.pvalue:.3f} > 0.005 (1e5 points); "
                   f"reverse-SDE vs pf-ode energy p={p_energy:.3f} >= 0.01")


# ---------------------------------------------------------------------------
# 10. Determinism of the CLI outputs
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    def bytes_of(path):
        with open(path, "rb") as fh:
            return fh.read()

    pairs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        data, model = str(d / "data.csv"), str(d / "model.json")
        samp, dens, study = str(d / "s.csv"), str(d / "d.csv"), str(d / "st.csv")
        assert cli_main(["gen-data", "--target", "bart-simpson", "--n", "300",
                         "--seed", "7", "--out", data]) == 0
        assert cli_main(["fit", "--data", data, "--out", model, "--max-freq", "8",
                         "--grid-size", "60", "--seed", "7"]) == 0
        assert cli_main(["sample", "--model", model, "--n", "150", "--seed", "11",
                         "--out", samp]) == 0
        assert cli_main(["density", "--model", model, "--grid-n", "101",
                         "--out", dens]) == 0
        assert cli_main(["loss-study", "--reps", "3", "--n", "200",
                         "--basis-sizes", "4,6", "--n-quad", "512",
                         "--seed", "2", "--workers", "2", "--out", study]) == 0
        pairs.append([bytes_of(p) for p in (data, samp, dens, study)])
    ok = all(x == y for x, y in zip(*pairs))
    _report(10, ok, "gen-data/sample/density/loss-study CSVs byte-identical "
                    "across two runs at fixed seed and worker count")
