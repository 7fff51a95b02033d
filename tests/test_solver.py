"""Quadratic system assembly, preconditioned solves, and the presolved model."""

import json
import math

import numpy as np
import pytest

import eigenscore as es
from eigenscore.process import tau_at
from eigenscore.solver import (
    QuadratureSpec,
    dataset_hash,
    loss_grid,
    score_error,
    solve_node,
    trapezoid_grid,
)
from conftest import dense_system, fit_gaussian_ou, uniform_moments


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def test_invariant_measure_gives_diagonal_system():
    """With data distributed as the invariant measure, A_t = Lambda, b_t = 0."""
    basis = es.trig_basis_1d(3)
    table = es.product_table(basis)
    m = uniform_moments(basis)
    assembler = es.SystemAssembler(basis, table, m)
    for t in (0.0, 0.3, 2.0):
        system = assembler.system(t)
        np.testing.assert_allclose(system.A, np.diag(-basis.eigenvalues[1:]), atol=1e-14)
        np.testing.assert_allclose(system.b, 0.0, atol=1e-14)


def test_system_assembler_matches_direct_assembly():
    basis = es.trig_basis_1d(5)
    table = es.product_table(basis)
    rng = np.random.default_rng(12)
    data = es.wrap_torus(0.5 + 0.4 * rng.standard_normal((300, 1)))
    m = es.modulation_shrink(es.sample_moments(basis, data))
    assembler = es.SystemAssembler(basis, table, m)
    for t in (0.0, 0.05, 0.7, 3.0):
        sys_t = assembler.system(t)
        A, b = dense_system(basis, table, m, t)
        np.testing.assert_allclose(sys_t.A, A, atol=1e-12)
        np.testing.assert_allclose(sys_t.b, b, atol=1e-12)
        np.testing.assert_allclose(sys_t.A, sys_t.A.T, atol=1e-14)


def test_hermite_assembler_matches_direct_assembly():
    basis = es.hermite_univariate_basis(2, 3)
    table = es.product_table(basis)
    gm = es.GaussianMixture(weights=np.array([1.0]),
                            means=np.array([[0.2, -0.4]]),
                            variances=np.array([[0.5, 0.8]]))
    m = es.analytic_moments(gm, basis)
    assembler = es.SystemAssembler(basis, table, m)
    for t in (0.0, 0.4, 2.0):
        sys_t = assembler.system(t)
        A, b = dense_system(basis, table, m, t)
        np.testing.assert_allclose(sys_t.A, A, atol=1e-12)
        np.testing.assert_allclose(sys_t.b, b, atol=1e-12)


def test_large_time_limit_recovers_preconditioner():
    basis = es.trig_basis_1d(4)
    table = es.product_table(basis)
    rng = np.random.default_rng(13)
    data = es.wrap_torus(rng.standard_normal((200, 1)))
    m = es.sample_moments(basis, data)
    A = es.SystemAssembler(basis, table, m).system(50.0).A
    np.testing.assert_allclose(A, np.diag(-basis.eigenvalues[1:]), atol=1e-10)


def test_assembler_rejects_moments_of_a_smaller_basis():
    basis = es.trig_basis_1d(5)
    data = es.wrap_torus(np.random.default_rng(14).standard_normal((50, 1)))
    m = es.sample_moments(es.trig_basis_1d(3), data)
    with pytest.raises(es.CapacityError, match="moments cover 13 functions, "
                                               "extended basis has 21"):
        es.SystemAssembler(basis, es.product_table(basis), m)


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------

def test_solve_matches_numpy_solve_for_exact_moments():
    basis = es.trig_basis_1d(4)
    table = es.product_table(basis)
    gm = es.GaussianMixture(weights=np.array([1.0]), means=np.array([[0.3]]),
                            variances=np.array([[0.25]]))
    m = es.analytic_moments(gm, basis)
    system = es.SystemAssembler(basis, table, m).system(0.1)
    assert system.noise_scale == 0.0
    node = solve_node(system)
    oracle = np.linalg.solve(system.A, -system.b)
    np.testing.assert_allclose(node.alpha, oracle, rtol=1e-9, atol=1e-12)
    assert node.condition >= 1.0
    assert np.max(np.abs((system.A @ node.alpha + system.b) / (-system.lambdas))) < 1e-10


def test_noise_floor_inactive_when_spectrum_is_healthy():
    # large t: the preconditioned matrix approaches the identity, all
    # eigenvalues sit far above the noise floor, so the floored solve
    # coincides with the exact one
    basis = es.trig_basis_1d(4)
    table = es.product_table(basis)
    rng = np.random.default_rng(14)
    data = es.wrap_torus(0.3 + 0.5 * rng.standard_normal((500, 1)))
    m = es.modulation_shrink(es.sample_moments(basis, data))
    system = es.SystemAssembler(basis, table, m).system(1.5)
    assert system.noise_scale > 0.0
    node = solve_node(system)
    assert not node.regularized
    oracle = np.linalg.solve(system.A, -system.b)
    np.testing.assert_allclose(node.alpha, oracle, rtol=1e-8, atol=1e-12)
    assert np.max(np.abs((system.A @ node.alpha + system.b) / (-system.lambdas))) < 1e-10


def test_noise_floor_damps_unresolved_directions():
    # an estimated system whose preconditioned matrix has eigenvalues inside
    # the noise band: the floored solve is flagged and strictly tamer than
    # dividing by the raw near-zero eigenvalues
    basis = es.trig_basis_1d(8)
    table = es.product_table(basis)
    gm = es.bart_simpson()
    rng = np.random.default_rng(21)
    data = es.wrap_torus(es.sample_gaussian_mixture(gm, 400, rng))
    m = es.modulation_shrink(es.sample_moments(basis, data))
    system = es.SystemAssembler(basis, table, m).system(5e-5)
    node = solve_node(system)
    assert node.regularized
    exact = np.linalg.solve(system.A, -system.b)
    assert np.linalg.norm(node.alpha) < np.linalg.norm(exact)


def _spectral_oracle(system, delta):
    """Floored spectral solve: eigenvalues of Lambda^{-1/2} A Lambda^{-1/2}
    below delta are raised to delta, negative ones reflected first."""
    scale = np.sqrt(-system.lambdas)
    P = system.A / np.outer(scale, scale)
    P = (P + P.T) / 2.0
    w, V = np.linalg.eigh(P)
    w_eff = np.maximum(np.abs(w), delta)
    return (V @ ((V.T @ (-system.b / scale)) / w_eff)) / scale


def _sampled_system(max_freq, data, t):
    basis = es.trig_basis_1d(max_freq)
    m = es.modulation_shrink(es.sample_moments(basis, es.wrap_torus(data)))
    return es.SystemAssembler(basis, es.product_table(basis), m).system(t)


def _system_with_spectrum(w, noise_scale):
    """System whose preconditioned matrix has eigenvalues w."""
    rng = np.random.default_rng(22)
    Q, _ = np.linalg.qr(rng.standard_normal((len(w), len(w))))
    lambdas = -np.arange(1.0, len(w) + 1.0)
    scale = np.sqrt(-lambdas)
    A = (Q * w) @ Q.T * np.outer(scale, scale)
    return es.QuadraticSystem(A=(A + A.T) / 2.0, b=rng.standard_normal(len(w)),
                              lambdas=lambdas, t=0.0, noise_scale=noise_scale)


@pytest.mark.parametrize("make_system, regularized", [
    pytest.param(lambda: _sampled_system(
        4, 0.3 + 0.5 * np.random.default_rng(14).standard_normal((500, 1)), 1.5),
        False, id="healthy-estimated"),
    pytest.param(lambda: _sampled_system(8, es.sample_gaussian_mixture(
        es.bart_simpson(), 400, np.random.default_rng(21)), 5e-5),
        True, id="inside-noise-band"),
    pytest.param(lambda: _system_with_spectrum([-0.5, 0.2, 1.0, 2.0, 3.0], 0.01), True,
                 id="negative-eigenvalue"),
    pytest.param(lambda: _system_with_spectrum([1e-13, 0.5, 1.0, 2.0, 4.0], 0.0), True,
                 id="exact-condition-above-limit"),
])
def test_solve_node_matches_floored_spectral_solve(make_system, regularized):
    system = make_system()
    scale = np.sqrt(-system.lambdas)
    w = np.linalg.eigvalsh(system.A / np.outer(scale, scale))
    if system.noise_scale == 0.0:
        # positive definite, yet too ill-conditioned for the exact solve
        assert w.min() > 0.0 and w.max() / w.min() > es.solver.CONDITION_LIMIT
    delta = max(es.solver.SPECTRAL_FLOOR * system.noise_scale, es.solver.TIKHONOV_EPS)
    node = solve_node(system)
    assert node.regularized is regularized
    assert node.clamped == (np.count_nonzero(np.abs(w) < delta) if regularized else 0)
    oracle = _spectral_oracle(system, delta)
    assert np.linalg.norm(node.alpha - oracle) <= 1e-9 * np.linalg.norm(oracle)


def test_solve_rejects_asymmetric_matrix():
    system = es.QuadraticSystem(A=np.array([[1.0, 2.0], [0.0, 1.0]]),
                                b=np.zeros(2), lambdas=-np.ones(2), t=0.0)
    with pytest.raises(es.InvalidInputError):
        solve_node(system)


def test_singular_system_raises_ill_conditioned():
    # so badly scaled that the spectrum stays ill-conditioned once floored
    system = es.QuadraticSystem(A=np.diag([1e20, 0.0]), b=np.ones(2),
                                lambdas=-np.ones(2), t=0.0)
    with pytest.raises(es.IllConditionedError):
        solve_node(system)


@pytest.mark.parametrize("noise_scale", [0.0, 0.01])
def test_non_finite_linear_term_raises(noise_scale):
    system = es.QuadraticSystem(A=np.eye(2), b=np.array([np.nan, 1.0]),
                                lambdas=-np.ones(2), t=0.0, noise_scale=noise_scale)
    with pytest.raises(es.IllConditionedError):
        solve_node(system)


def test_zero_matrix_recovered_by_tikhonov():
    system = es.QuadraticSystem(A=np.zeros((2, 2)), b=np.ones(2),
                                lambdas=-np.ones(2), t=0.0)
    node = solve_node(system)
    assert node.regularized and np.all(np.isfinite(node.alpha))


def test_tikhonov_fallback_flags_regularization():
    # rank-1 matrix: singular, but solvable once eps*Lambda is added
    A = np.outer(np.ones(2), np.ones(2))
    system = es.QuadraticSystem(A=A, b=np.array([1.0, 1.0]),
                                lambdas=-np.ones(2), t=0.0)
    node = solve_node(system)
    assert node.regularized
    assert np.all(np.isfinite(node.alpha))


# ---------------------------------------------------------------------------
# Gaussian closed form (OU, Hermite order 2)
# ---------------------------------------------------------------------------

def test_gaussian_closed_form_coefficients():
    mean, var = 0.7, 0.36
    model, _, schedule = fit_gaussian_ou(mean, var, n_tau=41)
    for tau in np.linspace(0, 1, 41):
        t = es.internal_time(schedule, tau)
        m_t = math.exp(-t) * mean
        v_t = math.exp(-2 * t) * var + (1 - math.exp(-2 * t))
        alpha = es.alpha_at(model, tau)
        assert abs(alpha[0] - m_t / v_t) < 1e-10
        assert abs(alpha[1] - (v_t - 1) / (math.sqrt(2) * v_t)) < 1e-10


def test_gaussian_relative_score_pointwise():
    mean, var = -0.4, 2.25
    model, gm, schedule = fit_gaussian_ou(mean, var, n_tau=11)
    tau = 0.3
    t = es.internal_time(schedule, tau)
    m_t = math.exp(-t) * mean
    v_t = math.exp(-2 * t) * var + (1 - math.exp(-2 * t))
    x = np.linspace(-3, 3, 13)[:, None]
    score = es.model_eval_batch(model, x, tau)[1][:, 0]
    truth = -(x[:, 0] - m_t) / v_t + x[:, 0]  # grad log(rho_t/pi)
    np.testing.assert_allclose(score, truth, atol=1e-9)


# ---------------------------------------------------------------------------
# Presolved model, interpolation, serialization
# ---------------------------------------------------------------------------

def _small_torus_model(n_times=50):
    basis = es.trig_basis_1d(5)
    table = es.product_table(basis)
    rng = np.random.default_rng(15)
    data = es.wrap_torus(0.6 * rng.standard_normal((400, 1)))
    m = es.modulation_shrink(es.sample_moments(basis, data))
    sched = es.Schedule.ve(0.01, 50.0)
    return es.presolve_grid(basis, table, m, sched, n_times=n_times)


def test_presolve_grid_diagnostics():
    model = _small_torus_model()
    assert model.grid[0] == 0.0 and model.grid[-1] == 1.0
    assert model.alphas.shape == (50, model.basis.n_active)
    assert np.all(model.diagnostics["condition"] >= 1.0)
    # the noise floor may engage at small tau where the system is stiff, but
    # never once the forward process has smoothed the marginal
    regs = model.diagnostics["regularized"]
    assert regs.dtype == bool
    assert not np.any(regs[3 * len(regs) // 4:])
    # the floor raises eigenvalues only on regularized nodes
    clamped = model.diagnostics["clamped"]
    assert clamped.shape == regs.shape and clamped.dtype.kind == "i"
    assert np.all(clamped[~regs] == 0) and np.all(clamped >= 0)


def test_alpha_at_interpolates_linearly():
    model = _small_torus_model()
    g = model.grid
    mid = 0.5 * (g[3] + g[4])
    np.testing.assert_allclose(es.alpha_at(model, mid),
                               0.5 * (model.alphas[3] + model.alphas[4]), atol=1e-12)
    np.testing.assert_allclose(es.alpha_at(model, g[7]), model.alphas[7], atol=1e-12)
    np.testing.assert_allclose(es.alpha_at(model, 1.0), model.alphas[-1], atol=1e-12)
    # no tau outside [0, 1] is clamped onto the grid, NaN included
    for tau in (math.nan, math.inf, -math.inf, -0.1, 1.5):
        with pytest.raises(es.InvalidInputError, match="outside"):
            es.alpha_at(model, tau)
        with pytest.raises(es.InvalidInputError, match="outside"):
            es.model_eval_batch(model, np.zeros((3, 1)), tau)


def test_presolve_requires_two_nodes():
    basis = es.trig_basis_1d(2)
    table = es.product_table(basis)
    m = uniform_moments(basis)
    with pytest.raises(es.InvalidInputError):
        es.presolve_grid(basis, table, m, es.Schedule.ve(0.01, 50.0), n_times=1)


def test_model_eval_domain_check():
    model = _small_torus_model()
    with pytest.raises(es.DomainError):
        es.model_eval_batch(model, np.array([[4.0]]), 0.0)


def test_model_serialization_roundtrip(tmp_path):
    model = _small_torus_model()
    path = tmp_path / "model.json"
    es.save_model(model, path)
    again = es.load_model(path)
    np.testing.assert_allclose(again.alphas, model.alphas, atol=1e-15)
    np.testing.assert_allclose(again.grid, model.grid, atol=1e-15)
    assert again.basis.functions == model.basis.functions
    assert again.schedule == model.schedule
    np.testing.assert_allclose(again.diagnostics["condition"],
                               model.diagnostics["condition"])
    np.testing.assert_array_equal(again.diagnostics["clamped"], model.diagnostics["clamped"])
    assert again.diagnostics["clamped"].dtype.kind == "i"
    # older files carry a per-node "residual" diagnostic and no "clamped" count
    d = es.model_to_dict(model)
    d["diagnostics"]["residual"] = [0.0] * len(model.grid)
    del d["diagnostics"]["clamped"]
    old = es.model_from_dict(d)
    assert set(old.diagnostics) == {"condition", "regularized"}
    assert "clamped" not in es.model_to_dict(old)["diagnostics"]


@pytest.mark.parametrize("corrupt", [
    pytest.param(None, id="not-json"),
    pytest.param(lambda d: d.pop("basis"), id="missing-basis"),
    pytest.param(lambda d: d["diagnostics"].pop("condition"), id="missing-diagnostic"),
    pytest.param(lambda d: d.update(alphas=[a[:-1] for a in d["alphas"]]), id="alphas-width"),
    pytest.param(lambda d: d.update(grid=d["grid"][::-1]), id="grid-reversed"),
    pytest.param(lambda d: d.update(grid=[0.5 * g for g in d["grid"]]), id="grid-short-of-1"),
    pytest.param(lambda d: d["alphas"][3].__setitem__(0, float("nan")), id="alphas-nan"),
    pytest.param(lambda d: d["diagnostics"].update(
        regularized=d["diagnostics"]["regularized"][1:]), id="diagnostic-length"),
])
def test_malformed_model_file_rejected(tmp_path, corrupt):
    path = tmp_path / "model.json"
    if corrupt is None:
        path.write_text("not a model {")
    else:
        d = es.model_to_dict(_small_torus_model(n_times=5))
        corrupt(d)
        path.write_text(json.dumps(d))
    with pytest.raises(es.InvalidInputError):
        es.load_model(path)


def test_model_version_check(tmp_path):
    model = _small_torus_model()
    d = es.model_to_dict(model)
    d["version"] = 999
    with pytest.raises(es.InvalidInputError):
        es.model_from_dict(d)


# ---------------------------------------------------------------------------
# Quadrature and loss
# ---------------------------------------------------------------------------

def test_trapezoid_grid_integrates_polynomial():
    spec = QuadratureSpec(n_nodes=2001, lower=0.0, upper=1.0)
    nodes, w = trapezoid_grid(spec, 1)
    assert w @ nodes[:, 0] ** 2 == pytest.approx(1 / 3, abs=1e-6)
    nodes2, w2 = trapezoid_grid(QuadratureSpec(n_nodes=101, lower=0.0, upper=1.0), 2)
    f = nodes2[:, 0] * nodes2[:, 1]
    assert w2 @ f == pytest.approx(1 / 4, abs=1e-4)
    assert w2.sum() == pytest.approx(1.0, abs=1e-12)


def test_sm_loss_gaussian_is_tiny():
    model, gm, schedule = fit_gaussian_ou(0.5, 0.25, n_tau=21)
    ref = es.AnalyticReference(gm, schedule, es.OU)
    spec = QuadratureSpec(n_nodes=2001, lower=-8.0, upper=8.0)
    for tau in (0.0, 0.5, 1.0):
        assert es.sm_loss(model, tau, ref, spec) < 1e-12


@pytest.mark.parametrize("schedule", [es.Schedule.ve(0.01, 50.0), es.Schedule.vp(0.1, 20.0)],
                         ids=["VE", "VP"])
def test_torus_reference_follows_the_clock(schedule):
    # exact moments fit the wrapped Bart-Simpson marginal at t = 0.05 to within
    # the basis truncation, whichever clock maps tau to that t
    gm, basis = es.bart_simpson(), es.trig_basis_1d(25)
    assembler = es.SystemAssembler(basis, es.product_table(basis), es.analytic_moments(gm, basis))
    alpha = solve_node(assembler.system(0.05)).alpha
    reference = es.AnalyticReference(gm, schedule, es.TRUNCATED_BM)
    grid = loss_grid(reference, tau_at(schedule, 0.05), QuadratureSpec(), 1)
    assert score_error(basis, alpha, grid) < 1e-10


def test_sm_loss_monte_carlo_close_to_quadrature():
    basis = es.trig_basis_1d(8)
    table = es.product_table(basis)
    gm = es.GaussianMixture(weights=np.array([1.0]),
                            means=np.array([[0.4]]),
                            variances=np.array([[0.2]]))
    m = es.analytic_moments(gm, basis)
    sched = es.Schedule.ve(0.1, 5.0)
    model = es.presolve_grid(basis, table, m, sched, n_times=100)
    ref = es.AnalyticReference(gm, sched, es.TRUNCATED_BM)
    lq = es.sm_loss(model, 0.5, ref, QuadratureSpec(n_nodes=4096))
    # oracle: the same weighted error as a Monte-Carlo mean over draws from rho_tau
    X = es.wrap_torus(es.sample_gaussian_mixture(ref.marginal(0.5), 400_000,
                                                 np.random.default_rng(3)))
    diff = es.model_eval_batch(model, X, 0.5)[1] - ref.relative_score(X, 0.5)
    lmc = float(np.mean((diff * diff).sum(axis=1)))
    assert lmc == pytest.approx(lq, rel=0.1, abs=1e-4)


def test_sm_loss_requires_reference():
    model = _small_torus_model()
    with pytest.raises(es.UnsupportedTargetError):
        es.sm_loss(model, 0.0, None)


def test_dataset_hash_deterministic():
    x = np.random.default_rng(0).normal(size=(10, 2))
    assert dataset_hash(x) == dataset_hash(x.copy())
    assert dataset_hash(x) != dataset_hash(x + 1e-9)
