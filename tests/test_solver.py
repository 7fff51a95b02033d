"""Quadratic system assembly, preconditioned solves, and the presolved model."""

import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

import eigenscore as es
from eigenscore.process import tau_at
from eigenscore.solver import (
    QuadratureSpec,
    dataset_hash,
    reference_loss,
    shrinkage_losses,
    solve_node,
    spline_slopes,
    trapezoid_grid,
)
from conftest import (
    dense_system,
    fit_gaussian_ou,
    model_eval_batch,
    score_error,
    uniform_moments,
)


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


@pytest.mark.parametrize("n", [39, 45, 50])
def test_hermite_invariant_measure_gives_diagonal_system(n):
    """The same for high Hermite orders: A_t = diag(1..n) needs the constant
    term beta_0 = 1 of every phi_k^2 and no spurious term."""
    basis = es.hermite_univariate_basis(1, n)
    assembler = es.SystemAssembler(basis, es.product_table(basis), uniform_moments(basis))
    for t in (0.0, 0.3, 2.0):
        system = assembler.system(t)
        np.testing.assert_allclose(system.A, np.diag(np.arange(1.0, n + 1)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(system.b, 0.0, rtol=0, atol=1e-12)


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


def _small_pinwheel_assembler():
    ds = es.toy2d("pinwheel", 2000, np.random.default_rng(3))
    basis = es.trig_basis_nd(2, -20.0)
    m = es.modulation_shrink(es.sample_moments(basis, ds.points))
    return es.SystemAssembler(basis, es.product_table(basis), m)


def test_assembled_systems_are_exactly_symmetric():
    # solve_node accepts only an exactly symmetric A; the assembler's
    # mirrored rows (k, l) and (l, k) of S hold the same terms in the same
    # order, so their sums agree bit for bit
    gm = es.GaussianMixture(weights=np.array([1.0]), means=np.array([[0.2, -0.4]]),
                            variances=np.array([[0.5, 0.8]]))
    hermite = es.hermite_univariate_basis(2, 3)
    for assembler in (_small_pinwheel_assembler(), es.SystemAssembler(
            hermite, es.product_table(hermite), es.analytic_moments(gm, hermite))):
        for t in (0.0, 0.05, 0.4, 2.0):
            A = assembler.system(t).A
            assert np.array_equal(A, A.T)


def test_linear_term_reads_the_basis_entries_of_the_growth_factors():
    # b_t reuses e^{lam_h t} of the extended family, whose first entries are
    # the basis: bit for bit the b_t of the basis's own exponentials
    gm = es.GaussianMixture(weights=np.array([1.0]), means=np.array([[0.2, -0.4]]),
                            variances=np.array([[0.5, 0.8]]))
    hermite = es.hermite_univariate_basis(2, 3)
    for assembler in (_small_pinwheel_assembler(), es.SystemAssembler(
            hermite, es.product_table(hermite), es.analytic_moments(gm, hermite))):
        lam = assembler.lam_active
        for t in (0.0, 0.05, 0.4, 2.0):
            b = lam * np.exp(lam * t) * assembler.theta_active
            assert assembler.system(t).b.tobytes() == b.tobytes()


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
    # large t: P is near the identity and all eigenvalues sit far above the
    # noise floor, so the floor barely acts: the filter
    # g(w) = (1/w)(1 - 2 delta^2 / ((w + delta)^2 + delta^2)) moves
    # u = g(P) y from P^{-1} y by at most that factor at w_min
    basis = es.trig_basis_1d(4)
    table = es.product_table(basis)
    rng = np.random.default_rng(14)
    data = es.wrap_torus(0.3 + 0.5 * rng.standard_normal((500, 1)))
    m = es.modulation_shrink(es.sample_moments(basis, data))
    system = es.SystemAssembler(basis, table, m).system(1.5)
    assert system.noise_scale > 0.0
    node = solve_node(system)
    assert node.regularized
    scale = np.sqrt(-system.lambdas)
    delta = es.solver.SPECTRAL_FLOOR * system.noise_scale
    w_min = np.linalg.eigvalsh(_preconditioned(system)).min()
    assert w_min > 5.0 * delta
    exact = np.linalg.solve(system.A, -system.b) * scale
    factor = 2.0 * delta**2 / ((w_min + delta) ** 2 + delta**2)
    bound = (1.0 + 1e-9) * factor * np.linalg.norm(exact)
    assert np.linalg.norm(node.alpha * scale - exact) <= bound


def test_noise_floor_damps_unresolved_directions():
    # an estimated system whose preconditioned matrix has eigenvalues inside
    # the noise band: the filtered solve is flagged and strictly tamer than
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


def _filter(w, delta):
    """The one-pole filter g(w) = (w + 2 delta) / ((w + delta)^2 + delta^2)."""
    return (w + 2.0 * delta) / ((w + delta) ** 2 + delta**2)


def _delta(noise_scale):
    """solve_node's floor: the noise floor of sampled moments, TIKHONOV_EPS for exact ones."""
    if noise_scale > 0.0:
        return es.solver.SPECTRAL_FLOOR * noise_scale
    return es.solver.TIKHONOV_EPS


def _preconditioned(system):
    scale = np.sqrt(-system.lambdas)
    return system.A / np.outer(scale, scale)


def _filter_oracle(system, delta):
    """Filtered spectral solve g(P) y from a full eigendecomposition of
    P = Lambda^{-1/2} A Lambda^{-1/2}, without the off-diagonal cut-off."""
    scale = np.sqrt(-system.lambdas)
    P = _preconditioned(system)
    w, V = np.linalg.eigh((P + P.T) / 2.0)
    return (V @ (_filter(w, delta) * (V.T @ (-system.b / scale)))) / scale


def _filter_bound(system, delta):
    """(||P||_1 + sqrt(2) delta) / delta, the filtered path's condition bound."""
    return (np.abs(_preconditioned(system)).sum(axis=0).max() + math.sqrt(2.0) * delta) / delta


def _oracle_tolerance(node, bound):
    """A relative bound of the solve against the oracle: ``bound``, or a few
    rounding errors amplified by the condition where that is larger (the
    filter has slope -1/(2 delta^2) at 0, so an eigenvalue within rounding
    of 0 moves g by eps ||P|| / (2 delta) relative, with delta = 1e-8 for
    exact moments)."""
    return max(bound, 10.0 * len(node.alpha) * np.finfo(float).eps * node.condition)


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
                              lambdas=lambdas, noise_scale=noise_scale)


FILTERED_SYSTEMS = [
    pytest.param(lambda: _sampled_system(
        4, 0.3 + 0.5 * np.random.default_rng(14).standard_normal((500, 1)), 1.5),
        id="healthy-estimated"),
    pytest.param(lambda: _sampled_system(8, es.sample_gaussian_mixture(
        es.bart_simpson(), 400, np.random.default_rng(21)), 5e-5), id="inside-noise-band"),
    pytest.param(lambda: _system_with_spectrum([-0.5, 0.2, 1.0, 2.0, 3.0], 0.01),
                 id="negative-eigenvalue"),
    pytest.param(lambda: _system_with_spectrum([1e-13, 0.5, 1.0, 2.0, 4.0], 0.0),
                 id="exact-condition-above-limit"),
    # exact moments are filtered at TIKHONOV_EPS whatever P's condition
    pytest.param(lambda: _system_with_spectrum([1e-10, 0.5, 1.0, 2.0, 4.0], 0.0),
                 id="exact-condition-below-limit"),
]


@pytest.mark.parametrize("make_system", FILTERED_SYSTEMS)
def test_solve_node_matches_floored_spectral_solve(make_system):
    system = make_system()
    if system.noise_scale == 0.0:
        # positive definite: exact moments take the filter all the same
        assert np.linalg.eigvalsh(_preconditioned(system)).min() > 0.0
    delta = _delta(system.noise_scale)
    node = solve_node(system)
    assert node.regularized is (system.noise_scale > 0.0)
    oracle = _filter_oracle(system, delta)
    bound = _oracle_tolerance(node, 1e-9) * np.linalg.norm(oracle)
    assert np.linalg.norm(node.alpha - oracle) <= bound


@pytest.mark.parametrize("make_system", FILTERED_SYSTEMS)
def test_filtered_condition_bounds_the_condition_of_the_shifted_matrix(make_system):
    # every eigenvalue of P - zI, z = delta (-1 + i), has modulus >= delta,
    # and its largest is at most ||P||_1 + sqrt(2) delta
    system = make_system()
    delta = _delta(system.noise_scale)
    node = solve_node(system)
    P = _preconditioned(system)
    shifted = P - delta * complex(-1.0, 1.0) * np.eye(len(P))
    assert node.condition == pytest.approx(_filter_bound(system, delta), rel=1e-12)
    assert np.linalg.cond(shifted) <= node.condition


@pytest.mark.parametrize("tau", [0.05, 0.3, 0.5])
def test_floored_pinwheel_nodes_match_the_spectral_solve(tau):
    # the complex LDL' path against a full eigendecomposition of P, at nodes
    # where the spectrum reaches below the noise floor
    system = _small_pinwheel_assembler().system(
        es.internal_time(es.Schedule.ve(0.01, 50.0), tau))
    delta = es.solver.SPECTRAL_FLOOR * system.noise_scale
    assert np.linalg.eigvalsh(_preconditioned(system)).min() < delta
    node, calls = _solve_counting_paths(system)
    assert node.regularized and calls == 1
    oracle = _filter_oracle(system, delta)
    assert np.abs(node.alpha - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("spectrum, noise_scale", [
    pytest.param([0.01, 1.0, 2.0], 0.01, id="below-the-floor"),
    pytest.param([-0.5, 1.0, 2.0], 0.01, id="negative-eigenvalue"),
    pytest.param([0.0, 1.0, 2.0], 0.0, id="tikhonov-floor"),
])
def test_small_floored_systems(n, spectrum, noise_scale):
    # n = 1 is diagonal and filtered entrywise; n = 2 and 3 are rotated and
    # take the complex LDL' path
    w = np.array(spectrum[:n])
    system = _system_with_spectrum(w, noise_scale)
    node, calls = _solve_counting_paths(system)
    assert node.regularized is (noise_scale > 0.0) and calls == (n > 1)
    delta = _delta(noise_scale)
    assert node.condition == pytest.approx(_filter_bound(system, delta), rel=1e-12)
    oracle = _filter_oracle(system, delta)
    bound = _oracle_tolerance(node, 1e-12) * np.abs(oracle).max()
    assert np.abs(node.alpha - oracle).max() <= bound


def test_diagonal_filter_identities():
    # delta = SPECTRAL_FLOOR * 0.01 = 0.03: g(0) = 1/delta, g(-2 delta) = 0,
    # g(-3 delta) = -1/(5 delta) < 0 (negative eigenvalues keep their sign),
    # and g(1) = 1.06 / 1.0618; no factorization runs
    delta = es.solver.SPECTRAL_FLOOR * 0.01
    d = np.array([0.0, -2.0 * delta, -3.0 * delta, 1.0])
    b = np.array([1.0, 1.0, -1.0, 2.0])
    system = es.QuadraticSystem(A=np.diag(d), b=b, lambdas=-np.ones(4), noise_scale=0.01)
    node, calls = _solve_counting_paths(system)
    assert calls == 0
    assert node.regularized
    alpha = node.alpha
    assert alpha[0] == pytest.approx(-b[0] / delta, rel=1e-15)
    assert alpha[1] == 0.0
    assert alpha[2] == pytest.approx(b[2] / (5.0 * delta), rel=1e-15) and alpha[2] * -b[2] < 0
    assert alpha[3] == pytest.approx(-b[3] * (1.0 + 2.0 * delta) / ((1.0 + delta) ** 2 + delta**2),
                                     rel=1e-15)
    assert node.condition == pytest.approx((1.0 + math.sqrt(2.0) * delta) / delta, rel=1e-15)


def _failing(name, info=2):
    """LAPACK's ``name``, reporting ``info`` (a zero pivot) whatever it found."""
    routine = getattr(scipy.linalg.lapack, name)

    def failing(*args, **kwargs):
        ldl, ipiv, _ = routine(*args, **kwargs)
        return ldl, ipiv, info

    return mock.patch.object(scipy.linalg.lapack, name, failing)


def test_failed_complex_factorization_raises_ill_conditioned():
    system = _system_with_spectrum([-0.5, 0.2, 1.0], 0.01)
    with _failing("zsytrf"), pytest.raises(es.IllConditionedError, match="zsytrf"):
        solve_node(system)


def test_solve_rejects_asymmetric_matrix():
    # symmetry is exact: asymmetric by 1e-12, or by a NaN, is asymmetric
    for A in (np.array([[1.0, 2.0], [0.0, 1.0]]),
              np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]]),
              np.array([[2.0, math.nan], [math.nan, 2.0]])):
        system = es.QuadraticSystem(A=A, b=np.zeros(2), lambdas=-np.ones(2))
        with pytest.raises(es.InvalidInputError):
            solve_node(system)


def _solve_counting_routines(system):
    """solve_node's result and its calls of each LAPACK routine of the LDL'
    paths: the factorizations zsytrf (double) and csytrf (single) and the
    single solves csytrs."""
    lapack = scipy.linalg.lapack
    names = ("zsytrf", "csytrf", "csytrs")
    with contextlib.ExitStack() as stack:
        mocks = {name: stack.enter_context(mock.patch.object(
            lapack, name, wraps=getattr(lapack, name))) for name in names}
        node = solve_node(system)
    return node, {name: m.call_count for name, m in mocks.items()}


def _solve_counting_paths(system):
    """solve_node's result and the number of its calls of a complex LDL'
    factorization, zsytrf or csytrf: one for a non-diagonal P (two where the
    single one falls back), none for a diagonal P, which is filtered
    entrywise."""
    node, calls = _solve_counting_routines(system)
    return node, calls["zsytrf"] + calls["csytrf"]


@pytest.mark.parametrize("noise_scale", [0.0, 0.01])
def test_exactly_diagonal_system_is_solved_by_division(noise_scale):
    # both divide by 1/g(diag(P)), exact moments at delta = TIKHONOV_EPS (the
    # alpha of which lies some 5e-14 from -b / d), estimated ones at the noise floor
    d = np.array([2.0, 3.0, 5.0, 0.5])
    lambdas = -np.array([1.0, 2.0, 4.0, 8.0])
    b = np.array([0.3, -1.2, 2.0, 0.7])
    system = es.QuadraticSystem(A=np.diag(d), b=b, lambdas=lambdas, noise_scale=noise_scale)
    node, calls = _solve_counting_paths(system)
    assert calls == 0
    scale = np.sqrt(-lambdas)
    p = d / (scale * scale)  # diag(P)
    delta = _delta(noise_scale)
    assert node.regularized is (noise_scale > 0.0)
    np.testing.assert_allclose(node.alpha, -b / scale * _filter(p, delta) / scale, rtol=1e-15)
    assert node.condition == pytest.approx((p.max() + math.sqrt(2.0) * delta) / delta, rel=1e-15)


@pytest.mark.parametrize("relative, path", [(1e-25, "diagonal"), (1e-15, "ldl")])
def test_off_diagonal_entries_below_the_cutoff_are_zeroed(relative, path):
    # es.solver.OFFDIAG_CUTOFF is 1e-20 of sqrt(A_kk A_ll) (invariant under
    # the preconditioning): 1e-25 is dropped, 1e-15 is kept
    d = np.array([2.0, 3.0, 5.0])
    lambdas = -np.array([1.0, 2.0, 4.0])
    A = np.diag(d)
    A[0, 2] = A[2, 0] = relative * math.sqrt(d[0] * d[2])
    A[1, 2] = A[2, 1] = -relative * math.sqrt(d[1] * d[2])
    b = np.array([1.0, -2.0, 3.0])
    system = es.QuadraticSystem(A=A, b=b, lambdas=lambdas)
    node, calls = _solve_counting_paths(system)
    assert calls == (path == "ldl") and not node.regularized
    np.testing.assert_allclose(node.alpha, np.linalg.solve(A, -b), rtol=1e-15)


@pytest.mark.parametrize("tau", [0.7, 0.75, 0.8])
def test_late_nodes_match_the_solve_without_the_cutoff(tau):
    # where the off-diagonal part of P decays past the cut-off, zeroing it
    # leaves alpha unchanged to rounding: the filtered solve of the cut P
    # against the eigendecomposition of the full one
    assembler = _small_pinwheel_assembler()
    system = assembler.system(es.internal_time(es.Schedule.ve(0.01, 50.0), tau))
    P = _preconditioned(system)
    root = np.sqrt(np.abs(np.diag(P)))
    assert np.any((P != 0) & (np.abs(P) < es.solver.OFFDIAG_CUTOFF * np.outer(root, root)))
    node = solve_node(system)
    assert node.regularized
    oracle = _filter_oracle(system, es.solver.SPECTRAL_FLOOR * system.noise_scale)
    assert np.abs(node.alpha - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("tau, cuts", [(0.3, False), (0.7, True)])
def test_cut_off_nodes_equal_the_explicit_cut_off(tau, cuts):
    # where every nonzero |P_kl| exceeds c max_k |P_kk|, which bounds every
    # threshold c sqrt|P_kk P_ll|, the solve skips the thresholds; elsewhere
    # it cuts: either way P ends as the explicit cut-off
    system = _small_pinwheel_assembler().preconditioned(
        es.internal_time(es.Schedule.ve(0.01, 50.0), tau))
    P = system.P.copy()
    root = np.sqrt(np.abs(np.diag(P)))
    nonzero = np.abs(P[P != 0])
    assert bool(nonzero.min() <= es.solver.OFFDIAG_CUTOFF * root.max() ** 2) == cuts
    # the skip's own test: every structural nonzero clears (c top) top
    top = root.max()
    clear = np.count_nonzero(np.abs(P) > es.solver.OFFDIAG_CUTOFF * top * top)
    assert (clear == system.kernel.structural) != cuts
    kept = np.abs(P) > es.solver.OFFDIAG_CUTOFF * np.outer(root, root)
    assert (np.count_nonzero(kept) < len(nonzero)) == cuts
    solve_node(system)
    assert np.array_equal(system.P, np.where(kept, P, 0.0))


def _forced_double(system):
    """solve_node's result on the double factorization, which SINGLE_BOUND = 0
    makes every LDL node take."""
    with mock.patch.object(es.solver, "SINGLE_BOUND", 0.0):
        return solve_node(system)


def _pinwheel_node(tau, min_size=0):
    """The small pinwheel assembler's node at tau, solved by a kernel whose
    single path takes systems from ``min_size`` functions (68 here)."""
    with mock.patch.object(es.solver, "SINGLE_MIN_SIZE", min_size):
        return _small_pinwheel_assembler().preconditioned(
            es.internal_time(es.Schedule.ve(0.01, 50.0), tau))


@pytest.mark.parametrize("tau", [0.05, 0.3, 0.5])
def test_single_precision_nodes_match_the_double_factorization(tau):
    # these nodes keep 92% of P's entries after the cut-off and read
    # condition bounds of 55-147: one csytrf, then refinement in double, lands
    # within 1e-12 of the zsytrf solve (on systems of any size)
    node, calls = _solve_counting_routines(_pinwheel_node(tau))
    assert calls["csytrf"] == 1 and calls["zsytrf"] == 0 and calls["csytrs"] >= 2
    double = _forced_double(_pinwheel_node(tau))
    assert node.condition == double.condition <= es.solver.SINGLE_BOUND
    assert np.abs(node.alpha - double.alpha).max() <= 1e-12 * np.abs(double.alpha).max()


def _exact_bart_node(tau):
    basis = es.trig_basis_1d(25)
    assembler = es.SystemAssembler(basis, es.product_table(basis),
                                   es.analytic_moments(es.bart_simpson(), basis))
    return assembler.preconditioned(es.internal_time(es.Schedule.ve(0.01, 50.0), tau))


def test_nodes_outside_the_single_precision_gate_take_the_double_factorization():
    # exact moments: the bound ||P||_1 / TIKHONOV_EPS is far above SINGLE_BOUND
    system = _exact_bart_node(0.5)
    node, calls = _solve_counting_routines(system)
    assert calls == {"zsytrf": 1, "csytrf": 0, "csytrs": 0}
    assert node.condition > es.solver.SINGLE_BOUND
    # a late pinwheel node within the bound, but with 43% of P left after the cut-off
    system = _pinwheel_node(0.7)
    node, calls = _solve_counting_routines(system)
    assert calls == {"zsytrf": 1, "csytrf": 0, "csytrs": 0}
    assert node.condition <= es.solver.SINGLE_BOUND
    assert np.count_nonzero(system.P) < es.solver.DENSE_FRACTION * system.P.size
    # a dense node within the bound, but of 68 < SINGLE_MIN_SIZE functions
    system = _pinwheel_node(0.3, es.solver.SINGLE_MIN_SIZE)
    node, calls = _solve_counting_routines(system)
    assert calls == {"zsytrf": 1, "csytrf": 0, "csytrs": 0}
    assert node.condition <= es.solver.SINGLE_BOUND and len(system.P) < es.solver.SINGLE_MIN_SIZE
    assert np.count_nonzero(system.P) >= es.solver.DENSE_FRACTION * system.P.size


def test_diverging_refinement_falls_back_to_the_double_factorization():
    # corrections three times too large make the error grow twofold a step:
    # the residual test fails after MAX_SINGLE_SOLVES solves, and zsytrf
    # solves the node as the double path does
    csytrs = scipy.linalg.lapack.csytrs

    def diverging(ldl, ipiv, b, **kwargs):
        x, info = csytrs(ldl, ipiv, b, **kwargs)
        return 3.0 * x, info

    with mock.patch.object(scipy.linalg.lapack, "csytrs", diverging):
        node, calls = _solve_counting_routines(_pinwheel_node(0.3))
    assert calls == {"zsytrf": 1, "csytrf": 1, "csytrs": es.solver.MAX_SINGLE_SOLVES}
    double = _forced_double(_pinwheel_node(0.3))
    assert node.alpha.tobytes() == double.alpha.tobytes()
    assert node.condition == double.condition


def test_zero_pivot_of_the_single_factorization_falls_back():
    # a csytrf that reports a zero pivot is not an error: the node falls back
    # to zsytrf, whose own failure would raise
    with _failing("csytrf"):
        node, calls = _solve_counting_routines(_pinwheel_node(0.3))
    assert calls == {"zsytrf": 1, "csytrf": 1, "csytrs": 0}
    assert node.alpha.tobytes() == _forced_double(_pinwheel_node(0.3)).alpha.tobytes()


def _assert_still_ill_conditioned(system, path, norm):
    """solve_node raises IllConditionedError, naming the filtered path,
    ||P||_1, delta (Tikhonov's for exact moments), the bound and, as the
    bound exceeds the limit, the condition of P - zI that decided: exact for
    a diagonal P, zsycon's 1-norm estimate otherwise."""
    with pytest.raises(es.IllConditionedError) as info:
        solve_node(system)
    bound = _filter_bound(system, es.solver.TIKHONOV_EPS)
    cond = info.value.condition_estimate
    assert str(info.value) == (
        f"the {path} filtered path is ill-conditioned: ||P||_1 {norm:.3e}, "
        f"delta 1.000e-08, condition bound {bound:.3e} (condition {cond:.3e})")
    assert bound > es.solver.CONDITION_LIMIT and cond > es.solver.CONDITION_LIMIT
    P = _preconditioned(system)
    shifted = P - es.solver.TIKHONOV_EPS * complex(-1.0, 1.0) * np.eye(len(P))
    true = np.linalg.cond(shifted)
    assert true / 3.0 <= cond <= 3.0 * len(P) * true


def test_singular_system_raises_ill_conditioned():
    # the filter's bound is above the limit, and so is the exact condition
    system = es.QuadraticSystem(A=np.diag([1e20, 0.0]), b=np.ones(2), lambdas=-np.ones(2))
    _assert_still_ill_conditioned(system, "diagonal", 1e20)


def test_ill_conditioned_spectrum_on_the_ldl_filtered_path_raises():
    # no eigenvalue near 0, but the largest is 1e13 times the least
    system = _system_with_spectrum([1e13, 1.0, 2.0], 0.0)
    _assert_still_ill_conditioned(system, "LDL", np.abs(_preconditioned(system)).sum(axis=0).max())


def test_well_conditioned_diagonal_system_of_large_norm_is_solved():
    # exact moments: the bound (||P||_1 + sqrt(2) delta) / delta is 1e28, but
    # the condition of P - zI, exact for a diagonal P, is 10
    d = np.array([1e20, 1e19])
    b = np.array([1.0, -2.0])
    system = es.QuadraticSystem(A=np.diag(d), b=b, lambdas=-np.ones(2))
    node = solve_node(system)
    assert node.condition == pytest.approx(10.0, rel=1e-12)
    np.testing.assert_allclose(node.alpha, -b / d, rtol=1e-15)


def test_exact_gaussian_fit_of_large_norm_is_solved():
    # N(1, 2) at Hermite order 10: at tau = 0, ||P||_1 is 1.2e5, so the bound
    # at delta = TIKHONOV_EPS is 1.2e13, but P's condition is 1.8e5; every
    # node's alpha is the order-2 closed form, its other entries 0
    mean, var = 1.0, 2.0
    model, _, schedule = fit_gaussian_ou(mean, var, order=10, n_tau=20)
    assembler = es.SystemAssembler(model.basis, es.product_table(model.basis),
                                   es.analytic_moments(es.GaussianMixture(
                                       weights=np.array([1.0]), means=np.array([[mean]]),
                                       variances=np.array([[var]])), model.basis))
    system = assembler.system(0.0)
    assert _filter_bound(system, es.solver.TIKHONOV_EPS) > es.solver.CONDITION_LIMIT
    assert model.diagnostics["condition"][0] < 1e6
    assert model.diagnostics["condition"].max() <= es.solver.CONDITION_LIMIT
    for tau, alpha in zip(model.grid, model.alphas):
        t = es.internal_time(schedule, tau)
        m_t = math.exp(-t) * mean
        v_t = math.exp(-2 * t) * var + (1 - math.exp(-2 * t))
        closed = np.zeros_like(alpha)
        closed[:2] = m_t / v_t, (v_t - 1) / (math.sqrt(2) * v_t)
        assert np.abs(alpha - closed).max() < 1e-10


@pytest.mark.parametrize("noise_scale", [0.0, 0.01])
def test_non_finite_linear_term_raises(noise_scale):
    system = es.QuadraticSystem(A=np.eye(2), b=np.array([np.nan, 1.0]),
                                lambdas=-np.ones(2), noise_scale=noise_scale)
    with pytest.raises(es.IllConditionedError, match="non-finite coefficients"):
        solve_node(system)


def test_zero_matrix_recovered_by_tikhonov():
    # P = 0 is diagonal: alpha = -b g(0) = -b / TIKHONOV_EPS
    system = es.QuadraticSystem(A=np.zeros((2, 2)), b=np.ones(2), lambdas=-np.ones(2))
    node = solve_node(system)
    assert not node.regularized and np.all(np.isfinite(node.alpha))
    np.testing.assert_allclose(node.alpha, -system.b / es.solver.TIKHONOV_EPS, rtol=1e-15)


def test_tikhonov_fallback_flags_regularization():
    # rank-1 matrix: singular, but the filter at delta = TIKHONOV_EPS solves
    # it; exact moments are never flagged, since delta is no noise floor
    A = np.outer(np.ones(2), np.ones(2))
    system = es.QuadraticSystem(A=A, b=np.array([1.0, 1.0]), lambdas=-np.ones(2))
    node = solve_node(system)
    assert not node.regularized
    assert np.all(np.isfinite(node.alpha))
    oracle = _filter_oracle(system, es.solver.TIKHONOV_EPS)
    bound = _oracle_tolerance(node, 1e-12) * np.abs(oracle).max()
    assert np.abs(node.alpha - oracle).max() <= bound


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
    score = model_eval_batch(model, x, tau)[1][:, 0]
    truth = -(x[:, 0] - m_t) / v_t + x[:, 0]  # grad log(rho_t/pi)
    np.testing.assert_allclose(score, truth, atol=1e-9)


# ---------------------------------------------------------------------------
# Presolved model, interpolation, serialization
# ---------------------------------------------------------------------------

def _small_torus_inputs():
    basis = es.trig_basis_1d(5)
    table = es.product_table(basis)
    rng = np.random.default_rng(15)
    data = es.wrap_torus(0.6 * rng.standard_normal((400, 1)))
    m = es.modulation_shrink(es.sample_moments(basis, data))
    return basis, table, m, es.Schedule.ve(0.01, 50.0)


def _small_torus_model(n_times=50):
    basis, table, m, sched = _small_torus_inputs()
    return es.presolve_grid(basis, table, m, sched, n_times=n_times)


def test_presolve_grid_diagnostics():
    basis, table, m, sched = _small_torus_inputs()
    model = es.presolve_grid(basis, table, m, sched, n_times=50)
    assert model.grid[0] == 0.0 and model.grid[-1] == 1.0
    assert model.alphas.shape == (50, model.basis.n_active)
    assert set(model.diagnostics) == {"condition"}
    # sampled moments: the filter solves every node, and each condition is
    # its bound; each alpha is g(P) y from the eigendecomposition of P
    assembler = es.SystemAssembler(basis, table, m)
    delta = es.solver.SPECTRAL_FLOOR * assembler.noise_scale
    for tau, alpha, cond in zip(model.grid, model.alphas, model.diagnostics["condition"]):
        system = assembler.system(es.internal_time(model.schedule, tau))
        assert cond == pytest.approx(_filter_bound(system, delta), rel=1e-12)
        oracle = _filter_oracle(system, delta)
        assert np.abs(alpha - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_exact_bart_presolve_matches_dense_solves():
    # exact moments at delta = TIKHONOV_EPS: at every node of bart's presolve
    # the filter moves alpha from -A^{-1} b by no more than rounding
    basis = es.trig_basis_1d(25)
    table = es.product_table(basis)
    moments = es.analytic_moments(es.bart_simpson(), basis)
    schedule = es.Schedule.ve(0.01, 50.0)
    model = es.presolve_grid(basis, table, moments, schedule, n_times=1000)
    assembler = es.SystemAssembler(basis, table, moments)
    for tau, alpha in zip(model.grid, model.alphas):
        system = assembler.system(es.internal_time(schedule, tau))
        oracle = np.linalg.solve(system.A, -system.b)
        assert np.abs(alpha - oracle).max() <= 1e-12 * np.abs(oracle).max()


def _hermite_pieces(model, i):
    """First and second derivatives of alpha_at's cubic pieces at node i, from
    the left and from the right: each piece is refit through 4 of its values."""
    g, out = model.grid, []
    for lo, hi in ((g[i - 1], g[i]), (g[i], g[i + 1])):
        taus = np.linspace(lo, hi, 4)
        ys = np.array([es.alpha_at(model, tau) for tau in taus])
        c = np.polyfit(taus - g[i], ys, 3)  # (4, n_active), highest power first
        out.append((c[2], 2.0 * c[1]))
    return out


def test_alpha_at_is_the_not_a_knot_spline():
    from scipy.interpolate import CubicSpline

    model = _small_torus_model()
    g, alphas = model.grid, model.alphas
    # node values exactly, 1 included
    for tau, alpha in zip(g, alphas):
        assert np.array_equal(es.alpha_at(model, tau), alpha)
    # C2 at interior nodes
    scale = np.abs(alphas).max()
    for i in (1, 7, 25, len(g) - 2):
        (d1l, d2l), (d1r, d2r) = _hermite_pieces(model, i)
        np.testing.assert_allclose(d1l, d1r, atol=1e-9 * scale / (g[1] - g[0]))
        np.testing.assert_allclose(d2l, d2r, atol=1e-9 * scale / (g[1] - g[0]) ** 2)
    # the same spline and slopes as scipy's not-a-knot CubicSpline
    rng = np.random.default_rng(3)
    cs = CubicSpline(g, alphas, axis=0)
    np.testing.assert_allclose(spline_slopes(g, alphas), cs(g, 1), rtol=1e-10, atol=1e-10 * scale)
    for tau in rng.uniform(0.0, 1.0, 20):
        np.testing.assert_allclose(es.alpha_at(model, tau), cs(tau), rtol=1e-12, atol=1e-12 * scale)
    # a cubic alpha(tau) on a non-uniform grid is reproduced; a parabola
    # through 3 nodes and a line through 2 are what not-a-knot reduces to
    n = model.basis.n_active
    coef = rng.standard_normal((4, n))
    for grid, degree in ((np.sort(np.r_[0.0, rng.uniform(0, 1, 9), 1.0]), 3),
                         (np.array([0.0, 0.3, 1.0]), 2), (np.array([0.0, 1.0]), 1)):
        def poly(tau):
            return sum(coef[p] * tau ** p for p in range(degree + 1))

        cubic = dataclasses.replace(model, grid=grid, alphas=np.array([poly(t) for t in grid]))
        np.testing.assert_allclose(spline_slopes(grid, cubic.alphas),
                                   CubicSpline(grid, cubic.alphas, axis=0)(grid, 1), atol=1e-12)
        for tau in np.r_[grid, rng.uniform(0, 1, 20)]:
            np.testing.assert_allclose(es.alpha_at(cubic, tau), poly(tau), atol=1e-12)
    # no tau outside [0, 1] is clamped onto the grid, NaN included
    for tau in (math.nan, math.inf, -math.inf, -0.1, 1.5):
        with pytest.raises(es.InvalidInputError, match="outside"):
            es.alpha_at(model, tau)
        with pytest.raises(es.InvalidInputError, match="outside"):
            model_eval_batch(model, np.zeros((3, 1)), tau)


def test_presolve_requires_two_nodes():
    basis = es.trig_basis_1d(2)
    table = es.product_table(basis)
    m = uniform_moments(basis)
    with pytest.raises(es.InvalidInputError):
        es.presolve_grid(basis, table, m, es.Schedule.ve(0.01, 50.0), n_times=1)


def test_model_eval_domain_check():
    model = _small_torus_model()
    with pytest.raises(es.DomainError):
        model_eval_batch(model, np.array([[4.0]]), 0.0)


def test_model_serialization_roundtrip(tmp_path):
    model = _small_torus_model()
    path = tmp_path / "model.json"
    es.save_model(model, path)
    again = es.load_model(path)
    np.testing.assert_allclose(again.alphas, model.alphas, atol=1e-15)
    np.testing.assert_allclose(again.grid, model.grid, atol=1e-15)
    assert again.basis.functions.listing() == model.basis.functions.listing()
    assert again.schedule == model.schedule
    # the fit's per-node conditions stay in memory: the file holds the model
    assert set(model.diagnostics) == {"condition"} and again.diagnostics == {}
    d = es.model_to_dict(model)
    assert d["version"] == 2 and "diagnostics" not in d
    # version-1 files carry per-node diagnostics ("residual" or "clamped" in
    # the oldest) and a "provenance" record of the fit: both are ignored
    n = len(model.grid)
    d.update(version=1, provenance={"seed": 3, "dataset_hash": "0123456789abcdef",
                                    "n_samples": 400},
             diagnostics={"condition": model.diagnostics["condition"].tolist(),
                          "regularized": [1] * n, "residual": [0.0] * n, "clamped": [1] * n})
    old = es.model_from_dict(d)
    assert old.alphas.tobytes() == es.model_from_dict(es.model_to_dict(model)).alphas.tobytes()
    assert old.diagnostics == {}
    written = es.model_to_dict(old)
    assert written["version"] == 2 and "diagnostics" not in written
    assert "provenance" not in written


REPRODUCIBLE_FIT = """
import json, sys
import numpy as np
held = [np.zeros(n) for n in {sizes}]  # moves later allocations on the heap
import eigenscore as es
ds = es.toy2d("pinwheel", 4000, np.random.default_rng(3))
basis = es.trig_basis_nd(2, -125.0)
m = es.modulation_shrink(es.sample_moments(basis, ds.points))
model = es.presolve_grid(basis, es.product_table(basis), m, es.Schedule.ve(0.01, 50.0),
                         n_times=50, domain_map=ds.domain_map)
bart = es.trig_basis_1d(25)
exact = es.presolve_grid(bart, es.product_table(bart), es.analytic_moments(es.bart_simpson(), bart),
                         es.Schedule.ve(0.01, 50.0), n_times=200)
gm = es.GaussianMixture(weights=np.array([0.5, 0.5]), means=np.array([[-1.0, 0.5], [1.0, -0.5]]),
                        variances=np.array([[0.3, 0.4], [0.5, 0.2]]))
mixture = es.presolve_grid(basis, es.product_table(basis), es.analytic_moments(gm, basis),
                           es.Schedule.ve(0.01, 50.0), n_times=30)
hermite = es.hermite_univariate_basis(1, 10)
gaussian = es.GaussianMixture(weights=np.array([1.0]), means=np.array([[1.0]]),
                              variances=np.array([[2.0]]))
ou = es.presolve_grid(hermite, es.product_table(hermite), es.analytic_moments(gaussian, hermite),
                      es.Schedule.vp(0.1, 20.0), n_times=20)
sys.stdout.write(json.dumps([[es.model_to_dict(fit), fit.diagnostics["condition"].tolist()]
                             for fit in (model, exact, mixture, ou)]))
"""


def test_sampled_model_files_do_not_depend_on_heap_layout():
    # every node's condition is the filter's bound, which depends on P alone,
    # or where that exceeds the limit (the first nodes of the Hermite fit),
    # zsycon's estimate: fresh interpreters, three of which allocate small
    # arrays before the import, write the same model files of a sampled fit
    # and of three exact ones byte for byte (while nodes took Cholesky, whose
    # dpocon estimate depends on array alignment, the sampled and the 2D
    # mixture's files differed)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(es.__file__)), os.environ.get("PYTHONPATH", "")]))
    files = [subprocess.run([sys.executable, "-c", REPRODUCIBLE_FIT.format(sizes=sizes)],
                            capture_output=True, check=True, env=env).stdout
             for sizes in ([], [1], [3, 5], [2, 2, 2])]
    assert files[0] and all(f == files[0] for f in files[1:])


@pytest.mark.parametrize("corrupt", [
    pytest.param(None, id="not-json"),
    pytest.param(lambda d: d.pop("basis"), id="missing-basis"),
    pytest.param(lambda d: d.update(alphas=[a[:-1] for a in d["alphas"]]), id="alphas-width"),
    pytest.param(lambda d: d.update(grid=d["grid"][::-1]), id="grid-reversed"),
    pytest.param(lambda d: d.update(grid=[0.5 * g for g in d["grid"]]), id="grid-short-of-1"),
    pytest.param(lambda d: d["alphas"][3].__setitem__(0, float("nan")), id="alphas-nan"),
    pytest.param(lambda d: d["basis"]["descriptor"].update(max_frequency=1e308),
                 id="descriptor-overflow"),
    pytest.param(lambda d: d["schedule"].update(sigma_max=1e200), id="schedule-overflow"),
    pytest.param(lambda d: d["domain_map"]["scale"].append(1.0), id="domain-scale-length"),
    pytest.param(lambda d: d["domain_map"]["scale"].__setitem__(0, 0.0), id="domain-scale-zero"),
    pytest.param(lambda d: d["domain_map"]["shift"].__setitem__(0, float("nan")),
                 id="domain-shift-nan"),
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
    assert score_error(basis, alpha, reference, tau_at(schedule, 0.05)) < 1e-10


BART_VE = es.Schedule.ve(0.01, 50.0)
# two Gaussians on the line, for the OU/Hermite loss
OU_MIXTURE = es.GaussianMixture(weights=np.array([0.4, 0.6]), means=np.array([[-1.0], [0.8]]),
                                variances=np.array([[0.3], [0.5]]))
OU_QUADRATURE = QuadratureSpec(n_nodes=4096, lower=-12.0, upper=12.0)
LOSS_CASES = {
    "bart-5": (es.bart_simpson, lambda: es.trig_basis_1d(5), BART_VE, es.TRUNCATED_BM,
               (0.0, tau_at(BART_VE, 0.02), 0.352), QuadratureSpec()),
    "bart-25": (es.bart_simpson, lambda: es.trig_basis_1d(25), BART_VE, es.TRUNCATED_BM,
                (0.0, tau_at(BART_VE, 0.02), 0.352), QuadratureSpec()),
    "ou-mixture-6": (lambda: OU_MIXTURE, lambda: es.hermite_univariate_basis(1, 6),
                     es.Schedule.vp(0.1, 20.0), es.OU, (0.0, 0.137, 0.6), OU_QUADRATURE),
}


@pytest.mark.parametrize("case", list(LOSS_CASES))
def test_reference_loss_matches_quadrature(case):
    """The quadratic about the exact-moment solve, against the quadrature of
    the score error, at random coefficients and at a fit to 2000 draws."""
    make_gm, make_basis, schedule, process, taus, quadrature = LOSS_CASES[case]
    gm, basis = make_gm(), make_basis()
    table = es.product_table(basis)
    reference = es.AnalyticReference(gm, schedule, process)
    rng = np.random.default_rng(41)
    data = es.sample_gaussian_mixture(gm, 2000, rng)
    if process == es.TRUNCATED_BM:
        data = es.wrap_torus(data)
    fit = es.SystemAssembler(basis, table, es.modulation_shrink(es.sample_moments(basis, data)))
    for tau in taus:
        loss = reference_loss(basis, table, reference, tau, quadrature)
        assert loss.t == es.internal_time(schedule, tau)
        for alpha in (rng.normal(size=basis.n_active), solve_node(fit.system(loss.t)).alpha):
            want = score_error(basis, alpha, reference, tau, quadrature)
            assert loss(alpha) == pytest.approx(want, rel=1e-12, abs=0)


def test_shrinkage_losses_score_both_fits_by_their_reference_loss():
    basis = es.trig_basis_1d(6)
    table = es.product_table(basis)
    reference = es.AnalyticReference(es.bart_simpson(), BART_VE, es.TRUNCATED_BM)
    losses = [reference_loss(basis, table, reference, tau, QuadratureSpec(n_nodes=512))
              for tau in (0.0, 0.3)]
    data = es.wrap_torus(es.sample_gaussian_mixture(es.bart_simpson(), 300,
                                                    np.random.default_rng(2)))
    raw = es.sample_moments(basis, data)
    got = shrinkage_losses(data, [(basis, table)], [losses])
    assert got.shape == (1, 2, 2)
    for j, moments in enumerate((raw, es.modulation_shrink(raw))):
        assembler = es.SystemAssembler(basis, table, moments)
        for g, loss in enumerate(losses):
            assert got[0, g, j] == loss(solve_node(assembler.preconditioned(loss.t)).alpha)


@pytest.mark.parametrize("process, schedule, match", [
    (es.OU, BART_VE, "process"), (es.TRUNCATED_BM, es.Schedule.vp(0.1, 20.0), "schedule"),
], ids=["OU-reference", "VP-clock-reference"])
def test_sm_loss_rejects_a_reference_that_does_not_match_the_model(process, schedule, match):
    # the process check is reference_loss's, which the loss study calls too
    basis = es.trig_basis_1d(8)
    model = es.presolve_grid(basis, es.product_table(basis),
                             es.analytic_moments(es.bart_simpson(), basis), BART_VE, n_times=20)
    reference = es.AnalyticReference(es.bart_simpson(), schedule, process)
    with pytest.raises(es.InvalidInputError, match=match):
        es.sm_loss(model, 0.2, reference, QuadratureSpec(n_nodes=256))


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
    diff = model_eval_batch(model, X, 0.5)[1] - ref.relative_score(X, 0.5)
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
