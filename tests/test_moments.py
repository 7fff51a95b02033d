"""Moment estimation and the modulation shrinkage estimator."""

import math

import numpy as np
import pytest

import eigenscore as es


def test_sample_moments_match_direct_means():
    basis = es.trig_basis_1d(5)
    rng = np.random.default_rng(0)
    data = rng.uniform(-math.pi, math.pi, (500, 1))
    m = es.sample_moments(basis, data)
    vals = basis.eval_values(data, extended=True)
    np.testing.assert_allclose(m.theta_hat[1:], vals.mean(axis=0)[1:], atol=1e-12)
    np.testing.assert_allclose(
        m.var_hat[1:], ((vals - vals.mean(axis=0)) ** 2).sum(axis=0)[1:] / 500**2,
        atol=1e-12)
    assert m.theta_hat[0] == 1.0 and m.var_hat[0] == 0.0
    assert m.n_samples == 500


def test_sample_moments_uniform_data_near_zero():
    # under the invariant measure all non-constant moments vanish
    basis = es.trig_basis_1d(10)
    rng = np.random.default_rng(1)
    n = 100_000
    data = rng.uniform(-math.pi, math.pi, (n, 1))
    m = es.sample_moments(basis, data)
    se = np.sqrt(m.var_hat[1:])
    assert np.all(np.abs(m.theta_hat[1:]) < 5 * se)


def test_sample_moments_domain_check():
    basis = es.trig_basis_1d(3)
    with pytest.raises(es.DomainError):
        es.sample_moments(basis, np.array([[0.0], [4.0]]))
    with pytest.raises(es.InvalidInputError):
        es.sample_moments(basis, np.array([[0.0]]))


def _two_pass_moments(basis, data):
    """Oracle: the two-pass formula over the full (N, m) value matrix."""
    vals = basis.eval_values(data, extended=True)
    theta = vals.mean(axis=0)
    return theta, ((vals - theta) ** 2).sum(axis=0) / len(data) ** 2


MOMENT_BASES = [
    pytest.param(lambda: es.trig_basis_1d(25), id="trig-1d-25"),
    pytest.param(lambda: es.trig_basis_nd(2, -125.0), id="trig-2d-125"),
    pytest.param(lambda: es.trig_basis_nd(3, -6.0), id="trig-3d-6"),
    pytest.param(lambda: es.hermite_univariate_basis(2, 4), id="hermite-2d-4"),
]


def _check_streamed_moments(basis, n):
    rng = np.random.default_rng(n)
    data = 0.4 + 0.7 * rng.standard_normal((n, basis.dimension))
    if basis.process == es.TRUNCATED_BM:
        data = es.wrap_torus(data)
    m = es.sample_moments(basis, data)
    theta, var = _two_pass_moments(basis, data)
    np.testing.assert_allclose(m.theta_hat[1:], theta[1:], rtol=0, atol=1e-14)
    np.testing.assert_allclose(m.var_hat[1:], var[1:], rtol=1e-12, atol=0)
    assert m.theta_hat[0] == 1.0 and m.var_hat[0] == 0.0
    assert m.n_samples == n


@pytest.mark.parametrize("n", [2, 512, 1024, 1025, 2055])
@pytest.mark.parametrize("make_basis", MOMENT_BASES)
def test_streamed_moments_match_two_pass(make_basis, n):
    _check_streamed_moments(make_basis(), n)


# row counts around the block size b (2 is the fewest sample_moments accepts)
BLOCK_EDGES = {"2": lambda b: 2, "b-1": lambda b: b - 1, "b": lambda b: b,
               "b+1": lambda b: b + 1, "2b+7": lambda b: 2 * b + 7}


@pytest.mark.parametrize("edge", list(BLOCK_EDGES))
@pytest.mark.parametrize("make_basis", MOMENT_BASES)
def test_streamed_moments_match_two_pass_at_block_edges(make_basis, edge):
    basis = make_basis()
    _check_streamed_moments(basis, BLOCK_EDGES[edge](es.moments.sample_block_rows(basis)))


@pytest.mark.parametrize("shape", [(50,), (10, 5, 1), (50, 2)])
def test_sample_moments_rejects_data_shape(shape):
    basis = es.trig_basis_1d(3)
    with pytest.raises(es.InvalidInputError, match=r"expected \(N, 1\)") as exc:
        es.sample_moments(basis, np.zeros(shape))
    assert str(shape) in str(exc.value)


def test_modulation_shrink_closed_form():
    basis = es.trig_basis_1d(4)
    rng = np.random.default_rng(2)
    data = es.wrap_torus(0.4 + 0.3 * rng.standard_normal((200, 1)))
    m = es.modulation_shrink(es.sample_moments(basis, data))
    c = np.maximum(m.theta_hat**2 - m.var_hat, 0.0)
    expected = np.where(c + m.var_hat > 0, c / (c + m.var_hat), 0.0)
    expected[0] = 1.0
    np.testing.assert_allclose(m.gamma, expected, atol=1e-14)
    np.testing.assert_allclose(m.theta, m.gamma * m.theta_hat, atol=1e-14)


def test_modulation_shrink_matches_grid_search():
    """gamma minimizes gamma^2 var + (1-gamma)^2 c over a fine grid."""
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 2_000_001)
    for _ in range(50):
        theta = rng.normal(scale=2.0)
        var = rng.uniform(0.0, 1.0)
        c = max(theta**2 - var, 0.0)
        risk = grid**2 * var + (1 - grid) ** 2 * c
        best = grid[np.argmin(risk)]
        closed = c / (var + c) if var + c > 0 else 0.0
        assert abs(best - closed) < 1e-6


def test_modulation_never_increases_magnitude():
    basis = es.trig_basis_1d(8)
    rng = np.random.default_rng(5)
    data = es.wrap_torus(0.2 * rng.standard_normal((50, 1)))
    m = es.modulation_shrink(es.sample_moments(basis, data))
    assert np.all(np.abs(m.theta) <= np.abs(m.theta_hat) + 1e-15)


TWO_COMPONENTS_2D = es.GaussianMixture(weights=np.array([0.3, 0.7]),
                                       means=np.array([[-1.0, 0.5], [0.8, -0.2]]),
                                       variances=np.array([[0.09, 0.3], [0.25, 0.04]]))


def _check_analytic_vs_monte_carlo(gm, basis, seed, n=400_000):
    """Every extended moment within 5 standard errors of the mean over n
    draws, taken by sample_moments in blocks (its var_hat is the squared
    standard error)."""
    m = es.analytic_moments(gm, basis)
    x = es.sample_gaussian_mixture(gm, n, np.random.default_rng(seed))
    if basis.process == es.TRUNCATED_BM:
        x = es.wrap_torus(x)
    mc = es.sample_moments(basis, x)
    assert np.all(np.abs(m.theta_hat - mc.theta_hat) < 5 * np.sqrt(mc.var_hat) + 1e-12)
    assert np.all(m.var_hat == 0.0)


def test_analytic_moments_trig_vs_monte_carlo():
    gm = es.GaussianMixture(weights=np.array([0.4, 0.6]),
                            means=np.array([[-1.0], [0.8]]),
                            variances=np.array([[0.09], [0.25]]))
    _check_analytic_vs_monte_carlo(gm, es.trig_basis_1d(6), seed=6)
    _check_analytic_vs_monte_carlo(TWO_COMPONENTS_2D, es.trig_basis_nd(2, -5.0), seed=16)


def test_analytic_moments_hermite_vs_monte_carlo():
    gm = es.GaussianMixture(weights=np.array([1.0]),
                            means=np.array([[0.5]]),
                            variances=np.array([[0.49]]))
    _check_analytic_vs_monte_carlo(gm, es.hermite_univariate_basis(1, 4), seed=7)
    _check_analytic_vs_monte_carlo(TWO_COMPONENTS_2D, es.hermite_univariate_basis(2, 3), seed=17)


def test_moment_vector_validation():
    with pytest.raises(es.InvalidInputError):
        es.MomentVector(theta_hat=np.zeros(2), var_hat=np.array([0.0, -1.0]),
                        gamma=np.ones(2), n_samples=10)
    with pytest.raises(es.InvalidInputError):
        es.MomentVector(theta_hat=np.zeros(2), var_hat=np.zeros(2),
                        gamma=np.array([1.0, 1.5]), n_samples=10)
