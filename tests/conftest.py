"""Shared fixtures and numerical helpers for the test suite."""

import functools
import math
from unittest import mock

import numpy as np
import pytest

import eigenscore as es
from eigenscore import generate
from eigenscore.process import check_domain, internal_time
from eigenscore.solver import solve_node


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)


def torus_quad_1d(n=4096):
    """Midpoint nodes and weights for integration over [-pi, pi]."""
    h = 2.0 * math.pi / n
    x = -math.pi + h * (np.arange(n) + 0.5)
    return x, np.full(n, h)


def energy_distance_pvalue(X, Y, rng, n_perm=200):
    """Permutation p-value of the two-sample energy statistic.

    With s the 0/1 labels of the first sample and u = D s, the distance sums
    within and between the samples are S_aa = s.u, S_ab = sum(u) - S_aa and
    S_bb = sum(D) - 2 S_ab - S_aa: one matrix-vector product per permutation.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    Z = np.vstack([X, Y])
    n, m = len(X), len(Y)
    D = np.sqrt(((Z[:, None, :] - Z[None, :, :]) ** 2).sum(-1))
    total = D.sum()

    def stat(idx):
        s = np.zeros(len(Z))
        s[idx[:n]] = 1.0
        u = D @ s
        s_aa = s @ u
        s_ab = u.sum() - s_aa
        s_bb = total - 2.0 * s_ab - s_aa
        return 2.0 * s_ab / (n * m) - s_aa / (n * n) - s_bb / (m * m)

    obs = stat(np.arange(len(Z)))
    hits = sum(stat(rng.permutation(len(Z))) >= obs for _ in range(n_perm))
    return obs, (hits + 1) / (n_perm + 1)


def uniform_moments(basis):
    """Moments of the invariant measure: only the constant is nonzero."""
    theta = np.zeros(len(basis.extended))
    theta[0] = 1.0
    return es.MomentVector(theta_hat=theta, var_hat=np.zeros_like(theta),
                           gamma=np.ones_like(theta))


def pair_expansion(table, k, l):
    """Extended indices and coefficients of the expansion of phi_k phi_l in
    the product table, whose entries are sorted by pair k <= l."""
    k, l = min(k, l), max(k, l)
    n_basis = int(table.l.max()) + 1
    key = k * n_basis + l
    lo, hi = np.searchsorted(table.k * n_basis + table.l, [key, key + 1])
    if lo == hi:
        raise es.CapacityError(f"no product expansion stored for pair {(k, l)}")
    return table.h[lo:hi], table.beta[lo:hi]


def dense_system(basis, table, moments, t):
    """Dense A_t and b_t over the active basis, one pair of functions at a time.

    A_t[k,l] = sum_h ((lam_h - lam_k - lam_l)/2) e^{lam_h t} beta_h^{(k,l)} theta_h
    over the expansion ``pair_expansion(table, k, l)`` of phi_k phi_l, and
    b_t[k] = lam_k e^{lam_k t} theta_k. Hermite pairs on disjoint coordinates
    have no stored expansion: their carre-du-champ vanishes.
    """
    lam, lam_ext, theta = basis.eigenvalues, basis.extended_eigenvalues, moments.theta
    n = basis.n_active
    A = np.zeros((n, n))
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            if basis.process == es.OU and basis.functions.dims[k] != basis.functions.dims[l]:
                continue  # Hermite functions of disjoint coordinates
            h, beta = pair_expansion(table, k, l)
            A[k - 1, l - 1] = A[l - 1, k - 1] = np.sum(
                (lam_ext[h] - lam[k] - lam[l]) / 2.0 * np.exp(lam_ext[h] * t) * beta * theta[h])
    b = lam[1:] * np.exp(lam[1:] * t) * theta[1:n + 1]
    return A, b


def score_error(basis, alpha, reference, tau, quadrature=es.QuadratureSpec()):
    """The score-matching loss by quadrature: the trapezoid rule of
    ``quadrature`` over |grad f - grad log(rho_tau / pi)|^2 rho_tau, with
    f = sum_k alpha_k phi_k over the active basis and rho_tau the reference's
    density at tau."""
    d = basis.dimension
    x = np.linspace(quadrature.lower, quadrature.upper, quadrature.n_nodes)
    w = np.full(len(x), x[1] - x[0])
    w[[0, -1]] *= 0.5
    nodes = np.stack([g.ravel() for g in np.meshgrid(*[x] * d, indexing="ij")], axis=1)
    weights = functools.reduce(np.multiply.outer, [w] * d).ravel()
    diff = basis.eval_batch(nodes)[1][:, :, 1:] @ alpha - reference.relative_score(nodes, tau)
    return float(weights @ (reference.pdf(nodes, tau) * (diff * diff).sum(axis=1)))


def model_eval_batch(model, X, tau):
    """Energy, score and Laplacian of the fitted model at points X (N, d), in
    float64: ``eval_batch``'s values, gradients and Laplacians contracted
    with ``alpha_at(model, tau)``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    check_domain(model.process, X)
    vals, grads, laps = model.basis.eval_batch(X)
    alpha = es.alpha_at(model, tau)
    return vals[:, 1:] @ alpha, grads[:, :, 1:] @ alpha, laps[:, 1:] @ alpha


def fit_gaussian_ou(mean, var, order=2, n_tau=200, schedule=es.Schedule.vp(0.1, 20.0)):
    """Fit a 1D Gaussian with the OU/Hermite pipeline from analytic moments."""
    basis = es.hermite_univariate_basis(1, order)
    table = es.product_table(basis)
    gm = es.GaussianMixture(weights=np.array([1.0]),
                            means=np.array([[mean]]),
                            variances=np.array([[var]]))
    moments = es.analytic_moments(gm, basis)
    model = es.presolve_grid(basis, table, moments, schedule, n_times=n_tau)
    return model, gm, schedule


def reference_log_density(model, table, moments, x0, cfg):
    """The model's log-density at x0 through the interpolation-free flow: the
    node system of ``moments`` is solved at every tau the integrator asks
    for (memoised per tau), where the model reads its spline of the nodes."""
    assembler = es.SystemAssembler(model.basis, table, moments)

    @functools.cache
    def solve(tau):
        return solve_node(assembler.system(internal_time(model.schedule, tau))).alpha

    with mock.patch.object(generate, "alpha_at", lambda _, tau: solve(float(tau))):
        return es.log_density(model, x0, cfg)
