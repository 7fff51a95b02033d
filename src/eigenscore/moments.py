"""Eigenfunction moments of the data distribution, with modulation shrinkage.

Moments are always carried over the *extended* basis (products of basis
members land there), in its enumeration order, whose leading entries are the
basis functions themselves. The first entry is the constant function, pinned
to (1, variance 0, gamma 1). Sample moments are streamed over blocks of data
rows whose values take ``BLOCK_BYTES`` (see :func:`sample_block_rows`), so
their memory does not grow with the number of points times the extended
basis size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import OU, SQRT2, TRUNCATED_BM, block_rows, hermite_eval
from .errors import InvalidInputError, UnsupportedTargetError
from .process import check_domain

GH_NODES = 200  # Gauss-Hermite nodes per mixture component for analytic Hermite moments
# Bytes of float64 values in one sample_moments block (82 rows of the 1581
# extended pinwheel functions). Not the flow kernel's budget: a row here also
# carries its phases and complex powers, and in a sweep on a 2-vCPU Xeon the
# 20k-point pinwheel moments ran 40% slower at basis.KERNEL_BLOCK_BYTES,
# while the kernel runs a quarter or more slower at this budget.
BLOCK_BYTES = 1024 * 1024


@dataclass(frozen=True)
class MomentVector:
    """Estimated expectations of the extended eigenfunctions under the data.

    ``theta_hat`` are sample means, ``var_hat`` the variances of those means,
    ``gamma`` the shrinkage weights in [0, 1]; the working values are
    ``theta = gamma * theta_hat``. Entries follow the extended basis, so the
    first ``len(basis.functions)`` belong to the basis functions.
    """

    theta_hat: np.ndarray
    var_hat: np.ndarray
    gamma: np.ndarray
    n_samples: int

    def __post_init__(self):
        if np.any(self.var_hat < 0):
            raise InvalidInputError("var_hat must be nonnegative")
        if np.any((self.gamma < 0) | (self.gamma > 1)):
            raise InvalidInputError("gamma must lie in [0, 1]")

    @property
    def theta(self):
        return self.gamma * self.theta_hat


def sample_block_rows(basis):
    """Data rows per block of :func:`sample_moments`: ``BLOCK_BYTES`` of float64
    values over the extended basis."""
    return block_rows(8 * len(basis.extended), BLOCK_BYTES)


def sample_moments(basis, data):
    """Sample means and their variances over the extended basis.

    theta_hat_k = mean phi_k(x_m); var_hat_k = (1/N^2) sum (phi_k(x_m) - theta_hat_k)^2.

    ``data`` is (N, d). The values are evaluated ``sample_block_rows(basis)``
    rows at a time; each block's means and centred sums of squares are merged
    into the running ones by Chan's pairwise update, so the (N, m) value
    matrix is never formed.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != basis.dimension:
        raise InvalidInputError(
            f"data has shape {data.shape}, expected (N, {basis.dimension})")
    n = data.shape[0]
    if n < 2:
        raise InvalidInputError("need at least 2 data points")
    check_domain(basis.process, data)
    theta_hat = np.zeros(len(basis.extended))
    sq_dev = np.zeros(len(basis.extended))  # sum of squared deviations from theta_hat
    seen = 0
    b = sample_block_rows(basis)
    for start in range(0, n, b):
        vals = basis.eval_values(data[start:start + b], extended=True)
        rows = len(vals)
        mean = vals.mean(axis=0)
        delta = mean - theta_hat
        seen += rows
        theta_hat += delta * (rows / seen)
        sq_dev += ((vals - mean) ** 2).sum(axis=0) + delta**2 * ((seen - rows) * rows / seen)
    var_hat = sq_dev / (n * n)
    theta_hat[0], var_hat[0] = 1.0, 0.0  # constant function has no noise
    return MomentVector(
        theta_hat=theta_hat,
        var_hat=var_hat,
        gamma=np.ones_like(theta_hat),
        n_samples=n,
    )


def modulation_shrink(m):
    """Per-coordinate minimizer of the empirical modulation risk.

    With c_k = max(theta_hat_k^2 - var_hat_k, 0) the risk
    gamma^2 var + (1-gamma)^2 c is minimized at gamma = c / (var + c)
    (zero when both vanish). The constant entry is untouched.
    """
    c = np.maximum(m.theta_hat**2 - m.var_hat, 0.0)
    denom = m.var_hat + c
    gamma = np.divide(c, denom, out=np.zeros_like(c), where=denom > 0)
    gamma[0] = 1.0
    return replace(m, gamma=gamma)


def analytic_moments(target, basis):
    """Closed-form eigenfunction expectations of a Gaussian mixture.

    Trig moments come from the Gaussian characteristic function (valid on the
    torus by 2 pi periodicity); Hermite moments from Gauss-Hermite quadrature
    per mixture component. Variances are zero and gamma is 1 throughout.
    """
    w, mu, var = target.weights, target.means, target.variances
    fam = basis._extended_family
    if basis.process == TRUNCATED_BM:
        # per frequency row: E cos + i E sin = sum_j w_j e^{i mu_j.u - var_j.u^2 / 2}
        phase = mu @ fam.U.T
        decay = np.exp(-0.5 * (var @ (fam.U * fam.U).T))
        osc = np.stack([np.cos(phase), np.sin(phase)], axis=-1) * decay[:, :, None]
        theta = np.concatenate([[0.0], SQRT2 * (w @ osc.reshape(len(w), -1))])
    elif basis.process == OU:
        # per component and coordinate, every order at the standardized nodes
        nodes, weights = np.polynomial.hermite_e.hermegauss(GH_NODES)
        weights = weights / math.sqrt(2.0 * math.pi)
        x = mu[:, None, :] + np.sqrt(var)[:, None, :] * nodes[:, None]  # (J, nodes, d)
        expect = np.einsum("q,jqdk->jdk", weights, hermite_eval(fam.max_order, x))
        theta = w @ expect[:, fam.dims, fam.orders]
    else:
        raise UnsupportedTargetError(f"no analytic moments for process {basis.process!r}")
    theta[0] = 1.0  # the constant, exactly
    return MomentVector(
        theta_hat=theta,
        var_hat=np.zeros_like(theta),
        gamma=np.ones_like(theta),
        n_samples=0,
    )
