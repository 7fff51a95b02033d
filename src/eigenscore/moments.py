"""Eigenfunction moments of the data distribution, with modulation shrinkage.

Moments are always carried over the *extended* basis (products of basis
members land there), in its enumeration order, whose leading entries are the
basis functions themselves. The first entry is the constant function, pinned
to (1, variance 0, gamma 1). Sample moments walk the data in blocks of rows
(see :func:`sample_block_rows`), so their memory does not grow with the
number of points. Trig moments are harmonic sums: the means of e^{i v.x}
over the frequency rows v of the extended family and their doubles, from
one GEMM per block of per-coordinate harmonics, give theta_hat and var_hat
together; a function nearly constant over the data has its values streamed
instead, as Hermite values always are. Analytic moments of Gaussian
mixtures are closed forms: the characteristic function for trig, the
Gaussian moment recurrence for Hermite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .basis import OU, SQRT2, TRUNCATED_BM, _hermite_recurrence, _TrigFamily, block_rows
from .errors import InvalidInputError, UnsupportedTargetError
from .process import check_domain

# Bytes of one sample_moments block: a trig row's complex harmonics and
# prefix products (217 rows of the 1581 extended pinwheel functions), a
# Hermite row's float64 values. In a sweep on a 2-vCPU Xeon, at 256 KiB the
# 20k-point pinwheel and 3D (-25) trig moments ran 17-24% slower, and at
# 2 MiB the 3D ones and the 2000-point 1D (K = 25) ones 2.3-2.8x as slow.
BLOCK_BYTES = 1024 * 1024

# One-pass population variance E phi^2 - theta_hat^2 of a trig function
# below which sample_moments streams the function's values instead. The
# one-pass form is off by up to about 3e-15 absolute (the harmonics come
# from repeated multiplication), so at this floor var_hat is within 1e-12
# relative of the two-pass value: over 2250 random draws of 2-64 points in
# 1D-3D the worst was 2.7e-13, against 2.7e-12 at a floor of 1e-3. No
# function of the pinwheel or Bart-Simpson fits falls below it.
VARIANCE_FLOOR = 1e-2


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

    def __post_init__(self):
        if np.any(self.var_hat < 0):
            raise InvalidInputError("var_hat must be nonnegative")
        if np.any((self.gamma < 0) | (self.gamma > 1)):
            raise InvalidInputError("gamma must lie in [0, 1]")

    @property
    def theta(self):
        return self.gamma * self.theta_hat


def sample_block_rows(basis):
    """Data rows per block of :func:`sample_moments`: ``BLOCK_BYTES`` of a
    row's complex harmonics (trig) or of its float64 values over the extended
    basis (Hermite)."""
    if basis.process == TRUNCATED_BM:
        return basis.extended.sum_rows(BLOCK_BYTES)
    return block_rows(8 * len(basis.extended), BLOCK_BYTES)


def sample_moments(basis, data):
    """Sample means and their variances over the extended basis.

    theta_hat_k = mean phi_k(x_m); var_hat_k = (1/N^2) sum (phi_k(x_m) - theta_hat_k)^2.

    ``data`` is (N, d), walked ``sample_block_rows(basis)`` rows at a time.
    Trig moments come from the means of e^{i v.x} over the frequency rows v
    of U and 2U (``_TrigFamily.exp_sums``): theta_hat of sqrt2 cos / sqrt2 sin
    of row u from v = u, and var_hat from E 2 cos^2 u.x = 1 + E cos 2u.x
    (1 - E cos 2u.x for sin); functions whose one-pass variance falls below
    ``VARIANCE_FLOOR`` are streamed as Hermite values always are: evaluated
    and merged by Chan's pairwise update (:func:`_streamed_moments`). Raises
    InvalidInputError if the moments are not finite because the basis
    values overflow at the data.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != basis.dimension:
        raise InvalidInputError(
            f"data has shape {data.shape}, expected (N, {basis.dimension})")
    n = data.shape[0]
    if n < 2:
        raise InvalidInputError("need at least 2 data points")
    check_domain(basis.process, data)
    b = sample_block_rows(basis)
    if basis.process == TRUNCATED_BM:
        theta_hat, var_hat = _trig_moments(basis.extended, data, b)
    else:
        # Hermite values overflow at far-out points; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            theta_hat, var_hat = _streamed_moments(basis.extended, data, b)
    if not (np.isfinite(theta_hat).all() and np.isfinite(var_hat).all()):
        raise InvalidInputError(
            "basis values overflow at the data: the sample moments are not finite")
    theta_hat[0], var_hat[0] = 1.0, 0.0  # constant function has no noise
    return MomentVector(
        theta_hat=theta_hat,
        var_hat=var_hat,
        gamma=np.ones_like(theta_hat),
    )


def _streamed_moments(family, data, b):
    """Means and variances of the means of ``family``'s values over the rows
    of ``data``, ``b`` rows at a time: each block's means and centred sums of
    squares are merged into the running ones by Chan's pairwise update, so
    the (N, m) value matrix is never formed."""
    theta_hat = np.zeros(len(family))
    sq_dev = np.zeros(len(family))  # sum of squared deviations from theta_hat
    seen = 0
    for start in range(0, len(data), b):
        vals = family.values(data[start:start + b])
        rows = len(vals)
        mean = vals.mean(axis=0)
        delta = mean - theta_hat
        seen += rows
        theta_hat += delta * (rows / seen)
        sq_dev += ((vals - mean) ** 2).sum(axis=0) + delta**2 * ((seen - rows) * rows / seen)
    return theta_hat, sq_dev / (seen * seen)


def _trig_moments(family, data, b):
    """Trig means and variances of the means from the exponential sums over
    U and 2U. The population variance is taken in one pass, as the mean of
    phi^2 minus theta_hat^2, which cancels where a function is nearly
    constant over the data: the rows of the functions whose one-pass
    variance is below ``VARIANCE_FLOOR`` are evaluated and streamed instead."""
    n = len(data)
    sums = sum(family.exp_sums(data[start:start + b]) for start in range(0, n, b))
    mean_u, mean_2u = np.split(sums / n, 2)
    theta_hat, var = np.ones(len(family)), np.ones(len(family))  # the constant: 1 - 1^2 = 0
    theta_hat[1::2], theta_hat[2::2] = SQRT2 * mean_u.real, SQRT2 * mean_u.imag
    var[1::2], var[2::2] = 1.0 + mean_2u.real, 1.0 - mean_2u.real
    var -= theta_hat * theta_hat
    rows = np.unique(np.flatnonzero(var[1:] < VARIANCE_FLOOR) // 2)
    var /= n
    if rows.size:
        low = _TrigFamily(family.U[rows])
        cols = (2 * rows[:, None] + [1, 2]).ravel()
        # a row's values and its harmonics up to low.kmax
        row_bytes = 8 * len(low) + 16 * data.shape[1] * (2 * low.kmax + 1)
        t, v = _streamed_moments(low, data, block_rows(row_bytes, BLOCK_BYTES))
        theta_hat[cols], var[cols] = t[1:], v[1:]
    return theta_hat, var


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
    torus by 2 pi periodicity); Hermite moments from the Gaussian moment
    recurrence of each component and coordinate, with no quadrature.
    Variances are zero and gamma is 1 throughout.
    """
    w, mu, var = target.weights, target.means, target.variances
    fam = basis.extended
    if basis.process == TRUNCATED_BM:
        # per frequency row: E cos + i E sin = sum_j w_j e^{i mu_j.u - var_j.u^2 / 2}
        phase = mu @ fam.U.T
        decay = np.exp(-0.5 * (var @ (fam.U * fam.U).T))
        osc = np.stack([np.cos(phase), np.sin(phase)], axis=-1) * decay[:, :, None]
        theta = np.concatenate([[0.0], SQRT2 * (w @ osc.reshape(len(w), -1))])
    elif basis.process == OU:
        # every order of every component and coordinate: (J, d, max_order + 1)
        expect = _hermite_recurrence(fam.max_order, mu, var)
        theta = w @ expect[:, fam.dims, fam.orders]
    else:
        raise UnsupportedTargetError(f"no analytic moments for process {basis.process!r}")
    theta[0] = 1.0  # the constant, exactly
    return MomentVector(
        theta_hat=theta,
        var_hat=np.zeros_like(theta),
        gamma=np.ones_like(theta),
    )
