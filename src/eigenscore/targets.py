"""Analytic and synthetic data distributions used for fitting and validation.

Gaussian mixtures (diagonal covariances) come with closed-form marginals
after internal time t of either forward process (the process's transition
applied to each component), scores and log-densities, both on R^d and
wrapped onto the torus.
The 2D toy shapes follow their standard definitions and are affinely mapped
into [-0.95 pi, 0.95 pi]^2 (a ``TORUS_MARGIN`` of 5% at each end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .basis import OU, TRUNCATED_BM
from .errors import DegenerateInputError, InvalidInputError
from .process import internal_time, transition

TWO_PI = 2.0 * math.pi
# Share of [-pi, pi] kept free at each end when point clouds are mapped into it.
TORUS_MARGIN = 0.05


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of axis-aligned Gaussians: weights (J,), means (J,d), variances (J,d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        v = np.atleast_2d(np.asarray(self.variances, dtype=float))
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvalidInputError("mixture weights must sum to 1")
        if np.any(v <= 0):
            raise InvalidInputError("mixture variances must be positive")
        if not (w.shape[0] == m.shape[0] == v.shape[0]) or m.shape != v.shape:
            raise InvalidInputError("inconsistent mixture component shapes")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def dimension(self):
        return self.means.shape[1]


def bart_simpson():
    """The 1D six-component mixture: 0.5 N(0,1) + 0.1 sum_j N(j/2-1, 1/100)."""
    weights = [0.5] + [0.1] * 5
    means = [[0.0]] + [[j / 2.0 - 1.0] for j in range(5)]
    variances = [[1.0]] + [[0.01]] * 5
    return GaussianMixture(weights, means, variances)


def mixture_marginal(gm, process, t):
    """The mixture after internal time t of the process on R^d: with (alpha,
    sigma) = ``transition(process, t)`` each component N(m, v) becomes
    N(alpha m, alpha^2 v + sigma^2). The torus marginal is its wrapping."""
    alpha, sigma = transition(process, t)
    return GaussianMixture(
        gm.weights, alpha * gm.means, alpha * alpha * gm.variances + sigma * sigma
    )


def _component_logpdfs(gm, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = (x[:, None, :] - gm.means[None]) ** 2 / gm.variances[None]
    return -0.5 * (z + np.log(TWO_PI * gm.variances)[None]).sum(axis=2)


def mixture_logpdf(gm, x):
    """Log density on R^d, log-sum-exp stable. x: (d,) or (N, d)."""
    lp = _component_logpdfs(gm, x) + np.log(gm.weights)[None]
    out = logsumexp(lp, axis=1)
    return out if np.ndim(x) > 1 else float(out[0])

def mixture_score(gm, x):
    """Gradient of the log density: responsibility-weighted component scores."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    lp = _component_logpdfs(gm, x2) + np.log(gm.weights)[None]
    resp = np.exp(lp - logsumexp(lp, axis=1, keepdims=True))  # (N, J)
    comp_scores = -(x2[:, None, :] - gm.means[None]) / gm.variances[None]
    out = np.einsum("nj,njd->nd", resp, comp_scores)
    return out if np.ndim(x) > 1 else out[0]


def sample_gaussian_mixture(gm, n, rng):
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    comp = rng.choice(len(gm.weights), size=n, p=gm.weights)
    z = rng.standard_normal((n, gm.dimension))
    return gm.means[comp] + np.sqrt(gm.variances[comp]) * z


# ---------------------------------------------------------------------------
# Wrapped (torus) densities
# ---------------------------------------------------------------------------

def _wrapped_1d(x, mean, var):
    """Wrapped-normal density and derivative per coordinate.

    For small variance a few 2 pi shifts of the Gaussian suffice; for large
    variance the Fourier representation
    ``(1/2pi)(1 + 2 sum_k e^{-k^2 v/2} cos k(x-m))`` converges in a handful of
    terms. Returns (pdf, d pdf / dx), elementwise over x.
    """
    if var >= 0.6:
        kmax = int(math.ceil(math.sqrt(2.0 * 37.0 / var))) + 1
        p = np.full_like(x, 1.0 / TWO_PI)
        dp = np.zeros_like(x)
        for k in range(1, kmax + 1):
            decay = math.exp(-0.5 * k * k * var)
            p += (1.0 / math.pi) * decay * np.cos(k * (x - mean))
            dp -= (k / math.pi) * decay * np.sin(k * (x - mean))
        return p, dp
    sd = math.sqrt(var)
    kshift = int(math.ceil((math.pi + 6.0 * sd) / TWO_PI))
    p = np.zeros_like(x)
    dp = np.zeros_like(x)
    norm = 1.0 / math.sqrt(TWO_PI * var)
    for z in range(-kshift, kshift + 1):
        u = x - mean - TWO_PI * z
        g = norm * np.exp(-0.5 * u * u / var)
        p += g
        dp += g * (-u / var)
    return p, dp


def wrapped_mixture_pdf_and_score(gm, x):
    """Density and score of a Gaussian mixture wrapped onto [-pi, pi]^d."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    J = len(gm.weights)
    P = np.empty((n, J, d))
    D = np.empty((n, J, d))
    for j in range(J):
        for i in range(d):
            P[:, j, i], D[:, j, i] = _wrapped_1d(x[:, i], gm.means[j, i], gm.variances[j, i])
    comp = P.prod(axis=2)  # (n, J)
    pdf = comp @ gm.weights
    score = np.empty((n, d))
    for i in range(d):
        loo = comp / np.maximum(P[:, :, i], 1e-300)
        score[:, i] = (loo * D[:, :, i]) @ gm.weights / np.maximum(pdf, 1e-300)
    return pdf, score


def wrapped_mixture_pdf(gm, x):
    return wrapped_mixture_pdf_and_score(gm, x)[0]


# ---------------------------------------------------------------------------
# Ground-truth reference for score-matching losses
# ---------------------------------------------------------------------------

class AnalyticReference:
    """Exact time-tau density and relative score of a Gaussian-mixture target.

    ``relative_score`` returns grad log(rho_t / pi): on the torus pi is
    uniform so this is the plain score of the wrapped marginal; for OU it is
    the mixture score plus x.
    """

    def __init__(self, gm, schedule, process):
        if process not in (OU, TRUNCATED_BM):
            raise InvalidInputError(f"unknown process {process!r}")
        self.gm = gm
        self.schedule = schedule
        self.process = process

    def marginal(self, tau):
        return mixture_marginal(self.gm, self.process, internal_time(self.schedule, tau))

    def pdf(self, x, tau):
        gm_t = self.marginal(tau)
        if self.process == TRUNCATED_BM:
            return wrapped_mixture_pdf(gm_t, x)
        return np.exp(mixture_logpdf(gm_t, np.atleast_2d(x)))

    def relative_score(self, x, tau):
        gm_t = self.marginal(tau)
        if self.process == TRUNCATED_BM:
            return wrapped_mixture_pdf_and_score(gm_t, x)[1]
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return mixture_score(gm_t, x) + x


# ---------------------------------------------------------------------------
# Datasets and the torus map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainMap:
    """Per-coordinate affine map u = (x - shift) * scale with exact inverse."""

    scale: np.ndarray
    shift: np.ndarray

    @staticmethod
    def identity(dimension):
        return DomainMap(scale=np.ones(dimension), shift=np.zeros(dimension))

    def forward(self, x):
        return (np.asarray(x, dtype=float) - self.shift) * self.scale

    def inverse(self, u):
        return np.asarray(u, dtype=float) / self.scale + self.shift

    @property
    def is_identity(self):
        return bool(np.all(self.scale == 1.0) and np.all(self.shift == 0.0))

    def to_dict(self):
        return {"scale": self.scale.tolist(), "shift": self.shift.tolist()}

    @staticmethod
    def from_dict(d):
        return DomainMap(scale=np.asarray(d["scale"], dtype=float),
                         shift=np.asarray(d["shift"], dtype=float))


@dataclass(frozen=True)
class Dataset:
    points: np.ndarray
    domain_map: DomainMap

    @property
    def dimension(self):
        return self.points.shape[1]


def rescale_to_torus(points):
    """Affine map of each coordinate's range onto +-pi (1 - TORUS_MARGIN)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("points must be finite")
    lo, hi = points.min(axis=0), points.max(axis=0)
    if np.any(hi == lo):
        bad = int(np.nonzero(hi == lo)[0][0])
        raise DegenerateInputError(f"coordinate {bad} has zero range")
    half = math.pi * (1.0 - TORUS_MARGIN)
    scale = 2.0 * half / (hi - lo)
    shift = (hi + lo) / 2.0
    dm = DomainMap(scale=scale, shift=shift)
    return Dataset(points=dm.forward(points), domain_map=dm)


# ---------------------------------------------------------------------------
# 2D toy shapes
# ---------------------------------------------------------------------------

def _pinwheel(n, rng):
    radial_std, tangential_std, num_classes, rate = 0.3, 0.1, 5, 0.25
    cls = rng.integers(0, num_classes, size=n)
    feats = rng.standard_normal((n, 2)) * np.array([radial_std, tangential_std])
    feats[:, 0] += 1.0
    angles = cls * 2.0 * math.pi / num_classes + rate * np.exp(feats[:, 0])
    ca, sa = np.cos(angles), np.sin(angles)
    x = feats[:, 0] * ca - feats[:, 1] * sa
    y = feats[:, 0] * sa + feats[:, 1] * ca
    return np.stack([x, y], axis=1)


def _checkerboard(n, rng):
    x1 = rng.uniform(-4.0, 4.0, size=n)
    x2 = rng.uniform(0.0, 1.0, size=n) - rng.integers(0, 2, size=n) * 2.0
    x2 = x2 + np.floor(x1) % 2
    return np.stack([x1, x2], axis=1)


def _two_moons(n, rng):
    t = math.pi * rng.uniform(0.0, 1.0, size=n)
    upper = rng.integers(0, 2, size=n).astype(bool)
    x = np.where(upper, np.cos(t), 1.0 - np.cos(t))
    y = np.where(upper, np.sin(t), 0.5 - np.sin(t))
    return np.stack([x, y], axis=1) + 0.1 * rng.standard_normal((n, 2))


def _rings(n, rng):
    radii = np.array([0.25, 0.5, 0.75, 1.0])
    r = radii[rng.integers(0, len(radii), size=n)] + 0.02 * rng.standard_normal(n)
    t = rng.uniform(0.0, TWO_PI, size=n)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)


def _swiss_roll(n, rng):
    t = 1.5 * math.pi * (1.0 + 2.0 * rng.uniform(0.0, 1.0, size=n))
    pts = np.stack([t * np.cos(t), t * np.sin(t)], axis=1)
    return pts / 5.0 + 0.2 * rng.standard_normal((n, 2))


_TOYS = {
    "pinwheel": _pinwheel,
    "checkerboard": _checkerboard,
    "two_moons": _two_moons,
    "rings": _rings,
    "swiss_roll": _swiss_roll,
}


def toy2d(name, n, rng):
    """Standard 2D toy point cloud, affinely mapped into the torus by
    :func:`rescale_to_torus`."""
    if name not in _TOYS:
        raise InvalidInputError(f"unknown toy dataset {name!r}; options: {sorted(_TOYS)}")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    return rescale_to_torus(_TOYS[name](n, rng))
