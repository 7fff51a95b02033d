"""Noise schedules and exact simulation of the forward processes.

Both processes are driven through a normalized time tau in [0, 1]:

* VE (variance exploding, used with the wrapped Brownian motion): the noise
  level is sigma_tau = sigma_min (sigma_max/sigma_min)^tau and the internal
  process time is t(tau) = sigma_tau^2 / 2.
* VP (variance preserving, the Ornstein-Uhlenbeck process): the internal time
  is t(tau) = beta0 tau / 2 + (beta1 - beta0) tau^2 / 4, with alpha = e^{-t}
  and sigma^2 = 1 - alpha^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import OU, TRUNCATED_BM
from .errors import DomainError, InvalidInputError

VE = "VE"
VP = "VP"


@dataclass(frozen=True)
class Schedule:
    kind: str
    sigma_min: float = 0.0
    sigma_max: float = 0.0
    beta0: float = 0.0
    beta1: float = 0.0

    @staticmethod
    def ve(sigma_min=0.01, sigma_max=50.0):
        if not 0 < sigma_min < sigma_max < math.inf:
            raise InvalidInputError("VE schedule needs 0 < sigma_min < sigma_max < inf")
        return Schedule(kind=VE, sigma_min=float(sigma_min), sigma_max=float(sigma_max))

    @staticmethod
    def vp(beta0=0.1, beta1=20.0):
        if not (0 < beta0 < math.inf and 0 < beta1 < math.inf):
            raise InvalidInputError("VP schedule needs finite positive beta0, beta1")
        return Schedule(kind=VP, beta0=float(beta0), beta1=float(beta1))

    def to_dict(self):
        if self.kind == VE:
            return {"kind": VE, "sigma_min": self.sigma_min, "sigma_max": self.sigma_max}
        return {"kind": VP, "beta0": self.beta0, "beta1": self.beta1}

    @staticmethod
    def from_dict(d):
        if d["kind"] == VE:
            return Schedule.ve(d["sigma_min"], d["sigma_max"])
        if d["kind"] == VP:
            return Schedule.vp(d["beta0"], d["beta1"])
        raise InvalidInputError(f"unknown schedule kind {d.get('kind')!r}")

    def beta_at(self, tau):
        """Instantaneous VP rate beta_tau = beta0 + tau (beta1 - beta0)."""
        if self.kind != VP:
            raise InvalidInputError("beta_at is only defined for VP schedules")
        return self.beta0 + tau * (self.beta1 - self.beta0)


@dataclass(frozen=True)
class ProcessState:
    """Which forward process is running and on which domain."""

    process: str
    dimension: int

    def __post_init__(self):
        if self.process not in (OU, TRUNCATED_BM):
            raise InvalidInputError(f"unknown process {self.process!r}")
        if self.dimension < 1:
            raise InvalidInputError("dimension must be >= 1")

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        if self.process == TRUNCATED_BM:
            return bool(np.all(np.abs(x) <= np.pi + 1e-12))
        return bool(np.all(np.isfinite(x)))


def _check_tau(tau):
    tau = float(tau)
    if not (0.0 <= tau <= 1.0) or not math.isfinite(tau):
        raise InvalidInputError(f"tau={tau} outside [0, 1]")
    return tau


def noise_at(schedule, tau):
    """Scaling alpha_tau, noise level sigma_tau and internal time t(tau)."""
    tau = _check_tau(tau)
    if schedule.kind == VE:
        sigma = schedule.sigma_min * (schedule.sigma_max / schedule.sigma_min) ** tau
        return 1.0, sigma, 0.5 * sigma * sigma
    t = schedule.beta0 * tau / 2.0 + (schedule.beta1 - schedule.beta0) * tau * tau / 4.0
    alpha = math.exp(-t)
    return alpha, math.sqrt(max(0.0, 1.0 - alpha * alpha)), t


def tau_at(schedule, t):
    """Inverse of the internal-time map: the tau with t(tau) = t."""
    if t < 0:
        raise InvalidInputError("t must be >= 0")
    if schedule.kind == VE:
        sigma = math.sqrt(2.0 * t)
        if sigma < schedule.sigma_min:
            return 0.0
        tau = math.log(sigma / schedule.sigma_min) / math.log(
            schedule.sigma_max / schedule.sigma_min)
    else:
        a = (schedule.beta1 - schedule.beta0) / 4.0
        b = schedule.beta0 / 2.0
        tau = (-b + math.sqrt(b * b + 4.0 * a * t)) / (2.0 * a) if a else t / b
    if tau > 1.0 + 1e-9:
        raise InvalidInputError(f"t={t} beyond the schedule's range")
    return min(max(tau, 0.0), 1.0)


def wrap_torus(x):
    """Shift each coordinate by multiples of 2 pi into [-pi, pi]."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def sample_forward(state, schedule, x0, tau, rng):
    """Exact draw of X_tau given X_0 = x0.

    For OU the conditional law is N(alpha x0, sigma^2 I); for the wrapped
    Brownian motion the unconstrained Gaussian step is wrapped onto the torus.
    ``x0`` may be a single point (d,) or a batch (N, d).
    """
    x0 = np.asarray(x0, dtype=float)
    if not state.contains(x0):
        raise DomainError("x0 outside the torus [-pi, pi]^d")
    alpha, sigma, _ = noise_at(schedule, tau)
    z = rng.standard_normal(x0.shape)
    x = alpha * x0 + sigma * z
    if state.process == TRUNCATED_BM:
        x = wrap_torus(x)
    return x

