"""The forward processes, the clocks that drive them and exact simulation.

The process alone owns the dynamics. After internal time t of its semigroup
e^{tL}, X_t given X_0 = x0 is N(alpha x0, sigma^2 I) (see :func:`transition`):

* wrapped Brownian motion on the torus: alpha = 1, sigma^2 = 2t, wrapped onto
  [-pi, pi]^d;
* Ornstein-Uhlenbeck: alpha = e^{-t}, sigma^2 = 1 - e^{-2t}.

A schedule is only a clock: it maps the normalized time tau in [0, 1] to t
(:func:`internal_time`, with rate :func:`time_rate`), and either schedule
drives either process.

* VE: t(tau) = sigma_tau^2 / 2 with sigma_tau = sigma_min (sigma_max/sigma_min)^tau.
* VP: t(tau) = beta0 tau / 2 + (beta1 - beta0) tau^2 / 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import OU, TRUNCATED_BM
from .errors import DomainError, InvalidInputError

VE = "VE"
VP = "VP"
# Distance beyond [-pi, pi] within which a torus point still counts as inside.
DOMAIN_TOL = 1e-12


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
        schedule = Schedule(kind=VE, sigma_min=float(sigma_min), sigma_max=float(sigma_max))
        # the rate 2 t(1) ln(sigma_max / sigma_min) is finite only where t(1) is
        if not math.isfinite(time_rate(schedule, 1.0)):
            raise InvalidInputError(
                "VE schedule needs a finite clock: t(1) = sigma_max^2 / 2 or its rate "
                f"overflows at sigma_min={sigma_min:g}, sigma_max={sigma_max:g}")
        return schedule

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


def _check_tau(tau):
    tau = float(tau)
    if not (0.0 <= tau <= 1.0) or not math.isfinite(tau):
        raise InvalidInputError(f"tau={tau} outside [0, 1]")
    return tau


def internal_time(schedule, tau):
    """The internal process time t(tau) of the schedule's clock."""
    tau = _check_tau(tau)
    if schedule.kind == VE:
        sigma = schedule.sigma_min * (schedule.sigma_max / schedule.sigma_min) ** tau
        return 0.5 * sigma * sigma
    return schedule.beta0 * tau / 2.0 + (schedule.beta1 - schedule.beta0) * tau * tau / 4.0


def time_rate(schedule, tau):
    """dt/dtau, the rate of the schedule's clock at tau: 2 t(tau) ln(sigma_max /
    sigma_min) for VE, beta0 / 2 + (beta1 - beta0) tau / 2 for VP."""
    tau = _check_tau(tau)
    if schedule.kind == VE:
        log_ratio = math.log(schedule.sigma_max / schedule.sigma_min)
        return 2.0 * internal_time(schedule, tau) * log_ratio
    return schedule.beta0 / 2.0 + (schedule.beta1 - schedule.beta0) * tau / 2.0


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


def transition(process, t):
    """Scaling alpha and noise level sigma of X_t | X_0 = x0 ~ N(alpha x0, sigma^2 I)
    after internal time t >= 0 (wrapped onto the torus for the Brownian motion)."""
    if process == TRUNCATED_BM:
        return 1.0, math.sqrt(2.0 * t)
    if process == OU:
        alpha = math.exp(-t)
        return alpha, math.sqrt(max(0.0, 1.0 - alpha * alpha))
    raise InvalidInputError(f"unknown process {process!r}")


def check_domain(process, x):
    """Raise DomainError naming the first row of x, (N, d) or (d,), with a
    non-finite coordinate or, on the torus, one beyond pi + ``DOMAIN_TOL``."""
    bound = math.pi + DOMAIN_TOL if process == TRUNCATED_BM else math.inf
    bad = np.nonzero(~np.all(np.abs(np.atleast_2d(x)) < bound, axis=1))[0]
    if bad.size:
        where = "[-pi, pi]^d" if process == TRUNCATED_BM else "R^d"
        raise DomainError(f"row {int(bad[0])} lies outside {where}")


def wrap_torus(x):
    """Shift each coordinate outside [-pi, pi] by multiples of 2 pi into it;
    coordinates inside come back unchanged, bit for bit."""
    x = np.array(x, dtype=float)
    out = ~(np.abs(x) <= np.pi)  # NaN and inf included, which stay NaN
    x[out] = np.mod(x[out] + np.pi, 2.0 * np.pi) - np.pi
    return x


def sample_forward(process, schedule, x0, tau, rng):
    """Exact draw of X_tau given X_0 = x0 (see :func:`transition`).

    ``x0`` may be a single point (d,) or a batch (N, d).
    """
    x0 = np.asarray(x0, dtype=float)
    check_domain(process, x0)
    alpha, sigma = transition(process, internal_time(schedule, tau))
    x = alpha * x0 + sigma * rng.standard_normal(x0.shape)
    if process == TRUNCATED_BM:
        x = wrap_torus(x)
    return x
