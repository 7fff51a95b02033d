"""Sampling and exact log-densities through the probability-flow ODE.

The fitted model gives the relative score s~ = grad log(rho_t / pi) of
f = sum_k alpha_k phi_k. The probability flow runs in the forward process's
internal time t, where it is the same for both processes:

    dx/dt = -s~(x, t),    d(log rho)/dt = -lap f(x, t).

On the torus pi is uniform and the drift vanishes; for OU the drift -x cancels
the prior score -x. The divergence comes in closed form from the
eigenfunction Laplacians, so log-densities are exact up to ODE tolerance.
:func:`flow_rate` gives both rates; :func:`sample_pf_ode` and
:func:`log_density` integrate them between the internal times of tau = 1 and
tau = 0. The reverse SDE steps in normalized time tau with the forward drift
mu and g_tau^2: mu = 0, g^2 = d(sigma^2)/dtau for VE and mu = -(beta_tau/2) x,
g^2 = beta_tau for VP.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import OU, TRUNCATED_BM
from .errors import InvalidInputError
from .odeint import IntegratorConfig, integrate_batch
from .process import VE, noise_at, tau_at, wrap_torus
from .solver import _check_domain, alpha_at

PRIOR_UNIFORM = "uniform"
PRIOR_WRAPPED_NORMAL = "wrapped-normal"


def _drift_terms(schedule, tau):
    """(mu coefficient of x, g_tau^2 / 2) for the forward SDE in tau."""
    if schedule.kind == VE:
        log_r = math.log(schedule.sigma_max / schedule.sigma_min)
        half_g2 = schedule.sigma_min**2 * (schedule.sigma_max / schedule.sigma_min) ** (2 * tau) * log_r
        return 0.0, half_g2
    beta = schedule.beta_at(tau)
    return -beta / 2.0, beta / 2.0


def flow_rate(model, t, X):
    """Velocity and divergence of the probability flow at internal time t.

    Returns ``(-score, -laplacian)`` of the model at ``tau_at(schedule, t)``.
    In internal time the schedule factor dt/dtau cancels for both VE and VP,
    leaving a process-independent, well-scaled system; the integrator then
    adapts to the score dynamics instead of the exponential time
    reparameterization.
    """
    # single-precision trig: ~1e-6 evaluation error, far below the integrator
    # tolerances, at a large throughput gain
    alpha = alpha_at(model, tau_at(model.schedule, t))
    _, score, lap = model.basis.weighted_eval(X, alpha, dtype=np.float32)
    return -score, -lap


def _prior_draw(model, n, rng, prior):
    """Draws from the invariant measure (``uniform``: N(0, I) for OU) or, on the
    torus only, from the wrapped normal of the terminal noise level."""
    d = model.basis.dimension
    if prior not in (PRIOR_UNIFORM, PRIOR_WRAPPED_NORMAL):
        raise InvalidInputError(f"unknown prior {prior!r}")
    if model.process == OU:
        if prior == PRIOR_WRAPPED_NORMAL:
            raise InvalidInputError("the wrapped-normal prior needs a torus model")
        return rng.standard_normal((n, d))
    if prior == PRIOR_UNIFORM:
        return rng.uniform(-math.pi, math.pi, size=(n, d))
    sigma = model.schedule.sigma_max if model.schedule.kind == VE else 1.0
    return wrap_torus(sigma * rng.standard_normal((n, d)))


def sample_pf_ode(model, n, cfg=IntegratorConfig(), rng=None, prior=PRIOR_UNIFORM):
    """Draw n samples by integrating the flow from the prior at tau=1 to tau=0."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    rng = rng if rng is not None else np.random.default_rng()
    x1 = _prior_draw(model, n, rng, prior)
    t1 = noise_at(model.schedule, 1.0)[2]
    t0 = noise_at(model.schedule, 0.0)[2]
    x0 = integrate_batch(lambda t, Y: flow_rate(model, t, Y)[0], x1, t1, t0, cfg)
    if model.process == TRUNCATED_BM:
        x0 = wrap_torus(x0)
    return x0


def log_density(model, x0, cfg=IntegratorConfig()):
    """Exact model log-density at x0 via the augmented flow (tau: 0 -> 1).

    Along the flow, log rho_0(x_0) = log pi(x_1) + the integral of the flow
    divergence over internal time; the prior is uniform on the torus
    (log pi = -d log 2pi) or standard normal for OU. ``x0`` may be (d,) or
    (N, d).
    """
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    X = np.atleast_2d(x0)
    d = model.basis.dimension
    _check_domain(model, X)

    def f_aug(t, Y):
        dX, div = flow_rate(model, t, Y[:, :d])
        return np.concatenate([dX, div[:, None]], axis=1)

    # the log-accumulator needs a much tighter relative tolerance than the
    # positions: its error enters the density exponentially and accumulates
    # over every step, while position errors only shift the smooth flow
    rtol = np.full(d + 1, cfg.rtol)
    rtol[d] = cfg.rtol * 0.02
    atol = np.full(d + 1, cfg.atol)
    aug_cfg = IntegratorConfig(rtol=rtol, atol=atol, max_steps=cfg.max_steps)
    t0 = noise_at(model.schedule, 0.0)[2]
    t1 = noise_at(model.schedule, 1.0)[2]
    y0 = np.concatenate([X, np.zeros((X.shape[0], 1))], axis=1)
    y1 = integrate_batch(f_aug, y0, t0, t1, aug_cfg)
    x1, acc = y1[:, :d], y1[:, d]
    if model.process == TRUNCATED_BM:
        log_pi = np.full(X.shape[0], -d * math.log(2.0 * math.pi))
    else:
        log_pi = -0.5 * (x1 * x1).sum(axis=1) - 0.5 * d * math.log(2.0 * math.pi)
    out = log_pi + acc
    return float(out[0]) if single else out


def sample_reverse_sde(model, n, n_steps, rng=None, prior=PRIOR_UNIFORM):
    """Euler-Maruyama discretization of the time-reversed SDE, tau: 1 -> 0.

    Each step uses the flat-space reversal drift mu - g^2 grad log rho with
    the model score; torus states are wrapped after every step.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if n_steps < 10:
        raise InvalidInputError("n_steps must be >= 10")
    rng = rng if rng is not None else np.random.default_rng()
    d = model.basis.dimension
    X = _prior_draw(model, n, rng, prior)
    h = 1.0 / n_steps
    for i in range(n_steps):
        tau = 1.0 - i * h
        mu_coef, half_g2 = _drift_terms(model.schedule, tau)
        score = model.basis.weighted_eval(X, alpha_at(model, tau), dtype=np.float32)[1]
        if model.process == OU:
            score = score - X  # full score of rho_t, pi is standard normal
        drift = mu_coef * X - 2.0 * half_g2 * score
        X = X - h * drift + math.sqrt(2.0 * half_g2 * h) * rng.standard_normal((n, d))
        if model.process == TRUNCATED_BM:
            X = wrap_torus(X)
    return X
