"""Sampling and exact log-densities through the probability-flow ODE.

The fitted model gives the relative score s~ = grad log(rho_t / pi) of
f = sum_k alpha_k phi_k. In the forward process's internal time t the
probability flow is the same for both processes:

    dx/dt = -s~(x, t),    d(log rho)/dt = -lap f(x, t).

On the torus pi is uniform and the drift vanishes; for OU the drift -x cancels
the prior score -x. The divergence comes in closed form from the
eigenfunction Laplacians, so log-densities are exact up to ODE tolerance.

Both flows run on the schedule's clock tau, where each rate picks up the
factor t'(tau) (:func:`flow_rate`): :func:`sample_pf_ode` integrates from
tau = 1 to 0 and :func:`log_density` from 0 to 1. In internal time the flow's
time scale shrinks in proportion to t, which the VE clock runs from 5e-5 up
to 1250. The step controller assumes a locally constant error constant, so
steps in t come out too long and are rejected. On the VE clock log t is
affine in tau, so tau steps follow the field's own scale, as in the time
variable of Karras et al. (NeurIPS 2022).

The reverse SDE takes even steps in tau, each of internal length h. With the
score frozen over a step, the linear part of the reversed process is solved
exactly (the exponential-integrator step of DEIS, Zhang & Chen, ICLR 2023):
X <- alpha X + g s~ + sigma Z with (alpha, sigma) = ``transition(process, h)``
and g = 2 sigma^2 / (1 + alpha), which is 2h on the torus and 2(1 - alpha) for
OU, whose reversed drift is -x + 2 s~.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import OU, TRUNCATED_BM
from .errors import InvalidInputError
from .odeint import IntegratorConfig, integrate_batch
from .process import check_domain, internal_time, sample_forward, time_rate, transition, wrap_torus
from .solver import alpha_at

PRIOR_UNIFORM = "uniform"
PRIOR_WRAPPED_NORMAL = "wrapped-normal"


def flow_rate(model, tau, X):
    """Velocity and divergence of the probability flow per unit tau.

    Returns ``-t'(tau) (score, laplacian)`` of the model at ``alpha_at(model,
    tau)``, from the flow kernel ``EigenBasis.weighted_eval``, with t'(tau)
    from :func:`~eigenscore.process.time_rate`. The flow runs on tau rather
    than internal time because the adaptive steps then follow the field's own
    scale (see the module docstring).
    """
    rate = time_rate(model.schedule, tau)
    score, lap = model.basis.weighted_eval(X, alpha_at(model, tau))
    return -rate * score, -rate * lap


def _prior_draw(model, n, rng, prior):
    """Draws from the invariant measure (``uniform``: N(0, I) for OU) or, on the
    torus only, from the wrapped normal that X_0 = 0 reaches at tau = 1."""
    d = model.basis.dimension
    if prior not in (PRIOR_UNIFORM, PRIOR_WRAPPED_NORMAL):
        raise InvalidInputError(f"unknown prior {prior!r}")
    if model.process == OU:
        if prior == PRIOR_WRAPPED_NORMAL:
            raise InvalidInputError("the wrapped-normal prior needs a torus model")
        return rng.standard_normal((n, d))
    if prior == PRIOR_UNIFORM:
        return rng.uniform(-math.pi, math.pi, size=(n, d))
    return sample_forward(model.process, model.schedule, np.zeros((n, d)), 1.0, rng)


def sample_pf_ode(model, n, cfg=IntegratorConfig(), rng=None, prior=PRIOR_UNIFORM):
    """Draw n samples by integrating the flow from the prior at tau=1 to tau=0."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    rng = rng if rng is not None else np.random.default_rng()
    x1 = _prior_draw(model, n, rng, prior)
    x0 = integrate_batch(lambda tau, Y: flow_rate(model, tau, Y)[0], x1, 1.0, 0.0, cfg)
    if model.process == TRUNCATED_BM:
        x0 = wrap_torus(x0)
    return x0


def log_density(model, x0, cfg=IntegratorConfig()):
    """Exact model log-density at x0 via the augmented flow (tau: 0 -> 1).

    Along the flow, log rho_0(x_0) = log pi(x_1) + the integral of the flow
    divergence over tau; the prior is uniform on the torus
    (log pi = -d log 2pi) or standard normal for OU. ``x0`` may be (d,) or
    (N, d).
    """
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    X = np.atleast_2d(x0)
    if len(X) < 1:
        raise InvalidInputError("log_density needs at least one point")
    d = model.basis.dimension
    check_domain(model.process, X)

    def f_aug(tau, Y):
        dX, div = flow_rate(model, tau, Y[:, :d])
        return np.concatenate([dX, div[:, None]], axis=1)

    # the log-accumulator needs a much tighter relative tolerance than the
    # positions: its error enters the density exponentially and accumulates
    # over every step, while position errors only shift the smooth flow
    rtol = np.full(d + 1, cfg.rtol)
    rtol[d] = cfg.rtol * 0.02
    atol = np.full(d + 1, cfg.atol)
    aug_cfg = IntegratorConfig(rtol=rtol, atol=atol, max_steps=cfg.max_steps)
    y0 = np.concatenate([X, np.zeros((X.shape[0], 1))], axis=1)
    y1 = integrate_batch(f_aug, y0, 0.0, 1.0, aug_cfg)
    x1, acc = y1[:, :d], y1[:, d]
    if model.process == TRUNCATED_BM:
        log_pi = np.full(X.shape[0], -d * math.log(2.0 * math.pi))
    else:
        log_pi = -0.5 * (x1 * x1).sum(axis=1) - 0.5 * d * math.log(2.0 * math.pi)
    out = log_pi + acc
    return float(out[0]) if single else out


def sample_reverse_sde(model, n, n_steps=1000, rng=None, prior=PRIOR_UNIFORM):
    """The time-reversed SDE from tau = 1 to 0 in ``n_steps`` even tau steps.

    Each step is exact for the linear part of the reversed process, with the
    model's relative score read at the step's larger tau (see the module
    docstring); torus states are wrapped after every step.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if n_steps < 10:
        raise InvalidInputError("n_steps must be >= 10")
    rng = rng if rng is not None else np.random.default_rng()
    d = model.basis.dimension
    X = _prior_draw(model, n, rng, prior)
    taus = np.linspace(1.0, 0.0, n_steps + 1)
    times = [internal_time(model.schedule, tau) for tau in taus]
    for i in range(n_steps):
        alpha, sigma = transition(model.process, times[i] - times[i + 1])
        score, _ = model.basis.weighted_eval(X, alpha_at(model, taus[i]))
        g = 2.0 * sigma * sigma / (1.0 + alpha)
        X = alpha * X + g * score + sigma * rng.standard_normal((n, d))
        if model.process == TRUNCATED_BM:
            X = wrap_torus(X)
    return X
