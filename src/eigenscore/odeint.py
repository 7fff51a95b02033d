"""Adaptive embedded Runge-Kutta 5(4) integration for batches of trajectories.

Uses the Dormand-Prince pair. All trajectories in a batch share one adaptive
step size; the error norm is the RMS of the componentwise scaled local error,
so the controller is deterministic for a fixed batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonConvergenceError

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: weights of the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 5.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances may be scalars or arrays broadcastable to the state shape
    (e.g. per-component tolerances for an augmented system)."""

    rtol: object = 1e-5
    atol: object = 1e-6
    max_steps: int = 100_000

    def __post_init__(self):
        rtol, atol = np.asarray(self.rtol), np.asarray(self.atol)
        if not (np.all((rtol >= 0) & (rtol < np.inf)) and np.all((atol > 0) & (atol < np.inf))):
            raise InvalidInputError("rtol must be finite and >= 0, atol finite and > 0")
        if self.max_steps < 1:
            raise InvalidInputError("max_steps must be >= 1")


def _error_norm(err, y_old, y_new, cfg):
    """Scaled error: max over batch rows of the per-row RMS.

    For 2D states, axis 0 indexes independent trajectories sharing the step;
    the max guarantees every trajectory meets the tolerance instead of
    letting a large batch dilute a single bad row.
    """
    scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    r = (err / scale) ** 2
    if r.ndim >= 2:
        return float(np.sqrt(r.reshape(r.shape[0], -1).mean(axis=1).max()))
    return float(np.sqrt(r.mean()))


def _non_finite(where, y):
    return NonConvergenceError(f"non-finite right-hand side {where}", state=y)


def integrate_batch(f, y0, t_from, t_to, cfg=IntegratorConfig()):
    """Integrate dy/dt = f(t, y) from t_from to t_to (either direction).

    ``y0`` is an arbitrary-shape array; ``f`` must return an array of the
    same shape. Raises :class:`NonConvergenceError` with the last accepted
    state attached when the step budget is exhausted, or as soon as ``f``
    returns a non-finite value (at the start, or as a non-finite error
    estimate of a step).
    """
    y = np.array(y0, dtype=float)
    t = float(t_from)
    t_end = float(t_to)
    if t == t_end:
        return y
    direction = 1.0 if t_end > t else -1.0
    span = abs(t_end - t)

    # initial step from the field magnitude at the start; a still field (the
    # flow at tau = 1, where alpha is zero) gives no scale, and a tiny first
    # step would spend many accepted steps growing 5x each through it
    f0 = f(t, y)
    if not np.all(np.isfinite(f0)):
        raise _non_finite(f"at t={t}", y)
    scale = cfg.atol + cfg.rtol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h = 1e-2 * span if d1 == 0 else min(span, max(1e-10 * span, 0.01 * d0 / d1 if d0 > 0 else 1e-4 * span))
    h *= direction

    k = [None] * 7
    k[0] = f0
    steps = 0
    while direction * (t_end - t) > 0:
        if steps >= cfg.max_steps:
            raise NonConvergenceError(
                f"integrator exceeded max_steps={cfg.max_steps} at t={t}", state=y
            )
        steps += 1
        if direction * (t + h - t_end) > 0:
            h = t_end - t
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_A[i]) if a != 0.0)
            k[i] = f(t + _C[i] * h, yi)
        y_new = y + h * sum(b * k[j] for j, b in enumerate(_B5) if b != 0.0)
        err = h * sum(e * k[j] for j, e in enumerate(_E) if e != 0.0)
        norm = _error_norm(err, y, y_new, cfg)
        if not math.isfinite(norm):
            raise _non_finite(f"in the step from t={t}", y)
        if norm <= 1.0:
            t += h
            y = y_new
            k[0] = k[6]  # FSAL
            factor = _MAX_FACTOR if norm == 0 else min(_MAX_FACTOR, _SAFETY * norm ** -0.2)
        else:
            # rejected: k[0] still holds f(t, y)
            factor = max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
        h *= factor
    return y
