"""Adaptive Runge-Kutta integrator: accuracy, batching, tolerances."""

import math
import re

import numpy as np
import pytest
from scipy.special import exp1

import eigenscore as es
from eigenscore.odeint import IntegratorConfig, integrate_batch


def test_linear_decay_against_closed_form():
    y0 = np.array([[1.0, 2.0], [3.0, -1.0]])
    y1 = integrate_batch(lambda t, y: -y, y0, 0.0, 2.0,
                         IntegratorConfig(rtol=1e-10, atol=1e-12))
    np.testing.assert_allclose(y1, y0 * np.exp(-2.0), rtol=1e-9)


def test_backward_integration():
    y0 = np.array([[1.0]])
    y1 = integrate_batch(lambda t, y: -y, y0, 2.0, 0.0,
                         IntegratorConfig(rtol=1e-10, atol=1e-12))
    np.testing.assert_allclose(y1, np.exp(2.0), rtol=1e-9)


def test_time_dependent_rhs():
    # y' = 2t y  =>  y(1) = y(0) e
    y1 = integrate_batch(lambda t, y: 2 * t * y, np.array([[1.0]]), 0.0, 1.0,
                         IntegratorConfig(rtol=1e-10, atol=1e-12))
    assert y1[0, 0] == pytest.approx(np.e, rel=1e-9)


def test_zero_span_returns_initial_state():
    y0 = np.array([[1.0, 2.0]])
    np.testing.assert_array_equal(integrate_batch(lambda t, y: -y, y0, 0.5, 0.5), y0)


def test_batch_rows_are_independent():
    """A stiff row must not be served looser because tame rows dilute the error."""
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10)
    rates = np.array([[0.1], [10.0]])
    y0 = np.ones((2, 1))

    def f(t, y):
        return -rates * y

    batch = integrate_batch(f, y0, 0.0, 1.0, cfg)
    np.testing.assert_allclose(batch[:, 0], np.exp(-rates[:, 0]), rtol=1e-6)
    # the stiff row integrated alone agrees with its batched value
    def f1(t, y):
        return -10.0 * y
    single = integrate_batch(f1, np.ones((1, 1)), 0.0, 1.0, cfg)
    assert abs(batch[1, 0] - single[0, 0]) < 1e-7


def test_array_tolerances():
    # loose position, tight accumulator: both components still accurate here
    cfg = IntegratorConfig(rtol=np.array([1e-3, 1e-9]), atol=np.array([1e-5, 1e-11]))
    y1 = integrate_batch(lambda t, y: -y, np.array([[1.0, 1.0]]), 0.0, 1.0, cfg)
    assert abs(y1[0, 1] - np.exp(-1)) < 1e-7


def test_max_steps_raises_with_state():
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14, max_steps=3)
    with pytest.raises(es.NonConvergenceError) as exc:
        integrate_batch(lambda t, y: np.cos(100 * t) * y, np.array([[1.0]]), 0.0, 10.0, cfg)
    assert exc.value.state is not None


def test_config_validation():
    with pytest.raises(es.InvalidInputError):
        IntegratorConfig(rtol=-1e-5)
    with pytest.raises(es.InvalidInputError):
        IntegratorConfig(atol=0.0)
    with pytest.raises(es.InvalidInputError):
        IntegratorConfig(max_steps=0)


@pytest.mark.parametrize("tolerances", [
    {"rtol": np.inf}, {"rtol": np.nan}, {"atol": np.inf}, {"atol": np.nan},
    {"rtol": [1e-3, np.nan]},
])
def test_config_rejects_non_finite_tolerances(tolerances):
    with pytest.raises(es.InvalidInputError, match="must be finite"):
        IntegratorConfig(**tolerances)


def test_tolerance_controls_error():
    def f(t, y):
        return np.stack([y[:, 1], -y[:, 0]], axis=1)  # harmonic oscillator

    y0 = np.array([[1.0, 0.0]])
    exact = np.array([np.cos(10.0), -np.sin(10.0)])
    loose = integrate_batch(f, y0, 0.0, 10.0, IntegratorConfig(rtol=1e-3, atol=1e-5))
    tight = integrate_batch(f, y0, 0.0, 10.0, IntegratorConfig(rtol=1e-10, atol=1e-12))
    assert np.max(np.abs(tight[0] - exact)) < 1e-8
    assert np.max(np.abs(tight[0] - exact)) < np.max(np.abs(loose[0] - exact))


@pytest.mark.parametrize("bad, t_bad", [
    pytest.param(np.nan, 0.0, id="nan"),
    pytest.param(np.inf, 0.0, id="inf"),
    pytest.param(np.nan, 0.5, id="nan-from-t-0.5"),
])
def test_non_finite_field_fails_fast(bad, t_bad):
    """A non-finite field raises at once, not after max_steps rejected steps."""
    times = []

    def f(t, y):
        times.append(t)
        return -y if t < t_bad else np.full_like(y, bad)

    y0 = np.array([[1.0, 2.0]])
    with pytest.raises(es.NonConvergenceError, match="non-finite right-hand side") as exc:
        integrate_batch(f, y0, 0.0, 1.0, IntegratorConfig(max_steps=100_000))
    first_bad = next(i for i, t in enumerate(times) if t >= t_bad)
    assert len(times) - first_bad <= 7
    t_last = float(re.search(r"t=(\S+)", str(exc.value)).group(1))
    assert t_last <= t_bad
    # the attached state is the last accepted one
    np.testing.assert_allclose(exc.value.state, y0 * np.exp(-t_last), rtol=1e-5)


def test_still_start_takes_a_hundredth_of_the_span():
    # the field is zero until t = 0.5 and y' = e^{-1/(t - 0.5)} y after (smooth),
    # so log y(1) = e^{-2}/2 - E1(2); with no scale at the start the first step
    # is span/100 (a first step of span/1e6 took 121 RHS evaluations)
    times = []

    def f(t, y):
        times.append(t)
        return (math.exp(-1.0 / (t - 0.5)) if t > 0.5 else 0.0) * y

    y1 = integrate_batch(f, np.array([[1.0]]), 0.0, 1.0, IntegratorConfig(rtol=1e-8, atol=1e-10))
    assert y1[0, 0] == pytest.approx(math.exp(0.5 * math.exp(-2.0) - exp1(2.0)), rel=1e-7)
    assert times[1] == pytest.approx(0.2 * 0.01, rel=1e-12)  # the second stage, t0 + h/5
    assert len(times) <= 110
