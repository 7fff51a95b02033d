"""Noise schedules, forward simulation, and the semigroup eigenrelation."""

import math

import numpy as np
import pytest

import eigenscore as es
from eigenscore.process import tau_at


def test_ve_schedule_noise_levels():
    s = es.Schedule.ve(0.01, 50.0)
    assert es.noise_at(s, 0.0)[1] == pytest.approx(0.01)
    assert es.noise_at(s, 1.0)[1] == pytest.approx(50.0)
    alpha, sigma, t = es.noise_at(s, 0.5)
    assert alpha == 1.0
    assert sigma == pytest.approx(math.sqrt(0.01 * 50.0))
    assert t == pytest.approx(0.5 * sigma**2)


def test_vp_schedule_internal_time():
    s = es.Schedule.vp(0.1, 20.0)
    alpha, sigma, t = es.noise_at(s, 1.0)
    assert t == pytest.approx(0.1 / 2 + (20.0 - 0.1) / 4)
    assert alpha == pytest.approx(math.exp(-t))
    assert sigma == pytest.approx(math.sqrt(1 - alpha**2))
    assert es.noise_at(s, 0.0)[2] == 0.0


@pytest.mark.parametrize("sched", [es.Schedule.ve(0.01, 50.0), es.Schedule.vp(0.1, 20.0)])
def test_tau_at_inverts_noise_at(sched):
    for tau in np.linspace(0, 1, 17):
        t = es.noise_at(sched, tau)[2]
        assert tau_at(sched, t) == pytest.approx(tau, abs=1e-12)
    assert es.noise_at(sched, tau_at(sched, 0.02))[2] == pytest.approx(0.02, rel=1e-12)


def test_tau_at_out_of_range():
    s = es.Schedule.vp(0.1, 20.0)
    with pytest.raises(es.InvalidInputError):
        tau_at(s, -1.0)
    with pytest.raises(es.InvalidInputError):
        tau_at(s, 100.0)


def test_schedule_validation_and_roundtrip():
    with pytest.raises(es.InvalidInputError):
        es.Schedule.ve(0.5, 0.1)
    with pytest.raises(es.InvalidInputError):
        es.Schedule.vp(-1.0, 2.0)
    for s in (es.Schedule.ve(0.2, 30.0), es.Schedule.vp(0.3, 10.0)):
        assert es.Schedule.from_dict(s.to_dict()) == s


@pytest.mark.parametrize("kind, args", [
    ("ve", (math.nan, 50.0)), ("ve", (0.01, math.nan)), ("ve", (0.01, math.inf)),
    ("vp", (math.nan, 20.0)), ("vp", (0.1, math.inf)),
])
def test_schedule_rejects_non_finite_parameters(kind, args):
    with pytest.raises(es.InvalidInputError, match="schedule needs"):
        getattr(es.Schedule, kind)(*args)


def test_wrap_torus():
    x = np.array([0.0, math.pi + 0.1, -math.pi - 0.1, 7.0, -7.0])
    w = es.wrap_torus(x)
    assert np.all(np.abs(w) <= math.pi)
    np.testing.assert_allclose(np.cos(w), np.cos(x), atol=1e-12)
    np.testing.assert_allclose(np.sin(w), np.sin(x), atol=1e-12)


def test_noise_at_rejects_bad_tau():
    s = es.Schedule.ve(0.01, 50.0)
    for tau in (-0.1, 1.1, float("nan")):
        with pytest.raises(es.InvalidInputError):
            es.noise_at(s, tau)


def test_sample_forward_ou_moments():
    state = es.ProcessState(process=es.OU, dimension=2)
    sched = es.Schedule.vp(0.1, 20.0)
    rng = np.random.default_rng(0)
    x0 = np.full((200_000, 2), 1.5)
    x = es.sample_forward(state, sched, x0, 0.5, rng)
    alpha, sigma, _ = es.noise_at(sched, 0.5)
    se_mean = sigma / math.sqrt(len(x))
    assert np.all(np.abs(x.mean(axis=0) - alpha * 1.5) < 5 * se_mean)
    assert np.all(np.abs(x.var(axis=0) - sigma**2) < 5 * sigma**2 * math.sqrt(2 / len(x)))


def test_sample_forward_torus_stays_in_domain():
    state = es.ProcessState(process=es.TRUNCATED_BM, dimension=1)
    sched = es.Schedule.ve(0.01, 50.0)
    rng = np.random.default_rng(1)
    x = es.sample_forward(state, sched, np.zeros((1000, 1)), 0.9, rng)
    assert np.all(np.abs(x) <= math.pi)


def test_sample_forward_rejects_out_of_domain():
    state = es.ProcessState(process=es.TRUNCATED_BM, dimension=1)
    sched = es.Schedule.ve(0.01, 50.0)
    with pytest.raises(es.DomainError):
        es.sample_forward(state, sched, np.array([[4.0]]), 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("process", [es.OU, es.TRUNCATED_BM])
def test_eigenrelation_monte_carlo(process):
    """E[phi_n(X_t)] = e^{lambda_n t} E[phi_n(X_0)] for simulated forward paths."""
    rng = np.random.default_rng(42)
    n_mc = 200_000
    if process == es.OU:
        basis = es.hermite_univariate_basis(1, 4)
        sched = es.Schedule.vp(0.1, 20.0)
        x0 = 0.3 + 0.5 * rng.standard_normal((n_mc, 1))
    else:
        basis = es.trig_basis_1d(4)
        sched = es.Schedule.ve(0.1, 3.0)
        x0 = es.wrap_torus(0.3 + 0.5 * rng.standard_normal((n_mc, 1)))
    state = es.ProcessState(process=process, dimension=1)
    tau = 0.5
    t = es.noise_at(sched, tau)[2]
    xt = es.sample_forward(state, sched, x0, tau, rng)
    v0 = basis.eval_values(x0)
    vt = basis.eval_values(xt)
    lam = basis.eigenvalues
    expect = np.exp(lam * t) * v0.mean(axis=0)
    got = vt.mean(axis=0)
    se = vt.std(axis=0) / math.sqrt(n_mc) + np.exp(lam * t) * v0.std(axis=0) / math.sqrt(n_mc)
    assert np.all(np.abs(got - expect) <= 5 * se + 1e-12)
