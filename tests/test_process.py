"""Noise schedules, forward simulation, and the semigroup eigenrelation."""

import math

import numpy as np
import pytest

import eigenscore as es
from eigenscore.process import check_domain, tau_at


def test_ve_schedule_noise_levels():
    # on the torus the VE clock's sigma_tau is the transition's noise level
    s = es.Schedule.ve(0.01, 50.0)

    def noise(tau):
        return es.transition(es.TRUNCATED_BM, es.internal_time(s, tau))

    assert noise(0.0)[1] == pytest.approx(0.01)
    assert noise(1.0)[1] == pytest.approx(50.0)
    alpha, sigma = noise(0.5)
    assert alpha == 1.0
    assert sigma == pytest.approx(math.sqrt(0.01 * 50.0))
    assert es.internal_time(s, 0.5) == pytest.approx(0.5 * sigma**2)


def test_vp_schedule_internal_time():
    s = es.Schedule.vp(0.1, 20.0)
    t = es.internal_time(s, 1.0)
    alpha, sigma = es.transition(es.OU, t)
    assert t == pytest.approx(0.1 / 2 + (20.0 - 0.1) / 4)
    assert alpha == pytest.approx(math.exp(-t))
    assert sigma == pytest.approx(math.sqrt(1 - alpha**2))
    assert es.internal_time(s, 0.0) == 0.0


def test_transition_rejects_unknown_process():
    with pytest.raises(es.InvalidInputError, match="unknown process"):
        es.transition("BM", 0.5)


@pytest.mark.parametrize("sched", [es.Schedule.ve(0.01, 50.0), es.Schedule.vp(0.1, 20.0)])
def test_tau_at_inverts_internal_time(sched):
    for tau in np.linspace(0, 1, 17):
        t = es.internal_time(sched, tau)
        assert tau_at(sched, t) == pytest.approx(tau, abs=1e-12)
    assert es.internal_time(sched, tau_at(sched, 0.02)) == pytest.approx(0.02, rel=1e-12)


@pytest.mark.parametrize("sched", [es.Schedule.ve(0.01, 50.0), es.Schedule.vp(0.1, 20.0)])
def test_time_rate_is_the_clock_derivative(sched):
    h = 1e-6
    for tau in (0.05, 0.3, 0.5, 0.7, 0.95):
        fd = (es.internal_time(sched, tau + h) - es.internal_time(sched, tau - h)) / (2 * h)
        assert es.time_rate(sched, tau) == pytest.approx(fd, rel=1e-7)


def test_time_rate_at_the_endpoints():
    ve, vp = es.Schedule.ve(0.01, 50.0), es.Schedule.vp(0.1, 20.0)
    log_ratio = math.log(50.0 / 0.01)
    assert es.time_rate(ve, 0.0) == pytest.approx(0.01**2 * log_ratio, rel=1e-12)
    assert es.time_rate(ve, 1.0) == pytest.approx(50.0**2 * log_ratio, rel=1e-12)
    assert es.time_rate(vp, 0.0) == pytest.approx(0.1 / 2, rel=1e-12)
    assert es.time_rate(vp, 1.0) == pytest.approx(20.0 / 2, rel=1e-12)
    for sched in (ve, vp):
        for tau in (-1e-9, 1.0 + 1e-9, math.nan):
            with pytest.raises(es.InvalidInputError):
                es.time_rate(sched, tau)


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


def test_internal_time_rejects_bad_tau():
    s = es.Schedule.ve(0.01, 50.0)
    for tau in (-0.1, 1.1, float("nan")):
        with pytest.raises(es.InvalidInputError):
            es.internal_time(s, tau)


def test_sample_forward_ou_moments():
    sched = es.Schedule.vp(0.1, 20.0)
    rng = np.random.default_rng(0)
    x0 = np.full((200_000, 2), 1.5)
    x = es.sample_forward(es.OU, sched, x0, 0.5, rng)
    alpha, sigma = es.transition(es.OU, es.internal_time(sched, 0.5))
    se_mean = sigma / math.sqrt(len(x))
    assert np.all(np.abs(x.mean(axis=0) - alpha * 1.5) < 5 * se_mean)
    assert np.all(np.abs(x.var(axis=0) - sigma**2) < 5 * sigma**2 * math.sqrt(2 / len(x)))


def test_sample_forward_torus_stays_in_domain():
    sched = es.Schedule.ve(0.01, 50.0)
    rng = np.random.default_rng(1)
    x = es.sample_forward(es.TRUNCATED_BM, sched, np.zeros((1000, 1)), 0.9, rng)
    assert np.all(np.abs(x) <= math.pi)


def test_sample_forward_rejects_out_of_domain():
    sched = es.Schedule.ve(0.01, 50.0)
    with pytest.raises(es.DomainError):
        es.sample_forward(es.TRUNCATED_BM, sched, np.array([[4.0]]), 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("process, rows", [
    (es.TRUNCATED_BM, [[0.0, math.pi + 1e-13], [0.0, math.pi + 1e-11], [4.0, 0.0]]),
    (es.OU, [[1e300, -5.0], [np.nan, 0.0], [np.inf, 0.0]]),
])
def test_check_domain_names_the_first_row_outside(process, rows):
    # one tolerance, 1e-12 beyond pi, for every torus check; non-finite rows fail everywhere
    with pytest.raises(es.DomainError, match="row 1 "):
        check_domain(process, np.array(rows))
    check_domain(process, np.array(rows[0]))


@pytest.mark.parametrize("process, sched", [
    pytest.param(es.OU, es.Schedule.vp(0.1, 20.0), id=es.OU),
    pytest.param(es.TRUNCATED_BM, es.Schedule.ve(0.1, 3.0), id=es.TRUNCATED_BM),
    pytest.param(es.OU, es.Schedule.ve(0.1, 3.0), id=f"{es.OU}-VE"),
    pytest.param(es.TRUNCATED_BM, es.Schedule.vp(0.1, 20.0), id=f"{es.TRUNCATED_BM}-VP"),
])
def test_eigenrelation_monte_carlo(process, sched):
    """E[phi_n(X_t)] = e^{lambda_n t} E[phi_n(X_0)] for simulated forward paths,
    whichever clock drives the process."""
    rng = np.random.default_rng(42)
    n_mc = 200_000
    if process == es.OU:
        basis = es.hermite_univariate_basis(1, 4)
        x0 = 0.3 + 0.5 * rng.standard_normal((n_mc, 1))
    else:
        basis = es.trig_basis_1d(4)
        x0 = es.wrap_torus(0.3 + 0.5 * rng.standard_normal((n_mc, 1)))
    tau = 0.5
    t = es.internal_time(sched, tau)
    xt = es.sample_forward(process, sched, x0, tau, rng)
    v0 = basis.eval_values(x0)
    vt = basis.eval_values(xt)
    lam = basis.eigenvalues
    expect = np.exp(lam * t) * v0.mean(axis=0)
    got = vt.mean(axis=0)
    se = vt.std(axis=0) / math.sqrt(n_mc) + np.exp(lam * t) * v0.std(axis=0) / math.sqrt(n_mc)
    assert np.all(np.abs(got - expect) <= 5 * se + 1e-12)
