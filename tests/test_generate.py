"""Probability-flow sampling, exact log-densities, and the reverse SDE."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

import eigenscore as es
from eigenscore.generate import PRIOR_WRAPPED_NORMAL
from eigenscore.odeint import IntegratorConfig
from eigenscore.process import tau_at
from conftest import (
    fit_gaussian_ou,
    model_eval_batch,
    reference_log_density,
    torus_quad_1d,
    uniform_moments,
)


@pytest.fixture(scope="module")
def gaussian_model():
    # beta1 = 40 drives the terminal marginal within e^{-10} of the prior, so
    # log-density comparisons probe the flow rather than schedule truncation
    model, gm, schedule = fit_gaussian_ou(0.5, 0.25, n_tau=200,
                                          schedule=es.Schedule.vp(0.1, 40.0))
    return model, gm, schedule


@pytest.fixture(scope="module")
def gaussian_model_ve_clock():
    # the OU process driven by the VE clock, whose internal time runs to 1250
    return fit_gaussian_ou(0.5, 0.25, n_tau=200, schedule=es.Schedule.ve(0.01, 50.0))[0]


@pytest.fixture(scope="module")
def torus_model():
    basis = es.trig_basis_1d(10)
    table = es.product_table(basis)
    gm = es.GaussianMixture(weights=np.array([0.5, 0.5]),
                            means=np.array([[-1.2], [1.0]]),
                            variances=np.array([[0.09], [0.16]]))
    moments = es.analytic_moments(gm, basis)
    schedule = es.Schedule.ve(0.05, 20.0)
    model = es.presolve_grid(basis, table, moments, schedule, n_times=300)
    return model, gm, schedule


# ---------------------------------------------------------------------------
# Flow rate
# ---------------------------------------------------------------------------

def test_flow_field_divergence_finite_difference(torus_model):
    model, _, _ = torus_model
    X = np.linspace(-2, 2, 9)[:, None]
    tau = 0.4
    h = 1e-5
    # the flow's divergence is minus the Laplacian: the derivative of the score
    _, _, lap = model_eval_batch(model, X, tau)
    fd = (model_eval_batch(model, X + h, tau)[1][:, 0]
          - model_eval_batch(model, X - h, tau)[1][:, 0]) / (2 * h)
    np.testing.assert_allclose(lap, fd, rtol=1e-4, atol=1e-5)


def test_flow_field_rate_consistency(torus_model):
    # flow_rate is (-score, -laplacian) of the float32 kernel at tau_at(t)
    model, _, _ = torus_model
    X = np.linspace(-3, 3, 7)[:, None]
    t = es.internal_time(model.schedule, 0.3)
    vel, div = es.flow_rate(model, t, X)
    alpha = es.alpha_at(model, tau_at(model.schedule, t))
    score, lap = model.basis.weighted_eval(X, alpha)
    assert np.array_equal(vel, -score) and np.array_equal(div, -lap)


# ---------------------------------------------------------------------------
# Gaussian ground truth (OU)
# ---------------------------------------------------------------------------

def test_pf_ode_gaussian_samples(gaussian_model):
    """Flow from the standard normal prior reproduces N(0.5, 0.25)."""
    model, _, _ = gaussian_model
    n = 20_000
    x = es.sample_pf_ode(model, n, IntegratorConfig(rtol=1e-6, atol=1e-8),
                         rng=np.random.default_rng(0))
    assert x.mean() == pytest.approx(0.5, abs=5 * 0.5 / math.sqrt(n))
    assert x.var() == pytest.approx(0.25, rel=0.03)
    stat = kstest((x[:, 0] - 0.5) / 0.5, "norm")
    assert stat.pvalue > 0.01


def test_log_density_gaussian_exact(gaussian_model, gaussian_model_ve_clock):
    x = np.linspace(-1.5, 2.5, 21)[:, None]
    truth = -0.5 * (x[:, 0] - 0.5) ** 2 / 0.25 - 0.5 * math.log(2 * math.pi * 0.25)
    for model in (gaussian_model[0], gaussian_model_ve_clock):
        ld = es.log_density(model, x, IntegratorConfig(rtol=1e-8, atol=1e-10))
        np.testing.assert_allclose(ld, truth, atol=5e-3, err_msg=str(model.schedule))


def test_log_density_single_point(gaussian_model):
    model, _, _ = gaussian_model
    ld = es.log_density(model, np.array([0.5]))
    assert isinstance(ld, float)
    assert ld == pytest.approx(-0.5 * math.log(2 * math.pi * 0.25), abs=5e-3)


def test_reverse_sde_gaussian_moments(gaussian_model, gaussian_model_ve_clock):
    for model in (gaussian_model[0], gaussian_model_ve_clock):
        x = es.sample_reverse_sde(model, 20_000, 400, rng=np.random.default_rng(1))
        assert x.mean() == pytest.approx(0.5, abs=0.02), model.schedule
        assert x.var() == pytest.approx(0.25, rel=0.1), model.schedule


def test_log_density_matches_the_interpolation_free_flow():
    # the spline of 100 nodes against a solve at every tau of the flow
    basis = es.trig_basis_1d(25)
    table = es.product_table(basis)
    moments = es.analytic_moments(es.bart_simpson(), basis)
    model = es.presolve_grid(basis, table, moments, es.Schedule.ve(0.01, 50.0), n_times=100)
    x = np.linspace(-math.pi, math.pi, 41)[:, None]
    cfg = IntegratorConfig(rtol=1e-8, atol=1e-10)
    ld = es.log_density(model, x, cfg)
    ref = reference_log_density(model, table, moments, x, cfg)
    assert np.abs(ld - ref).max() <= 1e-4


# ---------------------------------------------------------------------------
# Torus ground truth (wrapped mixture)
# ---------------------------------------------------------------------------

def test_log_density_matches_wrapped_mixture(torus_model):
    model, gm, _ = torus_model
    x = np.linspace(-math.pi, math.pi, 41)[:, None]
    ld = es.log_density(model, x, IntegratorConfig(rtol=1e-6, atol=1e-8))
    truth = es.wrapped_mixture_pdf(gm, x)
    # frequency-10 truncation of a sharp mixture: compare densities in L1
    l1 = np.mean(np.abs(np.exp(ld) - truth)) * 2 * math.pi
    assert l1 < 0.1


def test_density_integrates_to_one(torus_model):
    model, _, _ = torus_model
    x, w = torus_quad_1d(512)
    ld = es.log_density(model, x[:, None], IntegratorConfig(rtol=1e-6, atol=1e-8))
    assert w @ np.exp(ld) == pytest.approx(1.0, abs=1e-3)


def test_pf_ode_torus_samples_in_domain(torus_model):
    model, gm, _ = torus_model
    x = es.sample_pf_ode(model, 4000, rng=np.random.default_rng(2))
    assert np.all(np.abs(x) <= math.pi)
    # two-component mixture: roughly half the mass on each side
    frac = (x[:, 0] > 0).mean()
    assert 0.42 < frac < 0.58


def test_pf_ode_wrapped_normal_prior(torus_model):
    model, _, _ = torus_model
    x = es.sample_pf_ode(model, 500, rng=np.random.default_rng(3),
                         prior=PRIOR_WRAPPED_NORMAL)
    assert np.all(np.abs(x) <= math.pi)
    with pytest.raises(es.InvalidInputError):
        es.sample_pf_ode(model, 500, prior="bogus")


def test_wrapped_normal_prior_follows_the_clock():
    # a model of the uniform law has zero coefficients, so its flow is still and
    # the samples are the prior draws: the wrapped normal that X_0 = 0 reaches
    # at tau = 1, whose mean cosine is e^{-t(1)}
    basis = es.trig_basis_1d(2)
    schedule = es.Schedule.vp(0.1, 4.0)
    model = es.presolve_grid(basis, es.product_table(basis), uniform_moments(basis), schedule,
                             n_times=2)
    x = es.sample_pf_ode(model, 40_000, rng=np.random.default_rng(6),
                         prior=PRIOR_WRAPPED_NORMAL)
    t1 = es.internal_time(schedule, 1.0)
    assert np.cos(x).mean() == pytest.approx(math.exp(-t1), abs=0.02)


def test_reverse_sde_torus_matches_pf_ode(torus_model):
    model, _, _ = torus_model
    rng = np.random.default_rng(4)
    a = es.sample_pf_ode(model, 2000, rng=rng)
    b = es.sample_reverse_sde(model, 2000, 600, rng=rng)
    # same model, same law: compare histograms coarsely
    edges = np.linspace(-math.pi, math.pi, 13)
    ha, _ = np.histogram(a[:, 0], bins=edges, density=True)
    hb, _ = np.histogram(b[:, 0], bins=edges, density=True)
    assert np.max(np.abs(ha - hb)) < 0.12


def test_log_density_domain_check(torus_model):
    model, _, _ = torus_model
    with pytest.raises(es.DomainError):
        es.log_density(model, np.array([[4.0]]))


def test_sampler_input_validation(torus_model):
    model, _, _ = torus_model
    with pytest.raises(es.InvalidInputError):
        es.sample_pf_ode(model, 0)
    with pytest.raises(es.InvalidInputError):
        es.sample_reverse_sde(model, 10, 5)


def test_log_density_rejects_zero_points(torus_model):
    model, _, _ = torus_model
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice" on the way
        with pytest.raises(es.InvalidInputError, match="at least one point"):
            es.log_density(model, np.empty((0, model.basis.dimension)))


@pytest.mark.parametrize("prior", ["bogus", PRIOR_WRAPPED_NORMAL])
@pytest.mark.parametrize("draw", [
    lambda model, prior: es.sample_pf_ode(model, 5, prior=prior),
    lambda model, prior: es.sample_reverse_sde(model, 5, 10, prior=prior),
], ids=["pf-ode", "reverse-sde"])
def test_ou_samplers_validate_the_prior(gaussian_model, draw, prior):
    # the OU prior is N(0, I), which the default "uniform" names; a torus-only
    # or unknown prior must not fall back to it silently
    with pytest.raises(es.InvalidInputError, match="prior"):
        draw(gaussian_model[0], prior)


def test_transport_pushes_data_to_prior(gaussian_model):
    """Forward flow applied to data samples lands on the OU prior N(0, 1)."""
    model, gm, _ = gaussian_model
    rng = np.random.default_rng(5)
    x0 = es.sample_gaussian_mixture(gm, 20_000, rng)
    t0 = es.internal_time(model.schedule, 0.0)
    t1 = es.internal_time(model.schedule, 1.0)
    x1 = es.integrate_batch(lambda t, Y: es.flow_rate(model, t, Y)[0],
                            x0, t0, t1, IntegratorConfig(rtol=1e-6, atol=1e-8))
    stat = kstest(x1[:, 0], "norm")
    assert stat.pvalue > 0.005
