"""Reference targets: mixtures, wrapped densities, toy datasets, domain maps."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import eigenscore as es
from conftest import torus_quad_1d


def _gm(weights, means, variances):
    return es.GaussianMixture(weights=np.asarray(weights, dtype=float),
                              means=np.asarray(means, dtype=float),
                              variances=np.asarray(variances, dtype=float))


def test_mixture_validation():
    with pytest.raises(es.InvalidInputError):
        _gm([0.5, 0.6], [[0.0], [1.0]], [[1.0], [1.0]])  # weights not normalized
    with pytest.raises(es.InvalidInputError):
        _gm([1.0], [[0.0]], [[-1.0]])  # negative variance


def test_mixture_rejects_negative_weights():
    # the weights sum to 1, but a negative one makes no density and no sampler
    with pytest.raises(es.InvalidInputError, match="non-negative"):
        _gm([1.5, -0.5], [[0.0], [1.0]], [[1.0], [1.0]])


def test_bart_simpson_shape():
    gm = es.bart_simpson()
    assert gm.dimension == 1
    assert gm.weights.sum() == pytest.approx(1.0)
    assert len(gm.weights) == 6
    # half the mass in one broad component, half spread over narrow spikes
    assert np.isclose(gm.weights.max(), 0.5)


def test_mixture_logpdf_integrates_to_one():
    gm = es.bart_simpson()
    val, _ = quad(lambda x: math.exp(es.mixture_logpdf(gm, np.array([[x]]))[0]),
                  -10, 10, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_mixture_score_finite_difference():
    gm = _gm([0.3, 0.7], [[-1.0, 0.5], [1.2, -0.3]], [[0.5, 0.8], [0.4, 1.1]])
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, 2))
    s = es.mixture_score(gm, x)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (es.mixture_logpdf(gm, x + e) - es.mixture_logpdf(gm, x - e)) / (2 * h)
        np.testing.assert_allclose(s[:, i], fd, rtol=1e-5, atol=1e-6)


def test_mixture_marginal_under_schedules():
    gm = _gm([1.0], [[0.8]], [[0.25]])
    t = es.internal_time(es.Schedule.vp(0.1, 20.0), 0.4)
    m = es.mixture_marginal(gm, es.OU, t)
    assert m.means[0, 0] == pytest.approx(math.exp(-t) * 0.8)
    assert m.variances[0, 0] == pytest.approx(math.exp(-2 * t) * 0.25 + 1 - math.exp(-2 * t))
    t = es.internal_time(es.Schedule.ve(0.1, 5.0), 0.4)
    mve = es.mixture_marginal(gm, es.TRUNCATED_BM, t)
    assert mve.means[0, 0] == pytest.approx(0.8)
    assert mve.variances[0, 0] == pytest.approx(0.25 + 2 * t)


def test_sample_gaussian_mixture_moments():
    gm = _gm([0.4, 0.6], [[-1.0], [2.0]], [[0.09], [0.25]])
    rng = np.random.default_rng(1)
    n = 200_000
    x = es.sample_gaussian_mixture(gm, n, rng)
    true_mean = 0.4 * -1.0 + 0.6 * 2.0
    true_var = 0.4 * (0.09 + 1.0) + 0.6 * (0.25 + 4.0) - true_mean**2
    assert x.mean() == pytest.approx(true_mean, abs=5 * math.sqrt(true_var / n))
    assert x.var() == pytest.approx(true_var, rel=0.02)


@pytest.mark.parametrize("n", [0, -1])
def test_sample_gaussian_mixture_rejects_empty_draws(n):
    with pytest.raises(es.InvalidInputError, match="n must be >= 1"):
        es.sample_gaussian_mixture(es.bart_simpson(), n, np.random.default_rng(0))


def test_wrapped_mixture_pdf_integrates_to_one():
    gm = _gm([0.5, 0.5], [[-2.5], [1.0]], [[0.3], [2.0]])
    x, w = torus_quad_1d(8192)
    pdf, _ = es.wrapped_mixture_pdf_and_score(gm, x[:, None])
    assert w @ pdf == pytest.approx(1.0, abs=1e-10)


def test_wrapped_mixture_matches_histogram():
    gm = _gm([1.0], [[0.7]], [[1.5]])
    rng = np.random.default_rng(2)
    n = 500_000
    samples = es.wrap_torus(es.sample_gaussian_mixture(gm, n, rng))[:, 0]
    edges = np.linspace(-math.pi, math.pi, 41)
    hist, _ = np.histogram(samples, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    pdf = es.wrapped_mixture_pdf(gm, centers[:, None])
    assert np.max(np.abs(hist - pdf)) < 0.01


def test_wrapped_score_finite_difference():
    gm = _gm([0.6, 0.4], [[0.3], [-1.7]], [[0.2], [0.9]])
    x = np.linspace(-3, 3, 25)[:, None]
    pdf, score = es.wrapped_mixture_pdf_and_score(gm, x)
    h = 1e-6
    pp = es.wrapped_mixture_pdf(gm, x + h)
    pm = es.wrapped_mixture_pdf(gm, x - h)
    fd = (np.log(pp) - np.log(pm)) / (2 * h)
    np.testing.assert_allclose(score[:, 0], fd, rtol=1e-4, atol=1e-5)


def test_wrapped_pdf_is_periodic():
    gm = _gm([1.0], [[2.0]], [[0.5]])
    x = np.linspace(-math.pi, math.pi, 17)[:, None]
    np.testing.assert_allclose(es.wrapped_mixture_pdf(gm, x),
                               es.wrapped_mixture_pdf(gm, x + 2 * math.pi),
                               rtol=1e-10)


def test_analytic_reference_relative_score():
    gm = _gm([1.0], [[0.5]], [[0.25]])
    sched = es.Schedule.vp(0.1, 20.0)
    ref = es.AnalyticReference(gm, sched, es.OU)
    tau = 0.3
    alpha, sigma = es.transition(es.OU, es.internal_time(sched, tau))
    m_t, v_t = alpha * 0.5, alpha**2 * 0.25 + sigma**2
    x = np.linspace(-2, 2, 9)[:, None]
    rel = ref.relative_score(x, tau)
    truth = -(x - m_t) / v_t + x
    np.testing.assert_allclose(rel, truth, atol=1e-10)
    # pdf matches the Gaussian marginal
    pdf = ref.pdf(x, tau)
    truth_pdf = np.exp(-0.5 * (x[:, 0] - m_t) ** 2 / v_t) / math.sqrt(2 * math.pi * v_t)
    np.testing.assert_allclose(pdf, truth_pdf, rtol=1e-10)


def test_domain_map_roundtrip():
    dm = es.DomainMap(scale=np.array([0.5, 2.0]), shift=np.array([1.0, -0.5]))
    x = np.random.default_rng(3).normal(size=(10, 2))
    np.testing.assert_allclose(dm.inverse(dm.forward(x)), x, atol=1e-12)
    assert es.DomainMap.identity(2).is_identity
    again = es.DomainMap.from_dict(dm.to_dict())
    np.testing.assert_allclose(again.scale, dm.scale)
    np.testing.assert_allclose(again.shift, dm.shift)


def test_rescale_to_torus():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(500, 2)) * np.array([3.0, 0.5]) + np.array([10.0, -2.0])
    ds = es.rescale_to_torus(pts)
    assert np.all(np.abs(ds.points) <= math.pi * (1 - 0.049))
    np.testing.assert_allclose(ds.domain_map.inverse(ds.points), pts, atol=1e-10)


@pytest.mark.parametrize("name", ["pinwheel", "checkerboard", "two_moons", "rings", "swiss_roll"])
def test_toy2d_in_domain_and_deterministic(name):
    ds = es.toy2d(name, 500, np.random.default_rng(5))
    assert ds.points.shape == (500, 2)
    assert np.all(np.abs(ds.points) <= math.pi)
    ds2 = es.toy2d(name, 500, np.random.default_rng(5))
    np.testing.assert_array_equal(ds.points, ds2.points)


def test_toy2d_unknown_name():
    with pytest.raises(es.InvalidInputError):
        es.toy2d("nope", 10, np.random.default_rng(0))
