"""Eigenbasis construction, evaluation, and product expansions."""

import math

import numpy as np
import pytest

import eigenscore as es
from eigenscore.basis import (
    KIND_CONSTANT,
    KIND_COS,
    KIND_SIN,
    _trig_1d_functions,
    hermite_eval,
    hermite_order_expansion,
)
from conftest import torus_quad_1d


# ---------------------------------------------------------------------------
# Hermite recurrence against an independent oracle
# ---------------------------------------------------------------------------

def test_hermite_matches_numpy_hermite_e():
    # oracle: numpy's HermiteE evaluation with explicit 1/sqrt(n!) scaling
    x = np.linspace(-4, 4, 41)
    vals = hermite_eval(10, x)
    for n in range(11):
        he = np.polynomial.hermite_e.HermiteE.basis(n)(x)
        np.testing.assert_allclose(vals[:, n], he / math.sqrt(math.factorial(n)),
                                   rtol=1e-12, atol=1e-12)


def test_hermite_grad_and_laplacian_finite_difference():
    # the Hermite evaluator's closed-form derivatives against finite
    # differences of the independent recurrence, orders 0..8
    basis = es.hermite_univariate_basis(1, 8)
    orders = [f.index[0] for f in basis.functions]
    x = np.linspace(-3, 3, 25)
    _, grads, laps = basis.eval_batch(x[:, None])
    h = 1e-6
    g_fd = (hermite_eval(8, x + h) - hermite_eval(8, x - h)) / (2 * h)
    np.testing.assert_allclose(grads[:, 0, :], g_fd[:, orders], rtol=2e-5, atol=2e-5)
    h = 1e-4  # second differences need a larger step to beat roundoff
    l_fd = (hermite_eval(8, x + h) - 2 * hermite_eval(8, x) + hermite_eval(8, x - h)) / h**2
    np.testing.assert_allclose(laps, l_fd[:, orders], rtol=1e-5, atol=1e-4)


def test_hermite_eval_rejects_bad_input():
    with pytest.raises(es.InvalidInputError):
        hermite_eval(-1, 0.0)
    with pytest.raises(es.InvalidInputError):
        hermite_eval(3, np.array([0.0, np.nan]))


# ---------------------------------------------------------------------------
# Orthonormality
# ---------------------------------------------------------------------------

def test_trig_orthonormality_quadrature():
    basis = es.trig_basis_1d(12)
    x, w = torus_quad_1d()
    V = basis.eval_values(x[:, None])
    G = (V * w[:, None]).T @ V / (2 * math.pi)
    np.testing.assert_allclose(G, np.eye(len(basis.functions)), atol=1e-10)


def test_hermite_orthonormality_gauss_hermite():
    basis = es.hermite_univariate_basis(1, 12)
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    weights = weights / math.sqrt(2 * math.pi)
    V = basis.eval_values(nodes[:, None])
    G = (V * weights[:, None]).T @ V
    np.testing.assert_allclose(G, np.eye(len(basis.functions)), atol=1e-9)


# ---------------------------------------------------------------------------
# Product expansions
# ---------------------------------------------------------------------------

def _disjoint(fk, fl):
    """Both functions non-constant and acting on no common coordinate."""
    return (any(fk.index) and any(fl.index)
            and not any(a and b for a, b in zip(fk.index, fl.index)))


def _pointwise_product_identity(basis, table, X, atol):
    vals_b = basis.eval_values(X)
    vals_e = basis.eval_values(X, extended=True)
    funcs = basis.functions
    for k in range(len(funcs)):
        for l in range(k, len(funcs)):
            # a Hermite product on two coordinates leaves the univariate span
            if basis.process == es.OU and _disjoint(funcs[k], funcs[l]):
                continue
            h, coefs = table.get(k, l)
            lhs = vals_b[:, k] * vals_b[:, l]
            rhs = vals_e[:, h] @ coefs
            np.testing.assert_allclose(lhs, rhs, atol=atol)


def test_trig_product_identity():
    basis = es.trig_basis_1d(8)
    table = es.product_table(basis)
    X = np.random.default_rng(0).uniform(-math.pi, math.pi, (50, 1))
    _pointwise_product_identity(basis, table, X, 1e-12)


def test_trig_product_identity_2d():
    basis = es.trig_basis_nd(2, -8.0)
    table = es.product_table(basis)
    X = np.random.default_rng(1).uniform(-math.pi, math.pi, (50, 2))
    _pointwise_product_identity(basis, table, X, 1e-12)


def test_trig_product_identity_3d():
    # sign canonicalization on a later coordinate, e.g. (0, 1, -1)
    basis = es.trig_basis_nd(3, -6.0)
    table = es.product_table(basis)
    X = np.random.default_rng(7).uniform(-math.pi, math.pi, (50, 3))
    _pointwise_product_identity(basis, table, X, 1e-12)


def test_hermite_product_identity():
    basis = es.hermite_univariate_basis(1, 6)
    table = es.product_table(basis)
    X = np.random.default_rng(2).normal(size=(50, 1)) * 2
    _pointwise_product_identity(basis, table, X, 1e-10)


def test_hermite_order_expansion_matches_quadrature():
    # oracle: beta_h^{(k,l)} = E_pi[phi_k phi_l phi_h] via Gauss-Hermite
    B = hermite_order_expansion(4, 8)
    nodes, weights = np.polynomial.hermite_e.hermegauss(60)
    weights = weights / math.sqrt(2 * math.pi)
    H = hermite_eval(8, nodes)
    for k in range(5):
        for l in range(5):
            for h in range(9):
                beta = float((H[:, k] * H[:, l] * H[:, h]) @ weights)
                assert abs(B[k, l, h] - beta) < 1e-9


def test_hermite_cross_coordinate_pairs_are_gamma_zero():
    basis = es.hermite_univariate_basis(2, 2)
    table = es.product_table(basis)
    funcs = basis.functions
    stored = set(zip(table.k.tolist(), table.l.tolist()))
    for k in range(len(funcs)):
        for l in range(k, len(funcs)):
            assert ((k, l) in stored) == (not _disjoint(funcs[k], funcs[l]))


def test_product_table_capacity_error():
    with pytest.raises(es.CapacityError):
        hermite_order_expansion(4, 6)


def test_trig_product_table_capacity_error():
    # cos(4x)^2 needs frequency 8, beyond the extended set's 6
    basis = es.EigenBasis(process=es.TRUNCATED_BM, dimension=1,
                          functions=_trig_1d_functions(4),
                          extended=_trig_1d_functions(6))
    with pytest.raises(es.CapacityError):
        es.product_table(basis)


# ---------------------------------------------------------------------------
# eval_batch derivative checks, weighted_eval consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: es.trig_basis_1d(6),
    lambda: es.trig_basis_nd(2, -10.0),
    lambda: es.trig_basis_nd(3, -6.0),
    lambda: es.hermite_univariate_basis(2, 4),
])
def test_eval_batch_finite_difference(make):
    basis = make()
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, (10, basis.dimension))
    vals, grads, laps = basis.eval_batch(X)
    h = 1e-5
    lap_fd = np.zeros_like(laps)
    for i in range(basis.dimension):
        e = np.zeros(basis.dimension)
        e[i] = h
        vp, vm = basis.eval_values(X + e), basis.eval_values(X - e)
        np.testing.assert_allclose(grads[:, i, :], (vp - vm) / (2 * h),
                                   rtol=1e-4, atol=1e-5)
        lap_fd += (vp - 2 * vals + vm) / h**2
    np.testing.assert_allclose(laps, lap_fd, rtol=1e-3, atol=1e-3)


@pytest.mark.parametrize("basis", [
    pytest.param(es.trig_basis_1d(50), id="trig-1d-50"),
    pytest.param(es.trig_basis_nd(2, -125.0), id="trig-2d-125"),
    pytest.param(es.trig_basis_nd(3, -6.0), id="trig-3d-6"),
])
@pytest.mark.parametrize("extended", [False, True])
def test_trig_lattice_evaluation_matches_direct_cos_sin(basis, extended):
    """Angle-addition values and derivatives against np.cos/np.sin of the phases.

    The extended trig_basis_1d(50) reaches frequency 100; half the points
    lie outside [-pi, pi]. Gradients and Laplacians are compared per unit of
    frequency and of eigenvalue, so the bound is on the cos/sin themselves.
    """
    funcs = basis.extended if extended else basis.functions
    rng = np.random.default_rng(23)
    X = rng.uniform(-2 * math.pi, 2 * math.pi, (300, basis.dimension))
    freq = np.array([f.index for f in funcs], dtype=float)
    lam = np.array([f.eigenvalue for f in funcs])
    P = X @ freq.T
    is_sin = np.array([f.kind == KIND_SIN for f in funcs])
    vals = math.sqrt(2) * np.where(is_sin, np.sin(P), np.cos(P))
    vals[:, 0] = 1.0
    slope = math.sqrt(2) * np.where(is_sin, np.cos(P), -np.sin(P))  # d/d(phase)
    slope[:, 0] = 0.0
    np.testing.assert_allclose(basis.eval_values(X, extended=extended), vals, rtol=0, atol=1e-12)
    v, g, lap = basis.eval_batch(X, extended=extended)
    np.testing.assert_allclose(v, vals, rtol=0, atol=1e-12)
    unit = np.maximum(np.abs(freq).max(axis=1), 1.0)
    np.testing.assert_allclose(g / unit, slope[:, None, :] * freq.T / unit, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lap / np.maximum(-lam, 1.0), lam * vals / np.maximum(-lam, 1.0),
                               rtol=0, atol=1e-12)


def test_trig_laplacian_is_eigenvalue_times_value():
    basis = es.trig_basis_nd(2, -5.0)
    X = np.random.default_rng(4).uniform(-math.pi, math.pi, (20, 2))
    vals, _, laps = basis.eval_batch(X)
    lam = basis.eigenvalues
    np.testing.assert_allclose(laps, lam * vals, atol=1e-12)


def _assert_float64_matches_eval_batch(basis, X, alpha):
    """Each float64 weighted_eval output within 1e-14 of the largest magnitude
    of its eval_batch oracle."""
    vals, grads, laps = basis.eval_batch(X)
    oracle = vals[:, 1:] @ alpha, grads[:, :, 1:] @ alpha, laps[:, 1:] @ alpha
    for got, want in zip(basis.weighted_eval(X, alpha), oracle):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("make", [
    lambda: es.trig_basis_1d(6),
    lambda: es.trig_basis_nd(2, -10.0),
    lambda: es.trig_basis_nd(3, -6.0),
    lambda: es.hermite_univariate_basis(2, 4),
])
def test_weighted_eval_matches_eval_batch(make):
    basis = make()
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, (15, basis.dimension))
    _assert_float64_matches_eval_batch(basis, X, rng.normal(size=basis.n_active))


def test_weighted_eval_float32_path_close_to_float64():
    basis = es.trig_basis_nd(2, -25.0)
    rng = np.random.default_rng(6)
    X = rng.uniform(-math.pi, math.pi, (100, 2))
    alpha = rng.normal(size=basis.n_active)
    e64, s64, l64 = basis.weighted_eval(X, alpha)
    e32, s32, l32 = basis.weighted_eval(X, alpha, dtype=np.float32)
    scale = np.abs(alpha).sum()
    assert np.max(np.abs(e64 - e32)) < 1e-4 * scale
    assert np.max(np.abs(s64 - s32)) < 1e-3 * scale
    assert np.max(np.abs(l64 - l32)) < 1e-2 * scale


def test_weighted_eval_float32_with_coefficients_below_its_normal_range():
    """Coefficients decayed as at large tau, down to 1e-60: the float32 kernel
    drops weights under tiny/eps, which must not move the outputs."""
    basis = es.trig_basis_nd(2, -125.0)
    rng = np.random.default_rng(8)
    X = rng.uniform(-math.pi, math.pi, (500, 2))
    alpha = rng.normal(size=basis.n_active) * np.exp(1.1 * basis.eigenvalues[1:])
    vals, grads, laps = basis.eval_batch(X)
    exact = vals[:, 1:] @ alpha, grads[:, :, 1:] @ alpha, laps[:, 1:] @ alpha
    single = basis.weighted_eval(X, alpha, dtype=np.float32)
    for got, want in zip(single, exact):
        assert np.max(np.abs(got - want)) < 1e-5 * np.max(np.abs(want))


# row counts around a block size b
BLOCK_EDGES = {"1": lambda b: 1, "b-1": lambda b: b - 1, "b": lambda b: b,
               "b+1": lambda b: b + 1, "3b+5": lambda b: 3 * b + 5}


@pytest.mark.parametrize("edge", list(BLOCK_EDGES))
@pytest.mark.parametrize("basis", [
    pytest.param(es.trig_basis_1d(25), id="trig-1d-25"),
    pytest.param(es.trig_basis_nd(2, -125.0), id="trig-2d-125"),
    pytest.param(es.trig_basis_nd(3, -6.0), id="trig-3d-6"),
])
def test_weighted_eval_at_block_edges(basis, edge):
    """The row-blocked kernel at row counts around each dtype's block size:
    float64 against eval_batch, float32 against float64."""
    rng = np.random.default_rng(7)
    alpha = rng.normal(size=basis.n_active)
    n = BLOCK_EDGES[edge](basis._family.block_rows(np.float64))
    _assert_float64_matches_eval_batch(
        basis, rng.uniform(-math.pi, math.pi, (n, basis.dimension)), alpha)
    n = BLOCK_EDGES[edge](basis._family.block_rows(np.float32))
    X = rng.uniform(-math.pi, math.pi, (n, basis.dimension))
    e64, s64, l64 = basis.weighted_eval(X, alpha)
    e32, s32, l32 = basis.weighted_eval(X, alpha, dtype=np.float32)
    scale = np.abs(alpha).sum()
    assert np.max(np.abs(e64 - e32)) < 1e-4 * scale
    assert np.max(np.abs(s64 - s32)) < 1e-3 * scale
    assert np.max(np.abs(l64 - l32)) < 1e-2 * scale


# ---------------------------------------------------------------------------
# Builders and serialization
# ---------------------------------------------------------------------------

def test_trig_nd_half_lattice_counts():
    basis = es.trig_basis_nd(2, -2.0)
    # |xi|^2 <= 2 canonical frequencies: (0,1),(1,-1),(1,0),(1,1) -> 4 pairs
    assert basis.n_active == 8
    kinds = {f.kind for f in basis.functions}
    assert kinds == {KIND_CONSTANT, KIND_COS, KIND_SIN}


def test_extended_contains_all_products():
    basis = es.trig_basis_nd(2, -8.0)
    table = es.product_table(basis)  # raises CapacityError if not closed
    assert table.n_extended == len(basis.extended)


def test_builder_validation():
    with pytest.raises(es.InvalidInputError):
        es.trig_basis_1d(0)
    with pytest.raises(es.InvalidInputError):
        es.trig_basis_nd(2, 1.0)
    with pytest.raises(es.InvalidInputError):
        es.hermite_univariate_basis(0, 3)


@pytest.mark.parametrize("make", [
    lambda: es.trig_basis_1d(7),
    lambda: es.trig_basis_nd(2, -9.0),
    lambda: es.hermite_univariate_basis(3, 4),
])
def test_basis_serialization_roundtrip(make):
    basis = make()
    again = es.basis_from_dict(es.basis_to_dict(basis))
    assert again.functions == basis.functions
    assert again.extended == basis.extended
    assert again.process == basis.process


def test_constant_must_come_first():
    funcs = _trig_1d_functions(3)
    with pytest.raises(es.InvalidInputError):
        es.EigenBasis(process=es.TRUNCATED_BM, dimension=1,
                      functions=funcs[1:] + funcs[:1], extended=_trig_1d_functions(6))


def test_extended_must_start_with_the_basis_functions():
    funcs = _trig_1d_functions(3)
    ext = _trig_1d_functions(6)
    with pytest.raises(es.InvalidInputError):
        es.EigenBasis(process=es.TRUNCATED_BM, dimension=1,
                      functions=funcs, extended=ext[:1] + ext[2:] + ext[1:2])


@pytest.mark.parametrize("layout", ["cos-without-sin", "sin-before-cos", "pair-of-two-rows"])
def test_trig_basis_must_pair_each_cosine_with_its_sine(layout):
    """Function 2r + 1 is the cosine and 2r + 2 the sine of one frequency; any
    other trig order fails when the basis is built."""
    funcs = _trig_1d_functions(3)  # 1, cos x, sin x, cos 2x, sin 2x, cos 3x, sin 3x
    funcs = {"cos-without-sin": funcs[:-1],
             "sin-before-cos": funcs[:3] + (funcs[4], funcs[3]) + funcs[5:],
             "pair-of-two-rows": funcs[:3] + (funcs[3], funcs[6], funcs[5], funcs[4])}[layout]
    ext = funcs + _trig_1d_functions(6)[7:]
    with pytest.raises(es.InvalidInputError, match="pairs"):
        es.EigenBasis(process=es.TRUNCATED_BM, dimension=1, functions=funcs, extended=ext)


def test_dimension_mismatch_rejected():
    basis = es.trig_basis_nd(2, -4.0)
    with pytest.raises(es.InvalidInputError):
        basis.eval_values(np.zeros((5, 3)))
