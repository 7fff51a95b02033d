"""Eigenbasis construction, evaluation, and product expansions."""

import math
from fractions import Fraction

import numpy as np
import pytest

import eigenscore as es
from eigenscore.basis import (
    _half_lattice,
    hermite_eval,
)
from conftest import pair_expansion, torus_quad_1d


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
    orders = basis.functions.orders
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

def _disjoint(funcs, k, l):
    """Hermite functions k and l both non-constant and on different coordinates."""
    return bool(funcs.orders[k] and funcs.orders[l] and funcs.dims[k] != funcs.dims[l])


def _pointwise_product_identity(basis, table, X, atol):
    vals_b = basis.eval_values(X)
    vals_e = basis.eval_values(X, extended=True)
    funcs = basis.functions
    for k in range(len(funcs)):
        for l in range(k, len(funcs)):
            # a Hermite product on two coordinates leaves the univariate span
            if basis.process == es.OU and _disjoint(funcs, k, l):
                continue
            h, coefs = pair_expansion(table, k, l)
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


def test_hermite_product_table_matches_quadrature():
    # oracle: beta_h^{(k,l)} = E_pi[phi_k phi_l phi_h] via Gauss-Hermite, 0 where
    # the table stores no term
    basis = es.hermite_univariate_basis(1, 4)
    table = es.product_table(basis)
    nodes, weights = np.polynomial.hermite_e.hermegauss(60)
    weights = weights / math.sqrt(2 * math.pi)
    H = hermite_eval(8, nodes)
    for k in range(5):
        for l in range(5):
            h, coefs = pair_expansion(table, k, l)
            stored = dict(zip(basis.extended.orders[h].tolist(), coefs.tolist()))
            for order in range(9):
                beta = float((H[:, k] * H[:, l] * H[:, order]) @ weights)
                assert abs(stored.get(order, 0.0) - beta) < 1e-9


def _he_linearization(n):
    """Exact integers c[l][k][h] with He_k He_l = sum_h c[l][k][h] He_h, for
    k, l <= n, from the recurrences x He_k = He_{k+1} + k He_{k-1} and
    He_{l+1} = x He_l - l He_{l-1}: c[l+1][k] = c[l][k+1] + k c[l][k-1] - l c[l-1][k]."""
    width = 2 * n + 1
    levels = [[[int(h == k) for h in range(width)] for k in range(width)]]
    for l in range(n):
        prev, prev2 = levels[-1], levels[l - 1] if l else None
        levels.append([[prev[k + 1][h] + (k * prev[k - 1][h] if k else 0)
                        - (l * prev2[k][h] if l else 0) for h in range(width)]
                       for k in range(width - l - 1)])
    return levels


@pytest.mark.parametrize("d, n", [(1, 2), (1, 12), (1, 39), (1, 50), (2, 4), (3, 4)])
def test_hermite_product_table_is_exact(d, n):
    """Every stored term is a true nonzero term within 1e-14 relative, and no
    true term is missing: beta_h = c_h sqrt(h! / (k! l!)) in the
    normalization phi_n = He_n / sqrt(n!), with c_h exact."""
    basis = es.hermite_univariate_basis(d, n)
    table = es.product_table(basis)
    funcs, ext = basis.functions, basis.extended
    c = _he_linearization(n)
    expected = {}
    for k in range(len(funcs)):
        for l in range(k, len(funcs)):
            if _disjoint(funcs, k, l):
                continue
            ok, ol = int(funcs.orders[k]), int(funcs.orders[l])
            coord = funcs.dims[k] if ok else funcs.dims[l]
            for order, ch in enumerate(c[ol][ok]):
                if ch:
                    h = 0 if order == 0 else int(np.flatnonzero(
                        (ext.dims == coord) & (ext.orders == order))[0])
                    sq = Fraction(ch * ch * math.factorial(order),
                                  math.factorial(ok) * math.factorial(ol))
                    expected[k, l, h] = math.copysign(math.sqrt(sq), ch)
    got = dict(zip(zip(table.k.tolist(), table.l.tolist(), table.h.tolist()),
                   table.beta.tolist()))
    assert len(got) == len(table.beta)
    assert set(got) == set(expected)
    rel = max(abs(got[key] - v) / abs(v) for key, v in expected.items())
    assert rel < 1e-14


def test_hermite_cross_coordinate_pairs_are_gamma_zero():
    basis = es.hermite_univariate_basis(2, 2)
    table = es.product_table(basis)
    funcs = basis.functions
    stored = set(zip(table.k.tolist(), table.l.tolist()))
    for k in range(len(funcs)):
        for l in range(k, len(funcs)):
            assert ((k, l) in stored) == (not _disjoint(funcs, k, l))


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
    lie outside [-pi, pi]. Derivatives, which only the basis functions have,
    are compared per unit of frequency and of eigenvalue, so the bound is on
    the cos/sin themselves.
    """
    U = (basis.extended if extended else basis.functions).U
    rng = np.random.default_rng(23)
    X = rng.uniform(-2 * math.pi, 2 * math.pi, (300, basis.dimension))
    # the constant, then the cos and the sin of each frequency row
    freq = np.vstack([np.zeros((1, basis.dimension)), np.repeat(U, 2, axis=0)])
    lam = -(freq * freq).sum(axis=1)
    P = X @ freq.T
    is_sin = np.arange(len(freq)) % 2 == 0
    is_sin[0] = False
    vals = math.sqrt(2) * np.where(is_sin, np.sin(P), np.cos(P))
    vals[:, 0] = 1.0
    slope = math.sqrt(2) * np.where(is_sin, np.cos(P), -np.sin(P))  # d/d(phase)
    slope[:, 0] = 0.0
    np.testing.assert_allclose(basis.eval_values(X, extended=extended), vals, rtol=0, atol=1e-12)
    if extended:
        return
    v, g, lap = basis.eval_batch(X)
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


def _oracle(basis, X, alpha):
    """Score and Laplacian contracted from the float64 eval_batch."""
    _, grads, laps = basis.eval_batch(X)
    return grads[:, :, 1:] @ alpha, laps[:, 1:] @ alpha


def _assert_kernel_matches_eval_batch(basis, X, alpha):
    """weighted_eval against the eval_batch oracle: Hermite (float64) within
    1e-14 of each output's largest magnitude; trig (float32) within 1e-3 and
    1e-2 of sum |alpha| for score and Laplacian."""
    got, want = basis.weighted_eval(X, alpha), _oracle(basis, X, alpha)
    if basis.process == es.OU:
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-14 * np.abs(w).max())
        return
    scale = np.abs(alpha).sum()
    for g, w, bound in zip(got, want, (1e-3, 1e-2), strict=True):
        assert np.max(np.abs(g - w)) < bound * scale


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
    _assert_kernel_matches_eval_batch(basis, X, rng.normal(size=basis.n_active))


def test_weighted_eval_float32_path_close_to_float64():
    basis = es.trig_basis_nd(2, -25.0)
    rng = np.random.default_rng(6)
    X = rng.uniform(-math.pi, math.pi, (100, 2))
    alpha = rng.normal(size=basis.n_active)
    assert all(out.dtype == np.float64 for out in basis.weighted_eval(X, alpha))
    _assert_kernel_matches_eval_batch(basis, X, alpha)


def test_weighted_eval_float32_with_coefficients_below_its_normal_range():
    """Coefficients decayed as at large tau, down to 1e-60: the float32 kernel
    drops weights under tiny/eps, which must not move the outputs."""
    basis = es.trig_basis_nd(2, -125.0)
    rng = np.random.default_rng(8)
    X = rng.uniform(-math.pi, math.pi, (500, 2))
    alpha = rng.normal(size=basis.n_active) * np.exp(1.1 * basis.eigenvalues[1:])
    for got, want in zip(basis.weighted_eval(X, alpha), _oracle(basis, X, alpha), strict=True):
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
    """The row-blocked kernel against eval_batch at row counts around its block size."""
    rng = np.random.default_rng(7)
    alpha = rng.normal(size=basis.n_active)
    n = BLOCK_EDGES[edge](basis.functions.block_rows())
    X = rng.uniform(-math.pi, math.pi, (n, basis.dimension))
    _assert_kernel_matches_eval_batch(basis, X, alpha)


# Sum-factorized kernel: relative to each output's largest magnitude over the
# points, every output is within this bound of the eval_batch contraction
KERNEL_REL_TOL = 1e-5


def _assert_kernel_within_output_scale(basis, X, alpha, rows=None):
    """weighted_eval on X[:rows] against the eval_batch oracle, per output,
    within KERNEL_REL_TOL of that output's largest magnitude over all of X."""
    rows = len(X) if rows is None else rows
    want = _oracle(basis, X, alpha)
    got = basis.weighted_eval(X[:rows], alpha)
    for name, g, w in zip(("score", "laplacian"), got, want, strict=True):
        err = np.max(np.abs(g - w[:rows]))
        assert err < KERNEL_REL_TOL * np.max(np.abs(w)), (name, err, np.max(np.abs(w)))


@pytest.mark.parametrize("basis", [
    pytest.param(es.trig_basis_1d(25), id="trig-1d-25"),
    pytest.param(es.trig_basis_nd(2, -1.0), id="trig-2d-1"),
    pytest.param(es.trig_basis_nd(2, -125.0), id="trig-2d-125"),
    pytest.param(es.trig_basis_nd(3, -20.0), id="trig-3d-20"),
    pytest.param(es.trig_basis_nd(4, -3.0), id="trig-4d-3"),
])
def test_kernel_off_the_torus(basis):
    """Flow states leave the torus before they are wrapped: points with |x| up
    to 2 pi. trig-3d-20 chains one complex middle contraction over harmonics
    -4..4, trig-4d-3 two; trig-2d-1 has one-harmonic-wide ranges."""
    rng = np.random.default_rng(31)
    X = rng.uniform(-2 * math.pi, 2 * math.pi, (700, basis.dimension))
    _assert_kernel_within_output_scale(basis, X, rng.normal(size=basis.n_active))


@pytest.mark.parametrize("edge", list(BLOCK_EDGES))
@pytest.mark.parametrize("basis", [
    pytest.param(es.trig_basis_1d(25), id="trig-1d-25"),
    pytest.param(es.trig_basis_nd(2, -125.0), id="trig-2d-125"),
    pytest.param(es.trig_basis_nd(3, -20.0), id="trig-3d-20"),
])
def test_kernel_per_output_bound_at_block_edges(basis, edge):
    """At row counts around the block size, each output within KERNEL_REL_TOL
    of its largest magnitude over 3b + 5 points (the largest edge)."""
    rng = np.random.default_rng(9)
    alpha = rng.normal(size=basis.n_active)
    b = basis.functions.block_rows()
    X = rng.uniform(-2 * math.pi, 2 * math.pi, (3 * b + 5, basis.dimension))
    _assert_kernel_within_output_scale(basis, X, alpha, BLOCK_EDGES[edge](b))


def test_kernel_weights_in_1d_are_the_frequency_row_weights():
    """In 1D the harmonics are the frequency rows 1..K, so M is, row for row,
    sqrt2 (a_sin k, lam a_cos) for each cosine, then sqrt2 (-a_cos k, lam a_sin)
    for each sine, in float32: the score and Laplacian weights."""
    basis = es.trig_basis_1d(25)
    alpha = np.random.default_rng(12).normal(size=basis.n_active)
    k, lam = np.arange(1.0, 26.0), -np.arange(1.0, 26.0) ** 2
    a_cos, a_sin = alpha[0::2], alpha[1::2]
    W = np.concatenate([np.stack([a_sin * k, a_cos * lam], axis=1),
                        np.stack([-a_cos * k, a_sin * lam], axis=1)])
    M = basis.functions._layout.weights(alpha)
    assert M.dtype == np.float32
    np.testing.assert_array_equal(M, (math.sqrt(2) * W).astype(np.float32))


# ---------------------------------------------------------------------------
# Builders and serialization
# ---------------------------------------------------------------------------

def test_trig_nd_half_lattice_counts():
    basis = es.trig_basis_nd(2, -2.0)
    # |xi|^2 <= 2 canonical frequencies: (0,1),(1,-1),(1,0),(1,1) -> 4 pairs
    assert basis.n_active == 8
    np.testing.assert_array_equal(basis.functions.U, [[0, 1], [1, 0], [1, -1], [1, 1]])
    kinds = [kind for kind, _, _ in basis.functions.listing()]
    assert kinds == ["constant"] + ["trig-cos", "trig-sin"] * 4


def test_extended_contains_all_products():
    basis = es.trig_basis_nd(2, -8.0)
    table = es.product_table(basis)  # raises CapacityError if not closed
    assert 0 <= table.h.min() and table.h.max() < len(basis.extended)


def test_builder_validation():
    with pytest.raises(es.InvalidInputError):
        es.trig_basis_1d(0)
    with pytest.raises(es.InvalidInputError):
        es.trig_basis_nd(2, 1.0)
    with pytest.raises(es.InvalidInputError):
        es.hermite_univariate_basis(0, 3)
    # |xi|^2 >= 1 for every nonzero integer frequency, so no function would be active
    with pytest.raises(es.InvalidInputError, match="no nonzero frequency"):
        es.trig_basis_nd(2, -0.5)


def test_trig_1d_builder_is_the_nd_builder_in_one_dimension():
    for K in range(1, 51):
        one, nd = es.trig_basis_1d(K), es.trig_basis_nd(1, -K * K)
        for a, b in ((one.functions, nd.functions), (one.extended, nd.extended)):
            np.testing.assert_array_equal(a.U, b.U)
            np.testing.assert_array_equal(a.lam, b.lam)
        assert len(one.functions) == 2 * K + 1 and len(one.extended) == 4 * K + 1
        assert one.descriptor == {"family": "trig_1d", "max_frequency": K}


def _index_arrays(funcs):
    """The arrays that define a family: frequency rows, or coordinates and orders."""
    if hasattr(funcs, "U"):
        return funcs.U, funcs.lam
    return funcs.dims, funcs.orders, funcs.lam


@pytest.mark.parametrize("make", [
    lambda: es.trig_basis_1d(7),
    lambda: es.trig_basis_nd(2, -9.0),
    lambda: es.hermite_univariate_basis(3, 4),
])
def test_basis_serialization_roundtrip(make):
    basis = make()
    again = es.basis_from_dict(es.basis_to_dict(basis))
    for a, b in ((again.functions, basis.functions), (again.extended, basis.extended)):
        for x, y in zip(_index_arrays(a), _index_arrays(b), strict=True):
            np.testing.assert_array_equal(x, y)
        assert a.listing() == b.listing()
    assert again.process == basis.process


def _half_lattice_oracle(d, norm_sq_max):
    """Every integer point of the cube, kept if nonzero, within the bound and
    with its first nonzero coordinate positive, sorted by norm, then by the
    coordinates."""
    r = math.isqrt(int(norm_sq_max))
    points = set()
    for flat in range((2 * r + 1) ** d):
        u = tuple((flat // (2 * r + 1) ** j) % (2 * r + 1) - r for j in range(d))
        nonzero = [c for c in u if c]
        if nonzero and nonzero[0] > 0 and sum(c * c for c in u) <= norm_sq_max:
            points.add(u)
    return sorted(points, key=lambda u: (sum(c * c for c in u), u))


def test_builders_make_the_half_lattice_and_start_extended_with_the_basis():
    """``_half_lattice`` against the brute-force oracle for d = 1..4, and the
    extended family of every builder starting with its basis family, so that
    index k of the basis is index k of the extended basis."""
    for d, bounds in ((1, (1, 2, 25, 100.5)), (2, (1, 2, 8, 24.0, 125)),
                      (3, (1, 3, 6, 24)), (4, (1, 3, 12))):
        for bound in bounds:
            rows = _half_lattice(d, bound)
            assert rows.shape[1] == d
            assert [tuple(u) for u in rows.tolist()] == _half_lattice_oracle(d, bound)
    for basis in (es.trig_basis_1d(9), es.trig_basis_nd(2, -20.0), es.trig_basis_nd(3, -6.0),
                  es.hermite_univariate_basis(1, 5), es.hermite_univariate_basis(3, 4)):
        n = len(basis.functions)
        assert len(basis.extended) > n
        for x, y in zip(_index_arrays(basis.functions), _index_arrays(basis.extended),
                        strict=True):
            np.testing.assert_array_equal(x, y[:len(x)])
        assert basis.functions.listing() == basis.extended.listing()[:n]


def test_dimension_mismatch_rejected():
    basis = es.trig_basis_nd(2, -4.0)
    with pytest.raises(es.InvalidInputError):
        basis.eval_values(np.zeros((5, 3)))
