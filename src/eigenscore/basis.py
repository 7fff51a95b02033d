"""Eigenbases of the forward-process generator.

Two families are supported:

* Hermite functions ``phi_n = He_n / sqrt(n!)`` for the Ornstein-Uhlenbeck
  process on R^d (univariate in each coordinate), with eigenvalue ``-n``.
* Trigonometric functions ``sqrt(2) cos(xi.x)`` / ``sqrt(2) sin(xi.x)`` for
  Brownian motion wrapped onto the torus [-pi, pi]^d, with eigenvalue
  ``-|xi|^2``.

Bases carry an *extended* list, a superset large enough that any product of
two basis members expands exactly, ``phi_k phi_l = sum_h beta_h phi_h``.
:func:`product_table` builds that expansion, vectorised over all pairs
``k <= l``, as one sparse COO tensor of ``(k, l, h, beta)`` entries (a
:class:`ProductTable`); the solver assembles every ``A_t`` from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, InvalidInputError

SQRT2 = math.sqrt(2.0)

OU = "OU"
TRUNCATED_BM = "truncatedBM"

KIND_CONSTANT = "constant"
KIND_HERMITE = "hermite"
KIND_COS = "trig-cos"
KIND_SIN = "trig-sin"


@dataclass(frozen=True)
class EigenFunction:
    """One eigenfunction: a multi-index, its family, and its eigenvalue."""

    index: tuple
    kind: str
    eigenvalue: float

    @property
    def dimension(self):
        return len(self.index)


# ---------------------------------------------------------------------------
# Hermite recurrences
# ---------------------------------------------------------------------------

def hermite_eval(max_order, x):
    """Normalized probabilist Hermite values phi_0(x) .. phi_max_order(x).

    Uses the three-term recurrence
    ``phi_{l+1} = (x phi_l - sqrt(l) phi_{l-1}) / sqrt(l+1)``
    so no monomial coefficients are ever formed. `x` may be a scalar or an
    ndarray; the order axis is appended last.
    """
    if max_order < 0:
        raise InvalidInputError("max_order must be >= 0")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("hermite_eval requires finite x")
    out = np.empty(x.shape + (max_order + 1,))
    out[..., 0] = 1.0
    if max_order >= 1:
        out[..., 1] = x
    for l in range(1, max_order):
        out[..., l + 1] = (x * out[..., l] - math.sqrt(l) * out[..., l - 1]) / math.sqrt(l + 1)
    return out


def hermite_order_expansion(basis_max, extended_max):
    """Expansion coefficients of phi_k * phi_l over orders 0..extended_max.

    Returns an array ``B`` with ``B[k, l, h] = beta_h^{(k, l)}`` for
    ``k, l <= basis_max``, built by the order-raising dynamic program
    ``beta^{(k, l+1)} = sqrt((k+1)/(l+1)) beta^{(k+1, l)}
    + sqrt(k/(l+1)) beta^{(k-1, l)} - sqrt(l/(l+1)) beta^{(k, l-1)}``
    started from the one-hot vectors ``beta^{(k, 0)}``.
    """
    if extended_max < 2 * basis_max:
        raise CapacityError(
            f"extended_max={extended_max} cannot hold products of order "
            f"{basis_max} functions; need at least {2 * basis_max}"
        )
    n_ext = extended_max + 1
    # levels[l] holds beta^{(k, l)} for k = 0..(2*basis_max - l)
    prev2 = None
    prev = np.eye(2 * basis_max + 1, n_ext)
    levels = [prev]
    for l in range(basis_max):
        kmax = 2 * basis_max - (l + 1)
        cur = np.zeros((kmax + 1, n_ext))
        k = np.arange(kmax + 1, dtype=float)[:, None]
        cur += np.sqrt((k + 1.0) / (l + 1.0)) * prev[1 : kmax + 2]
        cur[1:] += np.sqrt(k[1:] / (l + 1.0)) * prev[0:kmax]
        if l >= 1:
            cur -= math.sqrt(l / (l + 1.0)) * prev2[: kmax + 1]
        prev2, prev = prev, cur
        levels.append(cur)
    B = np.zeros((basis_max + 1, basis_max + 1, n_ext))
    for l in range(basis_max + 1):
        B[:, l, :] = levels[l][: basis_max + 1]
    return B


# ---------------------------------------------------------------------------
# Evaluators, one per family
# ---------------------------------------------------------------------------
#
# Each evaluator holds one ordered function list whose entry 0 is the constant
# and evaluates it at checked points X (N, d): ``values`` (N, n),
# ``derivatives`` (values, gradients (N, d, n), Laplacians (N, n)), and
# ``weighted``, the energy, score and Laplacian of f = sum_k alpha_k phi_k
# over entries 1.. without forming the gradient tensor (trig runs it in
# ``dtype``, Hermite always in float64). Trig gets cos/sin of the integer
# frequencies by angle addition (``_cos_sin``), except the float32 flow
# kernel, whose SIMD np.cos/np.sin beat the complex products. The trig
# ``weighted`` walks the rows in blocks whose cos/sin values take
# ``KERNEL_BLOCK_BYTES`` and gets all d + 2 outputs of a block from one
# product with a weight matrix built once per alpha, so no (N, n_freq)
# temporary is formed. The budget comes from a sweep on a 2-vCPU Xeon
# (CHANGES.md): smaller blocks pay per-block overhead, and at twice the
# budget a block's temporaries leave the cache and the 400-function kernel
# slows by a quarter or more.

KERNEL_BLOCK_BYTES = 256 * 1024


def block_rows(row_bytes, budget):
    """Rows per block of a row-blocked walk: as many as fit in ``budget``
    bytes at ``row_bytes`` per row, and at least one."""
    return max(1, budget // row_bytes)


class _TrigFamily:
    """The constant, then one sqrt2 cos / sqrt2 sin pair per frequency row.

    Function 2r + 1 is sqrt2 cos(U[r].x) and function 2r + 2 is
    sqrt2 sin(U[r].x), the column order of ``_cos_sin`` shifted by the
    constant, so values, slopes and weights are reshapes of it.
    """

    def __init__(self, funcs, dimension):
        cos, sin = funcs[1::2], funcs[2::2]
        if len(cos) != len(sin) or any(
                c.kind != KIND_COS or s.kind != KIND_SIN or c.index != s.index
                for c, s in zip(cos, sin)):
            raise InvalidInputError("trig functions must follow the constant as "
                                    "(cos, sin) pairs of one frequency each")
        self.U = np.array([f.index for f in cos], dtype=float).reshape(len(cos), dimension)
        self.lam = np.array([f.eigenvalue for f in funcs])
        self.kmax = int(np.abs(self.U).max(initial=0))
        # column of z_j^{U[r, j]} among the powers z_j^-kmax .. z_j^kmax
        self.power_col = self.U.astype(int) + self.kmax

    def _cos_sin(self, X):
        """cos and sin of X @ U.T in float64, interleaved: (N, 2 len(U)) with
        the cos of row r in column 2r and its sin in column 2r + 1.

        The frequencies are integer, so e^{i u.x} = prod_j z_j^{u_j} with
        z_j = e^{i x_j}: d complex exponentials per point, the powers up to
        ``kmax`` by repeated multiplication, negative ones as conjugates.
        """
        n, d = X.shape
        z = np.exp(1j * X)[:, :, None]
        pos = np.cumprod(np.broadcast_to(z, (n, d, self.kmax)), axis=2)
        powers = np.concatenate([np.conj(pos[:, :, ::-1]), np.ones((n, d, 1)), pos], axis=2)
        E = np.take(powers[:, 0], self.power_col[:, 0], axis=1)  # C-contiguous, unlike [:, 0, cols]
        for j in range(1, d):
            E *= np.take(powers[:, j], self.power_col[:, j], axis=1)
        return E.view(np.float64)

    def _values(self, CS):
        # column-major, so that the per-function sums of sample_moments are pairwise
        vals = np.empty((CS.shape[1] + 1, len(CS)))
        vals[0] = 1.0
        vals[1:] = CS.T
        vals[1:] *= SQRT2
        return vals.T

    def values(self, X):
        return self._values(self._cos_sin(X))

    def derivatives(self, X):
        CS = self._cos_sin(X)
        vals = self._values(CS)
        N, (n, d) = len(CS), self.U.shape
        # d/d(phase) of each pair: (-sqrt2 sin, sqrt2 cos)
        slope = (CS.reshape(N, n, 2)[:, :, ::-1] * [-SQRT2, SQRT2]).reshape(N, 2 * n)
        grads = np.zeros((N, d, 2 * n + 1))
        grads[:, :, 1:] = slope[:, None, :] * np.repeat(self.U.T, 2, axis=1)
        return vals, grads, self.lam * vals

    def block_rows(self, dtype):
        """Rows per block of ``weighted``: 2 len(U) cos/sin values of dtype a row."""
        return block_rows(2 * len(self.U) * np.dtype(dtype).itemsize, KERNEL_BLOCK_BYTES)

    def _weights(self, alpha, interleaved):
        """(2 len(U), d + 2) weights taking cos/sin of the frequency rows to
        energy, score and Laplacian: sqrt2 times the coefficients of alpha,
        of (a_sin U, -a_cos U), and of lam alpha. Rows are every cosine then
        every sine, or interleaved as in ``_cos_sin``."""
        n, d = self.U.shape
        a = alpha.reshape(n, 2)  # (cos, sin) coefficients of each frequency row
        W = np.empty((n, 2, d + 2))
        W[:, :, 0] = a
        W[:, 0, 1:-1] = a[:, 1:] * self.U
        W[:, 1, 1:-1] = -a[:, :1] * self.U
        W[:, :, -1] = (alpha * self.lam[1:]).reshape(n, 2)
        if not interleaved:
            W = W.transpose(1, 0, 2)
        return SQRT2 * W.reshape(2 * n, d + 2)

    def weighted(self, X, alpha, dtype):
        dtype = np.dtype(np.float64 if dtype is None else dtype)
        exact = dtype == np.float64
        N, d = X.shape
        n = len(self.U)
        W = self._weights(alpha, interleaved=exact).astype(dtype, copy=False)
        # At large tau alpha decays below dtype's normal range, and subnormal
        # operands put the product on the FPU's slow path (5x at 2000 rows).
        # A weight of at least tiny/eps keeps its product normal for every
        # cos/sin of at least eps; the smaller ones move no output by more
        # than 2 len(U) tiny/eps.
        info = np.finfo(dtype)
        W[np.abs(W) < info.tiny / info.eps] = 0.0
        out = np.empty((N, d + 2), dtype)
        b = self.block_rows(dtype)
        if not exact:
            phase = np.empty((min(b, N), n), dtype)
            CS = np.empty((min(b, N), 2 * n), dtype)
        for s in range(0, N, b):
            rows = X[s:s + b]
            if exact:
                cs = self._cos_sin(rows)
            else:
                r = len(rows)
                p, cs = phase[:r], CS[:r]
                np.matmul(rows, self.U.T, out=p)
                np.cos(p, out=cs[:, :n])
                np.sin(p, out=cs[:, n:])
            np.matmul(cs, W, out=out[s:s + b])
        return out[:, 0].astype(float), out[:, 1:-1].astype(float), out[:, -1].astype(float)


class _HermiteFamily:
    """Univariate Hermite functions, each of one coordinate and one order.

    The constant is order 0 (on coordinate 0), so it needs no special case:
    ``phi_n' = sqrt(n) phi_{n-1}`` and ``phi_n'' = sqrt(n(n-1)) phi_{n-2}``
    vanish there.
    """

    def __init__(self, funcs, dimension):
        index = np.array([f.index for f in funcs])
        n = len(funcs)
        self.dims = np.argmax(index != 0, axis=1)
        self.orders = index[np.arange(n), self.dims]
        self.max_order = int(self.orders.max())
        self.axis = np.zeros((n, dimension))  # one-hot coordinate of each function
        self.axis[np.arange(n), self.dims] = self.orders > 0

    def values(self, X):
        return hermite_eval(self.max_order, X)[:, self.dims, self.orders]

    def _terms(self, X):
        """Values and first and second derivatives along each function's coordinate."""
        H = hermite_eval(self.max_order, X)  # (N, d, max_order + 1)
        k = self.orders
        return (H[:, self.dims, k],
                np.sqrt(k) * H[:, self.dims, np.maximum(k - 1, 0)],
                np.sqrt(k * (k - 1)) * H[:, self.dims, np.maximum(k - 2, 0)])

    def derivatives(self, X):
        vals, d1, d2 = self._terms(X)
        return vals, d1[:, None, :] * self.axis.T, d2

    def weighted(self, X, alpha, dtype):
        vals, d1, d2 = self._terms(X)
        return vals[:, 1:] @ alpha, (d1[:, 1:] * alpha) @ self.axis[1:], d2[:, 1:] @ alpha


# ---------------------------------------------------------------------------
# EigenBasis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenBasis:
    """Ordered eigenfunctions plus the extended superset closing products.

    ``extended`` starts with ``functions`` in their order, so index k of the
    basis is index k of the extended basis.
    """

    process: str
    dimension: int
    functions: tuple
    extended: tuple
    descriptor: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        keys = [(f.kind, f.index) for f in self.functions]
        if len(set(keys)) != len(keys):
            raise InvalidInputError("duplicate eigenfunctions in basis")
        for funcs in (self.functions, self.extended):
            if not funcs or funcs[0].kind != KIND_CONSTANT:
                raise InvalidInputError("function 0 of a basis must be the constant")
        if [(f.kind, f.index) for f in self.extended[:len(keys)]] != keys:
            raise InvalidInputError("the extended basis must start with the basis functions")
        # one evaluator per function list; building it checks the family's layout
        family = _TrigFamily if self.process == TRUNCATED_BM else _HermiteFamily
        object.__setattr__(self, "_family", family(self.functions, self.dimension))
        object.__setattr__(self, "_extended_family", family(self.extended, self.dimension))

    @property
    def n_active(self):
        """Number of non-constant basis functions (the solve dimension)."""
        return len(self.functions) - 1

    @cached_property
    def eigenvalues(self):
        return np.array([f.eigenvalue for f in self.functions])

    @cached_property
    def extended_eigenvalues(self):
        return np.array([f.eigenvalue for f in self.extended])

    # -- evaluation ---------------------------------------------------------

    def eval_batch(self, X, extended=False):
        """Values, gradients and Laplacians at points X (N x d).

        Returns ``(values (N,n), gradients (N,d,n), laplacians (N,n))`` over
        ``functions`` (or ``extended``).
        """
        family = self._extended_family if extended else self._family
        return family.derivatives(self._check_points(X))

    def eval_values(self, X, extended=False):
        """Values only (used for moment estimation over the extended set)."""
        family = self._extended_family if extended else self._family
        return family.values(self._check_points(X))

    def weighted_eval(self, X, alpha, dtype=None):
        """Energy, score and Laplacian of ``f = sum_k alpha_k phi_k``.

        ``alpha`` runs over the active (non-constant) basis functions.
        Returns ``(energy (N,), score (N,d), laplacian (N,))`` without
        materializing the full gradient tensor. With ``dtype=np.float32``
        the trig cos/sin and the weight product run in single precision
        (SIMD np.cos/np.sin, two to three times as fast as the float64 path
        at 400 functions) — appropriate inside ODE integration where tolerances
        dwarf the ~1e-6 evaluation error. One call evaluates every row,
        block by block.
        """
        X = self._check_points(X)
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape != (self.n_active,):
            raise InvalidInputError(
                f"alpha has length {alpha.shape}, expected ({self.n_active},)"
            )
        return self._family.weighted(X, alpha, dtype)

    def _check_points(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[-1] != self.dimension:
            raise InvalidInputError(
                f"points have dimension {X.shape[-1]}, basis expects {self.dimension}"
            )
        if not np.all(np.isfinite(X)):
            raise InvalidInputError("evaluation points must be finite")
        return X


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _trig_fn(freq, kind):
    lam = -float(sum(c * c for c in freq))
    return EigenFunction(index=tuple(freq), kind=kind, eigenvalue=lam)


def constant_function(dimension):
    return EigenFunction(index=(0,) * dimension, kind=KIND_CONSTANT, eigenvalue=0.0)


def _trig_1d_functions(max_frequency):
    funcs = [constant_function(1)]
    for k in range(1, max_frequency + 1):
        funcs.append(_trig_fn((k,), KIND_COS))
        funcs.append(_trig_fn((k,), KIND_SIN))
    return tuple(funcs)


def trig_basis_1d(max_frequency):
    """Torus basis {1, sqrt2 cos(kx), sqrt2 sin(kx) : k <= max_frequency}."""
    if max_frequency < 1:
        raise InvalidInputError("max_frequency must be >= 1")
    return EigenBasis(
        process=TRUNCATED_BM,
        dimension=1,
        functions=_trig_1d_functions(max_frequency),
        extended=_trig_1d_functions(2 * max_frequency),
        descriptor={"family": "trig_1d", "max_frequency": max_frequency},
    )


def _half_lattice(d, norm_sq_max):
    """Canonical half-lattice frequencies with |xi|^2 <= norm_sq_max.

    The first nonzero coordinate is positive, removing the cos(x) = cos(-x)
    redundancy; sorted by |xi|^2 then lexicographically.
    """
    r = int(math.isqrt(int(norm_sq_max)))
    grids = np.meshgrid(*([np.arange(-r, r + 1)] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    nsq = (pts * pts).sum(axis=1)
    pts = pts[(nsq > 0) & (nsq <= norm_sq_max)]
    keep = []
    for row in pts:
        nz = row[row != 0]
        if nz[0] > 0:
            keep.append(tuple(int(c) for c in row))
    keep.sort(key=lambda t: (sum(c * c for c in t), t))
    return keep


def _trig_nd_functions(d, norm_sq_max):
    funcs = [constant_function(d)]
    for xi in _half_lattice(d, norm_sq_max):
        funcs.append(_trig_fn(xi, KIND_COS))
        funcs.append(_trig_fn(xi, KIND_SIN))
    return tuple(funcs)


def trig_basis_nd(d, eigenvalue_floor):
    """Torus basis in d dimensions keeping eigenvalues >= eigenvalue_floor.

    The extended set uses four times the floor so that sum and difference
    frequencies of any two basis members are covered.
    """
    if d < 1:
        raise InvalidInputError("d must be >= 1")
    if eigenvalue_floor >= 0:
        raise InvalidInputError("eigenvalue_floor must be negative")
    k = abs(float(eigenvalue_floor))
    return EigenBasis(
        process=TRUNCATED_BM,
        dimension=d,
        functions=_trig_nd_functions(d, k),
        extended=_trig_nd_functions(d, 4.0 * k),
        descriptor={"family": "trig_nd", "dimension": d, "eigenvalue_floor": float(eigenvalue_floor)},
    )


def _hermite_univariate_functions(d, n):
    funcs = [constant_function(d)]
    for k in range(1, n + 1):
        for i in range(d):
            idx = [0] * d
            idx[i] = k
            funcs.append(EigenFunction(index=tuple(idx), kind=KIND_HERMITE, eigenvalue=-float(k)))
    return tuple(funcs)


def hermite_univariate_basis(d, n):
    """OU basis of univariate Hermite functions, orders 1..n per coordinate."""
    if d < 1 or n < 1:
        raise InvalidInputError("d and n must be >= 1")
    return EigenBasis(
        process=OU,
        dimension=d,
        functions=_hermite_univariate_functions(d, n),
        extended=_hermite_univariate_functions(d, 2 * n),
        descriptor={"family": "hermite_univariate", "dimension": d, "max_order": n},
    )


# ---------------------------------------------------------------------------
# Product table
# ---------------------------------------------------------------------------

@dataclass
class ProductTable:
    """The product expansion ``phi_k phi_l = sum_h beta_h phi_h`` as one tensor.

    Four flat arrays hold one entry per expansion term, over the basis pairs
    ``k <= l`` and sorted by pair: ``beta[i]`` is the coefficient of extended
    function ``h[i]`` in the product of basis functions ``k[i]`` and ``l[i]``.
    Pairs acting on disjoint coordinates (Hermite only) have no entries: their
    carre-du-champ vanishes identically.
    """

    k: np.ndarray
    l: np.ndarray
    h: np.ndarray
    beta: np.ndarray
    n_basis: int
    n_extended: int

    @cached_property
    def _pair_keys(self):
        return self.k * self.n_basis + self.l

    def get(self, k, l):
        """Extended indices and coefficients of the expansion of phi_k phi_l."""
        k, l = min(k, l), max(k, l)
        key = k * self.n_basis + l
        lo, hi = np.searchsorted(self._pair_keys, [key, key + 1])
        if lo == hi:
            raise CapacityError(f"no product expansion stored for pair {(k, l)}")
        return self.h[lo:hi], self.beta[lo:hi]


_TRIG_KINDS = (KIND_CONSTANT, KIND_COS, KIND_SIN)  # kind codes 0, 1, 2


def _trig_lookup(ext, freq, kind):
    """Extended indices of canonical trig terms: 0 for the constant (kind 0),
    else 2r + kind with r the row of ``freq`` among the sorted integer keys of
    the extended family's frequency rows ``ext.U``."""
    rows = ext.U.astype(np.int64)
    off = int(max(np.abs(rows).max(initial=0), np.abs(freq).max(initial=0)))
    radix = 2 * off + 1
    if radix ** freq.shape[1] >= 2 ** 63:
        raise CapacityError("frequency lattice too large for 64-bit product keys")

    def keys(f):
        key = np.zeros(len(f), dtype=np.int64)
        for i in range(f.shape[1]):
            key = key * radix + (f[:, i] + off)
        return key

    # with one key above all others, every search lands on an entry
    row_keys = np.append(keys(rows), np.iinfo(np.int64).max)
    order = np.argsort(row_keys)
    sorted_keys, q = row_keys[order], keys(freq)
    pos = np.searchsorted(sorted_keys, q)
    missing = np.nonzero((kind > 0) & (sorted_keys[pos] != q))[0]
    if len(missing):
        j = missing[0]
        raise CapacityError(f"extended basis does not contain "
                            f"{_TRIG_KINDS[kind[j]]} {tuple(freq[j].tolist())}")
    h = 2 * order[pos] + kind
    h[kind == 0] = 0
    return h


def _trig_terms(basis, k, l):
    """Product-to-sum expansion of the pairs (k, l) of sqrt2-normalized trig functions.

    ``2 trig(a) trig(b)`` has two terms, at frequencies a - b and a + b (for a
    sine-cosine pair, s + c and s - c with s the sine's). Each frequency is
    canonicalized into the half lattice (first nonzero coordinate positive),
    a sine absorbing the sign flip; a zero frequency gives the constant for a
    cosine and nothing for a sine. A product with the constant is the other
    factor itself.
    """
    # frequency and kind code of each function: the constant, then (cos, sin) per row
    U = basis._family.U.astype(np.int64)
    freq = np.concatenate([np.zeros((1, U.shape[1]), np.int64), np.repeat(U, 2, axis=0)])
    kind = np.concatenate([[0], np.tile([1, 2], len(U))])
    fa, fb, ka, kb = freq[k], freq[l], kind[k], kind[l]
    sin_a, sin_b = ka == 2, kb == 2
    mixed = sin_a != sin_b
    diff = fa - fb
    m = mixed[:, None]
    # two terms per pair: frequency (P, 2, d), kind code and raw coefficient (P, 2)
    f2 = np.stack([np.where(m, fa + fb, diff),
                   np.where(m, np.where(sin_a[:, None], diff, -diff), fa + fb)], axis=1)
    k2 = np.repeat(np.where(mixed, 2, 1)[:, None], 2, axis=1)
    c2 = np.stack([np.ones(len(k)), np.where(sin_a & sin_b, -1.0, 1.0)], axis=1)
    # with the constant (frequency zero): the other factor, then an empty sin(0)
    const = (ka == 0) | (kb == 0)
    f2[const, 0], k2[const, 0] = fa[const] + fb[const], ka[const] + kb[const]
    f2[const, 1], k2[const, 1] = 0, 2
    plain = np.stack([const, np.zeros_like(const)], axis=1).ravel()
    f2, k2, c2 = f2.reshape(-1, freq.shape[1]), k2.ravel(), c2.ravel()
    first = f2[np.arange(len(f2)), np.argmax(f2 != 0, axis=1)]
    sign = np.where(first < 0, -1, 1)
    zero = first == 0
    keep = ~(zero & (k2 == 2))
    beta = np.where(k2 == 2, c2 * sign, c2)
    beta = np.where(plain | zero, beta, beta / SQRT2)[keep]
    h = _trig_lookup(basis._extended_family, (f2 * sign[:, None])[keep],
                     np.where(zero, 0, k2)[keep])
    pair = np.repeat(np.arange(len(k)), 2)[keep]
    return k[pair], l[pair], h, beta


def _hermite_terms(basis, k, l):
    """Order expansion of the pairs (k, l) of univariate Hermite functions.

    Pairs on disjoint coordinates get no terms; the others expand along their
    shared coordinate, order 0 being the constant.
    """
    fam, ext = basis._family, basis._extended_family
    dims, orders = fam.dims, fam.orders
    B = hermite_order_expansion(fam.max_order, ext.max_order)
    ok, ol = orders[k], orders[l]
    shared = (ok == 0) | (ol == 0) | (dims[k] == dims[l])
    k, l, ok, ol = k[shared], l[shared], ok[shared], ol[shared]
    coord = np.where(ok > 0, dims[k], dims[l])
    vec = B[np.minimum(ok, ol), np.maximum(ok, ol)]
    mag = np.abs(vec)
    pair, h_order = np.nonzero(mag > 1e-14 * np.maximum(1.0, mag.max(axis=1))[:, None])
    ext_of = np.full((basis.dimension, ext.max_order + 1), -1)
    ext_of[ext.dims, ext.orders] = np.arange(len(basis.extended))
    ext_of[:, 0] = ext_of[0, 0]  # order 0 on any coordinate is the constant
    h = ext_of[coord[pair], h_order]
    if np.any(h < 0):
        raise CapacityError("extended basis misses a Hermite product term")
    return k[pair], l[pair], h, vec[pair, h_order]


def product_table(basis):
    """Expansion of all pairwise basis products into the extended basis.

    Built vectorised over the pairs k <= l; raises CapacityError when a
    product term is missing from the extended basis.
    """
    k, l = np.triu_indices(len(basis.functions))
    terms = _trig_terms if basis.process == TRUNCATED_BM else _hermite_terms
    k, l, h, beta = terms(basis, k, l)
    return ProductTable(k=k, l=l, h=h, beta=beta,
                        n_basis=len(basis.functions), n_extended=len(basis.extended))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_BUILDERS = {
    "trig_1d": lambda desc: trig_basis_1d(desc["max_frequency"]),
    "trig_nd": lambda desc: trig_basis_nd(desc["dimension"], desc["eigenvalue_floor"]),
    "hermite_univariate": lambda desc: hermite_univariate_basis(desc["dimension"], desc["max_order"]),
}


def basis_to_dict(basis):
    return {
        "process": basis.process,
        "dimension": basis.dimension,
        "descriptor": dict(basis.descriptor),
        "indices": [[f.kind, list(f.index)] for f in basis.functions],
    }


def basis_from_dict(d):
    family = d["descriptor"].get("family")
    if family not in _BUILDERS:
        raise InvalidInputError(f"unknown basis family: {family!r}")
    basis = _BUILDERS[family](d["descriptor"])
    if "indices" in d and len(d["indices"]) != len(basis.functions):
        raise InvalidInputError("serialized basis does not match its descriptor")
    return basis
