"""Eigenbases of the forward-process generator.

Two families are supported:

* Hermite functions ``phi_n = He_n / sqrt(n!)`` for the Ornstein-Uhlenbeck
  process on R^d (univariate in each coordinate), with eigenvalue ``-n``.
* Trigonometric functions ``sqrt(2) cos(xi.x)`` / ``sqrt(2) sin(xi.x)`` for
  Brownian motion wrapped onto the torus [-pi, pi]^d, with eigenvalue
  ``-|xi|^2``.

A basis is its index arrays: a torus function is fixed by its integer
frequency row u and an OU function by its coordinate and Hermite order n, and
the builders make these arrays directly (``_TrigFamily``, ``_HermiteFamily``).
Bases carry an *extended* family, a superset large enough that any product of
two basis members expands exactly, ``phi_k phi_l = sum_h beta_h phi_h``.
:func:`product_table` builds that expansion, vectorised over all pairs
``k <= l``, as one sparse COO tensor of ``(k, l, h, beta)`` entries (a
:class:`ProductTable`); the solver assembles every ``A_t`` from it. Both
families expand by closed forms that list only true terms: product-to-sum
identities for trig, the Hermite linearization formula in exact integer
binomials for OU.
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
    return _hermite_recurrence(max_order, x, 0.0)


def _hermite_recurrence(max_order, mean, var):
    """Expectations E phi_0(X) .. E phi_max_order(X) of X ~ N(mean, var),
    elementwise over the broadcast of ``mean`` and ``var``; the order axis is
    appended last.

    Stein's identity E[X g(X)] = mean E g(X) + var E g'(X), with
    ``phi_l' = sqrt(l) phi_{l-1}``, turns the values' recurrence into
    ``theta_{l+1} = (mean theta_l - sqrt(l) (1 - var) theta_{l-1}) / sqrt(l+1)``.
    At var = 0 it is that recurrence at x = mean, bit for bit.
    """
    mean = np.asarray(mean, dtype=float)
    c = 1.0 - np.asarray(var, dtype=float)
    out = np.empty(np.broadcast_shapes(mean.shape, c.shape) + (max_order + 1,))
    out[..., 0] = 1.0
    if max_order >= 1:
        out[..., 1] = mean
    for l in range(1, max_order):
        out[..., l + 1] = (mean * out[..., l] - math.sqrt(l) * c * out[..., l - 1]) / math.sqrt(l + 1)
    return out


# ---------------------------------------------------------------------------
# Evaluators, one per family
# ---------------------------------------------------------------------------
#
# Each family holds the index arrays of one ordered function list whose entry 0
# is the constant, with their eigenvalues ``lam``; ``len`` counts the functions
# and ``listing`` names them. It evaluates the list at checked points X (N, d):
# ``values`` (N, n) and ``derivatives`` (values, gradients (N, d, n),
# Laplacians (N, n)), both in float64, and ``weighted``, the flow kernel: the
# score and Laplacian of f = sum_k alpha_k phi_k over entries 1.. without
# forming the gradient tensor (trig in float32, Hermite in float64). Trig
# values and derivatives get cos/sin of the integer frequencies by angle
# addition (``_cos_sin``).
#
# The float32 trig kernel is sum-factorized (Orszag, J. Comput. Phys. 1980):
# the frequencies are integer, so e^{i u.x} = prod_j e^{i u_j x_j}, and the
# outputs come from the harmonics e^{i k x_j} of each coordinate over its
# range of k: 35 cos/sin pairs per point on the 400-function 2D basis,
# against one pair per frequency row (200). A GEMM with a matrix M built once
# per alpha contracts the last coordinate; then each remaining coordinate is
# one contraction over its harmonics, point by point: a complex step for a
# middle coordinate, the real part alone for the first. The kernel walks the
# rows in blocks whose phases, harmonics and partial sums take
# ``KERNEL_BLOCK_BYTES``, laid out coordinate-major so that every
# elementwise step runs along a block's points.
# A block's phases are float64 products rounded once to float32. numpy forms
# a float64 product into a float32 array in its own loop, not in BLAS: in 1D,
# where the product's inner dimension is 1, that loop took about half of a
# 2000-row call of the 50-function kernel (100 of 195 us, 2 ns a phase, one
# BLAS thread). So a 1D kernel forms them by ``np.dot`` into a float64 block
# and rounds that (41 us). From 2D up numpy's loop runs at about 1 ns a phase,
# and ``dot`` plus the rounding copy made whole calls of the 400-function 2D
# kernel 4.6% slower at 801 rows (faster in 2 of 21 interleaved rounds) and
# 8% at 2000 rows, so the kernel selects by the coordinate count. Each phase
# is one frequency times one coordinate, so both give the same products and
# the outputs do not depend on the path.
# The budget comes from a sweep on a 2-vCPU Xeon (CHANGES.md): at 192 KiB and
# below the per-block overhead slows the 400-function kernel by 10% or more,
# and from 448 KiB up the 50-function 1D kernel slows by a tenth or more.
# The 1D kernel's float64 phase block (8 bytes a phase) lies outside the
# budget, which block_rows leaves as swept: a 1D output depends on its
# block's width at float32 rounding (CHANGES.md), so a new width would move
# the outputs.

KERNEL_BLOCK_BYTES = 384 * 1024


def block_rows(row_bytes, budget):
    """Rows per block of a row-blocked walk: as many as fit in ``budget``
    bytes at ``row_bytes`` per row, and at least one."""
    return max(1, budget // row_bytes)


def harmonics(x, lo, hi):
    """The harmonics e^{i k x} of points x (N,) for k = lo .. hi (lo <= hi):
    (N, hi - lo + 1) complex, power k in column k - lo.

    One complex exponential per point gives them all: the positive powers by
    repeated multiplication, the negative ones as their conjugates. Only the
    powers of the range are kept.
    """
    n = len(x)
    pos = np.cumprod(np.broadcast_to(np.exp(1j * x)[:, None], (n, max(-lo, hi, 0))), axis=1)
    out = np.empty((n, hi - lo + 1), dtype=complex)  # pos[:, k - 1] is power k
    if lo < 0:
        k = min(hi, -1)  # the negative powers lo .. k
        np.conj(pos[:, -k - 1:-lo][:, ::-1], out=out[:, :k - lo + 1])
    if lo <= 0 <= hi:
        out[:, -lo] = 1.0
    if hi > 0:
        k = max(lo, 1)  # the positive powers k .. hi
        out[:, k - lo:] = pos[:, k - 1:hi]
    return out


def power_columns(V):
    """Per coordinate j of the integer frequency rows V: the range lo .. hi of
    its powers (0 .. 0 without rows) and each row's column V[:, j] - lo in
    :func:`harmonics` over it."""
    ranges = [(int(v.min()), int(v.max())) if v.size else (0, 0) for v in V.T]
    return [(lo, hi, v - lo) for (lo, hi), v in zip(ranges, V.T)]


@dataclass(frozen=True)
class _KernelLayout:
    """Where each frequency row sits in the dense harmonic grid of the kernel.

    Coordinate j's harmonics run over k = min(U[:, j]) .. max(U[:, j]), m_j
    of them. ``phase_rows`` (n_phases, d) takes a point to the phase of every
    harmonic: -k x_j for the coordinates d-2 .. 0 in turn, whose cos/sin are
    the conjugate harmonics, then k x_j for the last coordinate. The kernel
    takes the cos of every phase, then the sin of the last coordinate's and
    of the others', so that the last coordinate's cos and sin rows meet.
    ``others`` lists, from coordinate d-2 down to 0, each coordinate with its
    cos and sin rows there. ``src`` and ``fac`` give each entry of M
    (2 m_last, n_sums) as ``sqrt2 alpha[src] fac``: its rows are the cos and
    sin harmonics of the last coordinate, and its columns the partial sums
    over the other coordinates, ordered (output, k_0, .., k_{d-2}, re/im):
    d score components, then the Laplacian; no re/im axis in 1D.
    """

    phase_rows: np.ndarray
    src: np.ndarray
    fac: np.ndarray
    n_last: int
    others: tuple

    @classmethod
    def build(cls, U, lam):
        n, d = U.shape
        k = U.astype(np.int64)
        lo = k.min(axis=0)
        m = k.max(axis=0) - lo + 1
        last = d - 1
        # flat position of each row over (k_0, .., k_{d-2}), k_{d-2} fastest
        q = np.zeros(n, np.int64)
        for j in range(last):
            q = q * m[j] + k[:, j] - lo[j]
        grid = int(np.prod(m[:last]))
        parts = 2 if d > 1 else 1  # re/im of the partial sums
        cols = (np.arange(d + 1) * grid + q[:, None]) * parts  # (n, d + 1)
        cos_row = k[:, last] - lo[last]
        sin_row = cos_row + m[last]
        # the cos (sin) function of row r carries Wc (Ws): sqrt2 times
        # (a_sin U, lam a_cos) and (-a_cos U, lam a_sin)
        src_c = np.repeat(2 * np.arange(n)[:, None], d + 1, axis=1)
        src_c[:, :-1] += 1
        src_s = src_c ^ 1
        fac_c = np.hstack([U, lam[1::2, None]])
        fac_s = np.hstack([-U, lam[1::2, None]])
        # the row's complex coefficient is Wc - i Ws; (cos + i sin)(Wc - i Ws)
        # puts (Wc, Ws) into the real part and (-Ws, Wc) into the imaginary one
        src = np.zeros((2 * m[last], (d + 1) * grid * parts), np.int64)
        fac = np.zeros(src.shape)
        terms = [(cos_row, 0, src_c, fac_c), (sin_row, 0, src_s, fac_s)]
        if parts == 2:
            terms += [(cos_row, 1, src_s, -fac_s), (sin_row, 1, src_c, fac_c)]
        for row, part, sr, f in terms:
            src[row[:, None], cols + part] = sr
            fac[row[:, None], cols + part] = f
        n_phases = int(m.sum())
        phase_rows = np.zeros((n_phases, d))
        others, p = [], 0
        for j in range(last - 1, -1, -1):
            phase_rows[p:p + m[j], j] = -np.arange(lo[j], lo[j] + m[j])
            sin_p = n_phases + m[last] + p
            others.append((j, slice(p, p + m[j]), slice(sin_p, sin_p + m[j])))
            p += m[j]
        phase_rows[p:, last] = np.arange(lo[last], lo[last] + m[last])
        return cls(phase_rows, src, fac, int(m[last]), tuple(others))

    def weights(self, alpha):
        """M in float32, with entries below tiny/eps flushed to zero. At large
        tau alpha decays below float32's normal range, and subnormal operands
        put the product on the FPU's slow path (5x at 2000 rows). An entry of
        at least tiny/eps keeps its product normal for every harmonic of at
        least eps; the smaller ones move no partial sum by more than
        2 m_last tiny/eps."""
        M = alpha.take(self.src)
        M *= self.fac
        M *= SQRT2
        M = M.astype(np.float32)
        info = np.finfo(np.float32)
        M[np.abs(M) < info.tiny / info.eps] = 0.0
        return M


@dataclass(frozen=True)
class _SumLayout:
    """Where each frequency of U, then of 2U, sits in the grid of exponential sums.

    Over points x_m, sum_m e^{i v.x_m} = sum_m G[m, p] H[m, k] (sum
    factorization, as in the kernel): column p of G is the product of the
    harmonics e^{i v_j x_j} of the coordinates 0 .. d-2 for one distinct
    prefix (v_0, .., v_{d-2}) of the frequencies, and column k of H is the
    last coordinate's harmonic of the k-th power in its range. So one GEMM
    G^T H gives the sums over a (prefixes, last powers) grid, and ``at`` is
    each frequency's flat position in it. ``prefix`` holds the
    :func:`power_columns` of the distinct prefixes, ``last`` the range of the
    last coordinate's powers. In 1D the prefix is empty and G is a column of
    ones.
    """

    n_prefixes: int
    prefix: list
    last: tuple
    at: np.ndarray

    @classmethod
    def build(cls, U):
        V = np.concatenate([U, 2 * U]).astype(np.int64)
        prefix, p = np.unique(V[:, :-1], axis=0, return_inverse=True)
        lo, hi, cols = power_columns(V[:, -1:])[0]
        return cls(len(prefix), power_columns(prefix), (lo, hi), p.ravel() * (hi - lo + 1) + cols)


class _TrigFamily:
    """The constant, then one sqrt2 cos / sqrt2 sin pair per frequency row.

    Function 2r + 1 is sqrt2 cos(U[r].x) and function 2r + 2 is
    sqrt2 sin(U[r].x), the column order of ``_cos_sin`` shifted by the
    constant, so values and slopes are reshapes of it. Both have the
    eigenvalue -|U[r]|^2.
    """

    def __init__(self, U):
        self.U = np.asarray(U, dtype=float)
        self.lam = np.concatenate([[0.0], np.repeat(-(self.U * self.U).sum(axis=1), 2)])
        self.kmax = int(np.abs(self.U).max(initial=0))
        self.powers = power_columns(self.U.astype(int))

    def __len__(self):
        return len(self.lam)

    def listing(self):
        """(kind, frequency, eigenvalue) of each function, as reports and
        model files name them."""
        rows = [("constant", (0,) * self.U.shape[1], 0.0)]
        for u, lam in zip(self.U.astype(int).tolist(), self.lam[1::2].tolist()):
            rows += [("trig-cos", tuple(u), lam), ("trig-sin", tuple(u), lam)]
        return rows

    def _cos_sin(self, X):
        """cos and sin of X @ U.T in float64, interleaved: (N, 2 len(U)) with
        the cos of row r in column 2r and its sin in column 2r + 1.

        The frequencies are integer, so e^{i u.x} = prod_j e^{i u_j x_j}, a
        product of the coordinates' :func:`harmonics` over their ranges in U.
        """
        (lo, hi, cols), *rest = self.powers
        E = np.take(harmonics(X[:, 0], lo, hi), cols, axis=1)
        for j, (lo, hi, cols) in enumerate(rest, 1):
            E *= np.take(harmonics(X[:, j], lo, hi), cols, axis=1)
        return E.view(np.float64)

    def _values(self, CS):
        # column-major, so that per-function sums over the points are pairwise
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
        slope = np.empty((N, 2 * n))
        np.multiply(CS[:, 1::2], -SQRT2, out=slope[:, 0::2])
        np.multiply(CS[:, 0::2], SQRT2, out=slope[:, 1::2])
        grads = np.zeros((N, d, 2 * n + 1))
        grads[:, :, 1:] = slope[:, None, :] * np.repeat(self.U.T, 2, axis=1)
        return vals, grads, self.lam * vals

    @cached_property
    def _sums(self):
        return _SumLayout.build(self.U)

    def sum_rows(self, budget):
        """Rows per block of ``exp_sums`` within ``budget`` bytes: a row
        counts 16 bytes for each power -2 kmax .. 2 kmax of every coordinate
        and each of its columns of G and H. (``exp_sums`` builds only the
        powers it reads; the count is kept so that the blocks, and with them
        every sum, stay as they were.)"""
        lay = self._sums
        n_last = lay.last[1] - lay.last[0] + 1
        return block_rows(16 * (self.U.shape[1] * (4 * self.kmax + 1) + lay.n_prefixes + n_last),
                          budget)

    def exp_sums(self, X):
        """sum over the points X of e^{i v.x} for every frequency row v of U,
        then of 2U: (2 len(U),) complex, from one GEMM (see ``_SumLayout``)."""
        lay = self._sums
        G = np.ones((len(X), lay.n_prefixes), complex)
        for j, (lo, hi, cols) in enumerate(lay.prefix):
            G *= np.take(harmonics(X[:, j], lo, hi), cols, axis=1)
        return (G.T @ harmonics(X[:, -1], *lay.last)).ravel()[lay.at]

    @cached_property
    def _layout(self):
        return _KernelLayout.build(self.U, self.lam)

    def block_rows(self):
        """Rows per block of ``weighted``: a row's float32 phases, harmonics
        and partial sums."""
        lay = self._layout
        return block_rows(4 * (3 * len(lay.phase_rows) + lay.src.shape[1]), KERNEL_BLOCK_BYTES)

    def weighted(self, X, alpha):
        N, d = X.shape
        lay = self._layout
        M = lay.weights(alpha)
        m, W = lay.n_last, len(lay.phase_rows)
        # coordinate-major: one row per phase, harmonic or output, one column per point
        out = np.empty((d + 1, N), np.float32)
        b = self.block_rows()
        nb = min(b, N)
        phase = np.empty((W, nb), np.float32)
        harm = np.empty((2 * W, nb), np.float32)
        sums = np.empty((M.shape[1], nb), np.float32)
        # in 1D the phases go through BLAS in float64 (see KERNEL_BLOCK_BYTES)
        wide = np.empty(W * nb) if d == 1 else None
        for start in range(0, N, b):
            rows = X[start:start + b]
            B = len(rows)
            p, h = phase[:, :B], harm[:, :B]
            # the phases in float64, rounded once to float32
            if wide is None:
                np.matmul(lay.phase_rows, rows.T, out=p)
            else:  # np.dot takes only a C-contiguous out
                np.copyto(p, np.dot(lay.phase_rows, rows.T, out=wide[:W * B].reshape(W, B)),
                          casting="same_kind")
            np.cos(p, out=h[:W])
            np.sin(p[W - m:], out=h[W:W + m])
            np.sin(p[:W - m], out=h[W + m:])
            # the GEMM over the last coordinate's cos, then sin, harmonics; in 1D
            # it gives the outputs, else T, the re/im of sum_k z^k G_k over the
            # coordinates contracted so far. With c, s = cos, sin(-k x_j) of
            # the next coordinate, z^k = c - i s.
            dst = out[:, start:start + B]
            T = np.matmul(M.T, h[W - m:W + m], out=sums[:, :B] if lay.others else dst)
            for j, c_rows, s_rows in lay.others:
                c, s = h[c_rows], h[s_rows]
                T = T.reshape(-1, len(c), 2, B)
                re, im = T[:, :, 0], T[:, :, 1]
                if j:  # a middle coordinate: the complex step
                    T = np.empty((len(re), 2, B), np.float32)
                    np.einsum("rkb,kb->rb", re, c, out=T[:, 0])
                    T[:, 0] += np.einsum("rkb,kb->rb", im, s)
                    np.einsum("rkb,kb->rb", im, c, out=T[:, 1])
                    T[:, 1] -= np.einsum("rkb,kb->rb", re, s)
                else:  # the first coordinate: the real part alone
                    np.einsum("rkb,kb->rb", re, c, out=dst)
                    dst += np.einsum("rkb,kb->rb", im, s)
        return np.ascontiguousarray(out[:-1].T, dtype=float), out[-1].astype(float)


class _HermiteFamily:
    """Univariate Hermite functions, each of one coordinate and one order.

    The constant is order 0 (on coordinate 0), so it needs no special case:
    ``phi_n' = sqrt(n) phi_{n-1}`` and ``phi_n'' = sqrt(n(n-1)) phi_{n-2}``
    vanish there. Function i is of order ``orders[i]`` on coordinate
    ``dims[i]``, with the eigenvalue -orders[i].
    """

    def __init__(self, dims, orders, dimension):
        self.dims, self.orders = dims, orders
        self.lam = (-orders).astype(float)
        self.max_order = int(orders.max())
        n = len(orders)
        self.axis = np.zeros((n, dimension))  # one-hot coordinate of each function
        self.axis[np.arange(n), dims] = orders > 0

    def __len__(self):
        return len(self.orders)

    def listing(self):
        """(kind, multi-index, eigenvalue) of each function, as reports and
        model files name them."""
        index = np.zeros(self.axis.shape, np.int64)
        index[np.arange(len(self)), self.dims] = self.orders
        return [("hermite" if n else "constant", tuple(i), lam)
                for n, i, lam in zip(self.orders.tolist(), index.tolist(), self.lam.tolist())]

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

    def weighted(self, X, alpha):
        _, d1, d2 = self._terms(X)
        return (d1[:, 1:] * alpha) @ self.axis[1:], d2[:, 1:] @ alpha


# ---------------------------------------------------------------------------
# EigenBasis
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EigenBasis:
    """A family of eigenfunctions plus the extended family closing products.

    ``functions`` and ``extended`` are families of one process (a
    ``_TrigFamily`` or a ``_HermiteFamily``), and the builders start
    ``extended`` with ``functions`` in their order, so index k of the basis is
    index k of the extended basis. ``len`` of a family counts its functions,
    the constant included.
    """

    process: str
    dimension: int
    functions: object
    extended: object
    descriptor: dict = field(default_factory=dict)

    @property
    def n_active(self):
        """Number of non-constant basis functions (the solve dimension)."""
        return len(self.functions) - 1

    @property
    def eigenvalues(self):
        return self.functions.lam

    @property
    def extended_eigenvalues(self):
        return self.extended.lam

    # -- evaluation ---------------------------------------------------------

    def eval_batch(self, X):
        """Values, gradients and Laplacians at points X (N x d).

        Returns ``(values (N,n), gradients (N,d,n), laplacians (N,n))`` over
        ``functions``.
        """
        return self.functions.derivatives(self._check_points(X))

    def eval_values(self, X, extended=False):
        """Values only (used for moment estimation over the extended set)."""
        family = self.extended if extended else self.functions
        return family.values(self._check_points(X))

    def weighted_eval(self, X, alpha):
        """The flow kernel: score and Laplacian of ``f = sum_k alpha_k phi_k``.

        ``alpha`` runs over the active (non-constant) basis functions. Returns
        ``(score (N,d), laplacian (N,))`` without materializing the gradient
        tensor. The flow and the reverse SDE read nothing else, so the energy
        is not formed; :meth:`eval_batch` contracted with alpha gives it. Trig is
        sum-factorized over the coordinates' harmonics and runs in float32:
        each output is within 1e-5 of its largest magnitude over the points
        (1e-7 to 5e-6 measured), far below the integrators' tolerances. Hermite
        runs in float64; exact float64 values come from :meth:`eval_batch`.
        """
        X = self._check_points(X)
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape != (self.n_active,):
            raise InvalidInputError(
                f"alpha has length {alpha.shape}, expected ({self.n_active},)"
            )
        return self.functions.weighted(X, alpha)

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

def _half_lattice(d, norm_sq_max):
    """Canonical half-lattice frequencies with |xi|^2 <= norm_sq_max, (n, d).

    The first nonzero coordinate is positive, removing the cos(x) = cos(-x)
    redundancy; sorted by |xi|^2 then lexicographically. The rows are grown
    one coordinate at a time, keeping the partial norms within the bound.
    """
    r = math.isqrt(int(norm_sq_max))
    k = np.arange(-r, r + 1)
    rows, nsq = np.zeros((1, 0), np.int64), np.zeros(1, np.int64)
    for _ in range(d):
        rows = np.hstack([np.repeat(rows, len(k), axis=0), np.tile(k, len(rows))[:, None]])
        nsq = (nsq[:, None] + k * k).ravel()
        inside = nsq <= norm_sq_max
        rows, nsq = rows[inside], nsq[inside]
    first = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    rows, nsq = rows[first > 0], nsq[first > 0]
    return rows[np.lexsort((*rows.T[::-1], nsq))]


def _trig_basis(d, norm_sq_max, descriptor):
    """Torus basis of the frequencies with |xi|^2 <= norm_sq_max. The extended
    set uses four times the bound so that sum and difference frequencies of any
    two basis members are covered."""
    if norm_sq_max < 1:
        raise InvalidInputError(f"no nonzero frequency has |xi|^2 <= {norm_sq_max:g}")
    return EigenBasis(
        process=TRUNCATED_BM,
        dimension=d,
        functions=_TrigFamily(_half_lattice(d, norm_sq_max)),
        extended=_TrigFamily(_half_lattice(d, 4 * norm_sq_max)),
        descriptor=descriptor,
    )


def trig_basis_1d(max_frequency):
    """Torus basis {1, sqrt2 cos(kx), sqrt2 sin(kx) : k <= max_frequency}."""
    if max_frequency < 1:
        raise InvalidInputError("max_frequency must be >= 1")
    return _trig_basis(1, max_frequency * max_frequency,
                       {"family": "trig_1d", "max_frequency": max_frequency})


def trig_basis_nd(d, eigenvalue_floor):
    """Torus basis in d dimensions keeping eigenvalues >= eigenvalue_floor."""
    if d < 1:
        raise InvalidInputError("d must be >= 1")
    if eigenvalue_floor >= 0:
        raise InvalidInputError("eigenvalue_floor must be negative")
    return _trig_basis(d, abs(float(eigenvalue_floor)), {
        "family": "trig_nd", "dimension": d, "eigenvalue_floor": float(eigenvalue_floor)})


def _hermite_family(d, n):
    """The constant, then orders 1..n, each over coordinates 0..d-1."""
    dims = np.concatenate([[0], np.tile(np.arange(d), n)])
    orders = np.concatenate([[0], np.repeat(np.arange(1, n + 1), d)])
    return _HermiteFamily(dims, orders, d)


def hermite_univariate_basis(d, n):
    """OU basis of univariate Hermite functions, orders 1..n per coordinate."""
    if d < 1 or n < 1:
        raise InvalidInputError("d and n must be >= 1")
    return EigenBasis(
        process=OU,
        dimension=d,
        functions=_hermite_family(d, n),
        extended=_hermite_family(d, 2 * n),
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


def _trig_lookup(ext, freq, kind):
    """Extended indices of canonical trig terms: 0 for the constant (kind 0),
    else 2r + kind with r the row of ``freq`` among the sorted integer keys of
    the extended family's frequency rows ``ext.U``, which hold every product
    frequency of the basis."""
    rows = ext.U.astype(np.int64)
    off = int(np.abs(rows).max())
    radix = 2 * off + 1
    if radix ** rows.shape[1] >= 2 ** 63:
        raise CapacityError("frequency lattice too large for 64-bit product keys")

    def keys(f):
        key = np.zeros(len(f), dtype=np.int64)
        for i in range(f.shape[1]):
            key = key * radix + (f[:, i] + off)
        return key

    # every trig term's frequency is a row, and the constant's zero frequency
    # sorts below all of them, so every search lands on a row
    row_keys = keys(rows)
    order = np.argsort(row_keys)
    h = 2 * order[np.searchsorted(row_keys[order], keys(freq))] + kind
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
    U = basis.functions.U.astype(np.int64)
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
    h = _trig_lookup(basis.extended, (f2 * sign[:, None])[keep],
                     np.where(zero, 0, k2)[keep])
    pair = np.repeat(np.arange(len(k)), 2)[keep]
    return k[pair], l[pair], h, beta


def _hermite_terms(basis, k, l):
    """Linearization of the pairs (k, l) of univariate Hermite functions.

    ``phi_m phi_n = sum_{j=0}^{min(m, n)} beta_j phi_{m+n-2j}`` with
    ``beta_j = sqrt(C(m, j) C(n, j) C(m+n-2j, m-j))`` (DLMF 18.18.22 for
    ``phi_n = He_n / sqrt(n!)``). Every beta_j is positive, so a pair lists
    exactly its min(m, n) + 1 true terms, by ascending order, each rounded
    once from exact integer binomials. Pairs on disjoint coordinates get no
    terms; the others expand along their shared coordinate, order 0 being the
    constant.
    """
    fam, ext = basis.functions, basis.extended
    dims, orders = fam.dims, fam.orders
    ok, ol = orders[k], orders[l]
    shared = (ok == 0) | (ol == 0) | (dims[k] == dims[l])
    k, l, ok, ol = k[shared], l[shared], ok[shared], ol[shared]
    coord = np.where(ok > 0, dims[k], dims[l])
    m, n = np.minimum(ok, ol), np.maximum(ok, ol)
    pair = np.repeat(np.arange(len(k)), m + 1)
    i = np.arange(len(pair)) - np.repeat(np.cumsum(m + 1) - (m + 1), m + 1)
    m, n, j = m[pair], n[pair], m[pair] - i
    beta = np.array([math.sqrt(math.comb(a, c) * math.comb(b, c) * math.comb(a + b - 2 * c, a - c))
                     for a, b, c in zip(m.tolist(), n.tolist(), j.tolist())])
    ext_of = np.full((basis.dimension, ext.max_order + 1), -1)
    ext_of[ext.dims, ext.orders] = np.arange(len(basis.extended))
    ext_of[:, 0] = ext_of[0, 0]  # order 0 on any coordinate is the constant
    return k[pair], l[pair], ext_of[coord[pair], m + n - 2 * j], beta


def product_table(basis):
    """Expansion of all pairwise basis products into the extended basis.

    Built vectorised over the pairs k <= l. The builders' extended families
    (four times the trig bound, twice the Hermite order) hold every term.
    """
    k, l = np.triu_indices(len(basis.functions))
    terms = _trig_terms if basis.process == TRUNCATED_BM else _hermite_terms
    k, l, h, beta = terms(basis, k, l)
    return ProductTable(k=k, l=l, h=h, beta=beta)


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
        "indices": [[kind, list(index)] for kind, index, _ in basis.functions.listing()],
    }


def basis_from_dict(d):
    family = d["descriptor"].get("family")
    if family not in _BUILDERS:
        raise InvalidInputError(f"unknown basis family: {family!r}")
    basis = _BUILDERS[family](d["descriptor"])
    if "indices" in d and len(d["indices"]) != len(basis.functions):
        raise InvalidInputError("serialized basis does not match its descriptor")
    return basis
