"""Time-indexed quadratic score-matching systems and the presolved model.

For an energy model f = sum_k alpha_k phi_k over the active basis, the
score-matching objective at internal time t is (up to a constant)

    alpha' A_t alpha + 2 b_t' alpha,
    A_t[k,l] = sum_h ((lam_h - lam_k - lam_l)/2) e^{lam_h t} beta_h^{(k,l)} theta_h,
    b_t[k]   = lam_k e^{lam_k t} theta_k,

with beta^{(k,l)} the product expansion phi_k phi_l = sum_h beta_h phi_h.
Both are linear in the moments theta; :class:`SystemAssembler` is the one
construction of them, built once per set of moments for every t. The
stationary point alpha = -A_t^{-1} b_t is solved at each time node in the
symmetric preconditioning P = Lambda^{-1/2} A_t Lambda^{-1/2}, Lambda =
diag(-lam_k), which tends to the identity as t grows (A_t -> Lambda).
P's inverse is replaced by the rational filter g(P) = Re[(1 - i)(P -
zI)^{-1}], z = delta(-1 + i), whose floor delta damps the directions below
it: the noise floor of estimated moments, which the data cannot resolve, or
``TIKHONOV_EPS`` with exact moments (see solve_node). The assembler folds
the preconditioning into its sparse construction, so a fit's nodes arrive
as P and y, and one :class:`NodeKernel` per fit solves them in buffers made
once. A non-diagonal node is factored by a complex symmetric LDL' of P - zI:
in single precision (LAPACK ``csytrf``), refined in double until the
residual passes LAPACK's ``zcgesv`` test, where its condition bound is at
most ``SINGLE_BOUND`` and P is large and stays dense after the cut-off; in
double (``zsytrf``) elsewhere, and wherever the single factor has a zero
pivot or the refinement does not pass the test within ``MAX_SINGLE_SOLVES``
solves.
A fit keeps each node's condition of P - zI in memory; its model file holds
only what sampling reads.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg import lapack

from .basis import EigenBasis, basis_from_dict, basis_to_dict, product_table
from .errors import (
    CapacityError,
    IllConditionedError,
    InvalidInputError,
    UnsupportedTargetError,
)
from .moments import analytic_moments, modulation_shrink, sample_moments
from .process import Schedule, _check_tau, internal_time
from .targets import AnalyticReference, DomainMap

MODEL_FORMAT_VERSION = 2
CONDITION_LIMIT = 1e12
TIKHONOV_EPS = 1e-8
# Eigenvalues of the preconditioned matrix below SPECTRAL_FLOOR times the
# average standard error of the estimated moments are statistically
# indistinguishable from zero; the solver filters them instead of dividing by
# them (see solve_node).
SPECTRAL_FLOOR = 3.0
# Entries of the preconditioned matrix up to OFFDIAG_CUTOFF times the
# geometric mean of their row's and column's diagonal entries are zeroed
# before the solve (see solve_node). They lie far below the rounding of the
# diagonal, and left in, they slow the factorizations down with subnormal
# arithmetic.
OFFDIAG_CUTOFF = 1e-20
# A node is factored in single precision and refined in double (see
# solve_node) when its condition bound is at most SINGLE_BOUND, at least
# DENSE_FRACTION of its P's entries survive the cut-off and it has at least
# SINGLE_MIN_SIZE functions. Each refinement step
# shrinks the error by about kappa u32, u32 = 2^-24 (Higham, *Accuracy and
# Stability of Numerical Algorithms*, 2002, ch. 12), so the bound 2^14 keeps
# that factor at 2^-10 or less: every step gains three digits or more. On a
# sparser P the float32 factor's fill-in runs into subnormal numbers: on
# perfbench's pinwheel nodes, single precision was faster down to 89% of the
# entries and 6-11 times slower at 21-54%. Refinement costs some 50 us a
# node in calls, which the cheaper factorization repays only on large
# systems: on dense pinwheel nodes (one BLAS thread) single precision took
# 1.02-1.39 times the double time at n = 144-220, 0.83-1.04 at 248 and
# 0.78-0.81 at 316. MAX_SINGLE_SOLVES caps the single-precision solves of a
# node, the first one and its corrections.
SINGLE_BOUND = 2.0**14
DENSE_FRACTION = 0.9
SINGLE_MIN_SIZE = 300
MAX_SINGLE_SOLVES = 6


@dataclass(frozen=True)
class QuadraticSystem:
    """One assembled system: matrix, linear term, active eigenvalues, time."""

    A: np.ndarray
    b: np.ndarray
    lambdas: np.ndarray  # eigenvalues of the active basis functions (< 0)
    noise_scale: float = 0.0  # average standard error of the moments (0 = exact)


@dataclass(frozen=True)
class PreconditionedSystem:
    """One node of a :class:`SystemAssembler` in the symmetric preconditioning:
    P = Lambda^{-1/2} A Lambda^{-1/2}, exactly symmetric by construction,
    y = -Lambda^{-1/2} b, and the fit's :class:`NodeKernel`. :func:`solve_node`
    applies the cut-off to P in place."""

    P: np.ndarray
    y: np.ndarray
    kernel: NodeKernel


class SystemAssembler:
    """The sparse construction of every system from one set of moments.

    A_t is linear in e^{lam_h t}, and so is P_t = Lambda^{-1/2} A_t
    Lambda^{-1/2}: flattened, it is ``S @ e^{lam_ext t}``. ``S`` holds the
    product table's pairs ``1 <= k <= l`` of the active basis with
    coefficients ((lam_h - lam_k - lam_l)/2) beta_h^{(k,l)} theta_h /
    sqrt(lam_k lam_l), mirrored off the diagonal, so the preconditioning is
    folded in once per fit. Raises CapacityError unless the moments cover
    the extended basis.
    """

    def __init__(self, basis, table, moments):
        if len(moments.theta_hat) != len(basis.extended):
            raise CapacityError(
                f"moments cover {len(moments.theta_hat)} functions, "
                f"extended basis has {len(basis.extended)}"
            )
        lam = basis.eigenvalues
        self.lam_ext = lam_ext = basis.extended_eigenvalues
        self.lam_active = lam[1:]
        self.scale = scale = np.sqrt(-self.lam_active)
        active = table.k >= 1
        k, l, h = table.k[active], table.l[active], table.h[active]
        coef = ((lam_ext[h] - lam[k] - lam[l]) / 2.0) * table.beta[active] * moments.theta[h]
        keep = coef != 0
        k, l, h, coef = k[keep] - 1, l[keep] - 1, h[keep], coef[keep]
        coef /= scale[k] * scale[l]
        off = k != l
        self.n = n = basis.n_active
        # by columns: an entry of P sums about two terms, and the product runs
        # a third faster over S's columns than over its n^2 short rows
        self.S = scipy.sparse.csc_matrix(
            (np.concatenate([coef, coef[off]]),
             (np.concatenate([k * n + l, l[off] * n + k[off]]), np.concatenate([h, h[off]]))),
            shape=(n * n, len(lam_ext)),
        )
        self.theta_active = moments.theta[1:len(basis.functions)]
        self.y_coef = scale * self.theta_active  # y_t[k] = sqrt(-lam_k) e^{lam_k t} theta_k
        self.noise_scale = float(np.sqrt(np.mean(moments.var_hat)))

    @functools.cached_property
    def kernel(self):
        return NodeKernel(self.lam_active, self.noise_scale)

    def preconditioned(self, t):
        """The node at internal time t: P_t and y_t over the active basis."""
        growth = np.exp(self.lam_ext * t)  # the active basis is its entries 1..n
        P = (self.S @ growth).reshape(self.n, self.n)
        return PreconditionedSystem(P, self.y_coef * growth[1:self.n + 1], self.kernel)

    def system(self, t):
        """A_t = Lambda^{1/2} P_t Lambda^{1/2} and b_t[k] = lam_k e^{lam_k t} theta_k."""
        growth = np.exp(self.lam_ext * t)
        A = (self.S @ growth).reshape(self.n, self.n)
        A *= np.multiply.outer(self.scale, self.scale)  # symmetric, so A stays exactly symmetric
        b = self.lam_active * growth[1:self.n + 1] * self.theta_active
        return QuadraticSystem(A=A, b=b, lambdas=self.lam_active, noise_scale=self.noise_scale)


@dataclass(frozen=True)
class NodeSolve:
    """Result of solving one node: coefficients plus solve diagnostics."""

    alpha: np.ndarray
    # a condition number of P - zI (see solve_node): the bound (||P||_1 +
    # sqrt(2) delta) / delta on its 2-norm condition, or where that exceeds
    # CONDITION_LIMIT, its 1-norm condition (exact for a diagonal P, else
    # zsycon's estimate, which can exceed the bound); it measures the
    # accuracy of the solve, not how close P is to singular
    condition: float
    regularized: bool  # delta is the noise floor of sampled moments


def solve_node(system):
    """Minimizer of alpha'A alpha + 2 b'alpha via the symmetric preconditioning.

    With Lambda = diag(-lambdas), the system is P u = y with
    P = Lambda^{-1/2} A Lambda^{-1/2}, y = -Lambda^{-1/2} b and
    alpha = Lambda^{-1/2} u. Every node is solved as u = g(P) y with the
    one-pole filter

        g(w) = (w + 2 delta) / ((w + delta)^2 + delta^2) = Re[(1 - i) / (w - z)],

    z = delta (-1 + i), instead of P^{-1} y: g(0) = 1/delta, g(w) = (1/w)(1 -
    2 delta^2/w^2 + ...) for w >> delta, and g(-2 delta) = 0, so directions
    below delta are damped instead of amplified (filter factors: Hansen,
    *Rank-Deficient and Discrete Ill-Posed Problems*, SIAM 1998). g is
    analytic on the real line, so alpha is smooth in t. With estimated
    moments, delta = ``SPECTRAL_FLOOR * noise_scale``: eigenvalues of P below
    it carry no statistically significant signal, and the node is flagged
    ``regularized``. With exact moments (``noise_scale == 0``), delta =
    ``TIKHONOV_EPS``, which moves alpha from P^{-1} y by 2 delta^2/w^2
    relative in the direction of an eigenvalue w >> delta.

    ``system`` is a :class:`PreconditionedSystem` of a ``SystemAssembler``,
    whose P (cut off in place) and y are solved as they are, or a
    :class:`QuadraticSystem`,
    whose A must be exactly symmetric (any other A, one with a NaN included,
    raises InvalidInputError) and from which P and y are formed. Entries of P
    with |P_kl| <= ``OFFDIAG_CUTOFF`` sqrt|P_kk P_ll| are zeroed first: far
    below rounding, they would otherwise send the factorization through
    subnormal arithmetic. A diagonal P is then filtered entrywise. Any other
    P is solved as u = Re[(P - zI)^{-1} (1 - i) y] by a complex symmetric
    LDL' factorization of P - zI (Bunch and Kaufman, Math. Comp. 31, 1977),
    in one of two precisions:

    * single, LAPACK ``csytrf`` and ``csytrs``, refined in double, where the
      condition bound below is at most ``SINGLE_BOUND``, at least
      ``DENSE_FRACTION`` of P's entries are nonzero after the cut-off and
      P has at least ``SINGLE_MIN_SIZE`` rows.
      From x = 0, each step solves (P - zI) d = r for the residual
      r = (1 - i) y - (P - zI) x, taken in complex128 from the double P, and
      adds d to x (Langou et al., SC 2006; Carson and Higham, SIAM J. Sci.
      Comput. 40, 2018). It stops at LAPACK's test for ``zcgesv``: the
      largest |r_k| at most sqrt(n) eps (||P||_1 + sqrt(2) delta) times the
      largest |x_k|, eps = 2^-53. A node whose ``csytrf`` reports a zero
      pivot, or which fails the test after ``MAX_SINGLE_SOLVES`` solves,
      falls back to the double factorization;
    * double, LAPACK ``zsytrf`` and ``zsytrs``, everywhere else.

    ``condition`` is a condition number of P - zI, which bounds the error of
    the solve. Every eigenvalue of P - zI has modulus at least delta and
    ||P||_2 <= ||P||_1 for a symmetric P, so the 2-norm condition of
    P - zI is at most the bound (||P||_1 + sqrt(2) delta) / delta, from
    the column sums of |P|, and that bound is stored wherever it is within
    ``CONDITION_LIMIT``. It is loose where the least eigenvalue modulus is
    far above delta: with exact moments it reads ||P||_1 / ``TIKHONOV_EPS``,
    whatever P's own condition. Where it exceeds the limit, the 1-norm
    condition of P - zI decides and is stored: exact for a diagonal P (the
    largest over the least |d_k - z|, the same in every norm), otherwise
    ||P||_1 + sqrt(2) delta times LAPACK ``zsycon``'s estimate of
    ||(P - zI)^{-1}||_1, from the double factorization already made. That
    1-norm condition can exceed the 2-norm bound: on perfbench's pinwheel
    fit at tau = 0.05 the bound reads 1.49e3, the 2-norm condition 453 and
    the 1-norm condition 1.10e4 (``zsycon``'s figure 1.04e4). The bound and
    the 1-norm condition depend on P and delta alone, so a fit's conditions
    are byte-reproducible across processes. If the stored condition exceeds
    the limit (the message names the path and gives ||P||_1, delta, the
    bound and the condition), alpha is not finite, or a LAPACK routine other
    than ``csytrf`` reports an error, an IllConditionedError is raised.
    Returns a :class:`NodeSolve`.
    """
    if isinstance(system, PreconditionedSystem):
        return system.kernel.solve(system.P, system.y)
    if not np.array_equal(system.A, system.A.T):
        raise InvalidInputError("system matrix must be exactly symmetric")
    kernel = NodeKernel(system.lambdas, system.noise_scale)
    P = np.multiply.outer(kernel.scale, kernel.scale)
    np.divide(system.A, P, out=P)
    return kernel.solve(P, -system.b / kernel.scale)


class NodeKernel:
    """The node solve of :func:`solve_node` for every node of one fit: its
    n x n systems share delta, the active eigenvalues and, made once here,
    the constants, the work buffers and the LAPACK workspace sizes."""

    def __init__(self, lambdas, noise_scale):
        self.n = n = len(lambdas)
        self.scale = np.sqrt(-lambdas)
        self.regularized = noise_scale > 0.0
        self.delta = delta = SPECTRAL_FLOOR * noise_scale if self.regularized else TIKHONOV_EPS
        self.z = delta * complex(-1.0, 1.0)
        self.rhs_factor = complex(1.0, -1.0)
        self.norm_shift = math.sqrt(2.0) * delta  # ||P - zI||_1 <= ||P||_1 + norm_shift
        self.tolerance = math.sqrt(n) * np.finfo(float).eps / 2.0  # LAPACK's eps, 2^-53
        # the nonzeros the single path needs, which no small system has
        self.dense = DENSE_FRACTION * n * n if n >= SINGLE_MIN_SIZE else math.inf
        self.keep = np.empty((n, n), dtype=bool)
        self.M = np.empty((n, n), dtype=complex)
        # the cut-off's |P| and thresholds, then the single factor, reuse M's
        # bytes, which M itself takes only after all of them are spent
        head, tail = self.M.view(np.float64).reshape(2, n, n)
        self.cut, self.abs = head, tail
        self.M32 = head.view(np.complex64)
        self.M_diagonal = self.M.reshape(-1)[::n + 1]  # views
        self.M32_diagonal = self.M32.reshape(-1)[::n + 1]
        # the blocked algorithm's workspace: the default, n, runs the
        # unblocked one, at half the speed on 400 x 400 systems
        self.lwork = {name: _lwork(name, n) for name in ("zsytrf", "csytrf")}

    def solve(self, P, y):
        """The :class:`NodeSolve` of the symmetric P (cut off in place) and y."""
        d = P.diagonal().copy()
        root = np.sqrt(np.abs(d))
        absP = np.abs(P, out=self.abs)
        # keep |P_kl| > c sqrt|P_kk P_ll|, so that the kept entries are P's
        # nonzeros after the cut-off (every nonzero of a row or column with a
        # zero diagonal entry)
        keep = np.greater(
            absP, np.multiply.outer(OFFDIAG_CUTOFF * root, root, out=self.cut), out=self.keep)
        P *= keep
        absP *= keep
        nonzero = np.count_nonzero(keep)
        diagonal = nonzero == np.count_nonzero(d)
        # ||P||_1 from the column sums of |P|
        norm = np.abs(d).max() if diagonal else absP.sum(axis=0).max()
        bound = float((norm + self.norm_shift) / self.delta)
        if diagonal:
            delta = self.delta
            shifted = d + delta
            modulus = shifted * shifted + delta * delta  # |w - z|^2 at the eigenvalues w = d
            u = y * ((shifted + delta) / modulus)
            cond = bound
            if not bound <= CONDITION_LIMIT:
                cond = float(np.sqrt(modulus.max() / modulus.min()))
        else:
            rhs = self.rhs_factor * y
            x = None
            if bound <= SINGLE_BOUND and nonzero >= self.dense:
                x, cond = self._refined(P, rhs, bound), bound
            if x is None:
                x, cond = self._factored(P, rhs, bound)
            u = x.real
        if not cond <= CONDITION_LIMIT:
            raise IllConditionedError(
                f"the {'diagonal' if diagonal else 'LDL'} filtered path is ill-conditioned: "
                f"||P||_1 {norm:.3e}, delta {self.delta:.3e}, condition bound {bound:.3e} "
                f"(condition {cond:.3e})", cond)
        alpha = u / self.scale
        if not np.isfinite(alpha).all():
            raise IllConditionedError(f"non-finite coefficients (condition ~ {cond:.3e})", cond)
        return NodeSolve(alpha, cond, self.regularized)

    def _factored(self, P, rhs, bound):
        """x = (P - zI)^{-1} rhs by ``zsytrf`` and ``zsytrs``, and the condition
        of P - zI: ``bound``, or where that exceeds ``CONDITION_LIMIT``,
        ``bound * delta`` (at least ||P - zI||_1) times the ``zsycon``
        estimate of ||(P - zI)^{-1}||_1."""
        M = self.M
        np.copyto(M, P)
        self.M_diagonal -= self.z
        # M is symmetric, so M.T is M in the column-major order LAPACK reads (no copy)
        ldl, ipiv, info = lapack.zsytrf(M.T, lwork=self.lwork["zsytrf"], overwrite_a=1)
        _check_lapack("zsytrf", info)
        cond = bound
        if not bound <= CONDITION_LIMIT:
            rcond, info = lapack.zsycon(ldl, ipiv, bound * self.delta)
            _check_lapack("zsycon", info)
            cond = 1.0 / rcond if rcond > 0.0 else np.inf
        x, info = lapack.zsytrs(ldl, ipiv, rhs[:, None], overwrite_b=1)
        _check_lapack("zsytrs", info)
        return x[:, 0], cond

    def _refined(self, P, rhs, bound):
        """x = (P - zI)^{-1} rhs from ``csytrf`` and refinement in double (see
        solve_node), or None where the factor has a zero pivot or the
        residual test fails after ``MAX_SINGLE_SOLVES`` solves."""
        n, M = self.n, self.M32
        np.copyto(M, P, casting="same_kind")
        self.M32_diagonal -= self.z
        ldl, ipiv, info = lapack.csytrf(M.T, lwork=self.lwork["csytrf"], overwrite_a=1)
        if info != 0:
            return None
        limit = self.tolerance * bound * self.delta
        x = np.zeros(n, dtype=complex)
        r = rhs
        for solves in range(MAX_SINGLE_SOLVES + 1):
            size = np.abs(r).max()
            if size <= limit * np.abs(x).max():  # at x = 0, only where rhs = 0
                return x
            if solves == MAX_SINGLE_SOLVES:
                return None
            # r scaled to 1, so that float32 neither underflows nor overflows
            d, info = lapack.csytrs(ldl, ipiv, (r / size).astype(np.complex64)[:, None],
                                    overwrite_b=1)
            _check_lapack("csytrs", info)
            x += size * d[:, 0]
            # (P - zI) x from one real product of P with x's real and imaginary parts
            Px = (P @ x.view(np.float64).reshape(n, 2)).view(complex)[:, 0]
            r = rhs - Px + self.z * x


def _lwork(name, n):
    lwork, info = getattr(lapack, f"{name}_lwork")(n)
    _check_lapack(f"{name}_lwork", info)
    return int(lwork.real)


def _check_lapack(name, info):
    if info != 0:
        raise IllConditionedError(f"LAPACK {name} failed (info = {info})", np.inf)


# ---------------------------------------------------------------------------
# Presolved score model
# ---------------------------------------------------------------------------

@dataclass
class ScoreModel:
    """Basis + time grid of solved coefficients; evaluates score/energy/Laplacian."""

    basis: EigenBasis
    schedule: Schedule
    grid: np.ndarray
    alphas: np.ndarray  # (len(grid), n_active)
    domain_map: DomainMap
    # the fit's per-node "condition" (see presolve_grid); a loaded model has none
    diagnostics: dict = field(default_factory=dict)

    @property
    def process(self):
        return self.basis.process

    @functools.cached_property
    def _hermite(self):
        """Node values and spline slopes of alpha(tau), interleaved: row 2j is
        alphas[j], row 2j + 1 the slope of :func:`spline_slopes` there."""
        slopes = spline_slopes(self.grid, self.alphas)
        return np.stack([self.alphas, slopes], axis=1).reshape(-1, self.alphas.shape[1])


def presolve_grid(basis, table, moments, schedule, n_times=1000, domain_map=None):
    """Solve the system on an even tau grid covering [0, 1].

    Keeps the per-node conditions (see :func:`solve_node`) as the model's
    ``diagnostics["condition"]``, which :func:`model_to_dict` does not write.
    """
    if n_times < 2:
        raise InvalidInputError("n_times must be >= 2")
    assembler = SystemAssembler(basis, table, moments)
    grid = np.linspace(0.0, 1.0, n_times)
    alphas = np.empty((n_times, basis.n_active))
    conds = np.empty(n_times)
    for g, tau in enumerate(grid):
        try:
            node = solve_node(assembler.preconditioned(internal_time(schedule, tau)))
        except IllConditionedError as exc:
            raise IllConditionedError(
                f"solve failed at tau={tau:.6f}: {exc}", exc.condition_estimate
            ) from exc
        alphas[g] = node.alpha
        conds[g] = node.condition
    if domain_map is None:
        domain_map = DomainMap.identity(basis.dimension)
    return ScoreModel(
        basis=basis,
        schedule=schedule,
        grid=grid,
        alphas=alphas,
        domain_map=domain_map,
        diagnostics={"condition": conds},
    )


def spline_slopes(x, y):
    """Node slopes of the not-a-knot cubic spline through (x[i], y[i]), per column of y.

    The slopes make the piecewise cubic Hermite interpolant twice continuously
    differentiable at the interior nodes, and thrice at the second and the
    next-to-last node (de Boor, *A Practical Guide to Splines*, 1978, ch. IV):
    one tridiagonal solve for all columns. Through three nodes the spline is
    the parabola, through two the secant line.
    """
    n = len(x)
    dx = np.diff(x)
    secant = np.diff(y, axis=0) / dx[:, None]
    if n == 2:
        return np.concatenate([secant, secant])
    ab = np.zeros((3, n))  # super-diagonal, diagonal, sub-diagonal
    rhs = np.empty_like(y)
    ab[0, 2:] = dx[:-1]
    ab[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
    ab[2, :-2] = dx[1:]
    rhs[1:-1] = 3.0 * (dx[1:, None] * secant[:-1] + dx[:-1, None] * secant[1:])
    if n == 3:  # the mean slope over each interval is its secant
        ab[1, 0] = ab[0, 1] = ab[2, 1] = ab[1, 2] = 1.0
        rhs[0], rhs[-1] = 2.0 * secant[0], 2.0 * secant[-1]
    else:
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        ab[1, 0], ab[0, 1] = dx[1], d0
        rhs[0] = ((dx[0] + 2.0 * d0) * dx[1] * secant[0] + dx[0] ** 2 * secant[1]) / d0
        ab[2, -2], ab[1, -1] = d1, dx[-2]
        rhs[-1] = (dx[-1] ** 2 * secant[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * secant[-1]) / d1
    return scipy.linalg.solve_banded((1, 1), ab, rhs, check_finite=False)


def alpha_at(model, tau):
    """Coefficients at tau from the not-a-knot cubic spline of the nodes' alphas.

    alpha(tau) is smooth in tau, and the presolved nodes sample it; the
    spline through them (:func:`spline_slopes`, built once per model) is read
    in cubic Hermite form on the node interval holding tau, so a node's tau
    returns the node's alpha exactly. Raises InvalidInputError for tau outside
    [0, 1].
    """
    grid = model.grid  # spans [0, 1] exactly (presolve_grid, model_from_dict)
    tau = _check_tau(tau)
    j = min(int(grid.searchsorted(tau, side="right")), len(grid) - 1) - 1
    lo, hi = grid[j:j + 2].tolist()
    h = hi - lo
    s = (tau - lo) / h
    r = 1.0 - s
    w = np.array([(1.0 + 2.0 * s) * r * r, h * s * r * r, s * s * (3.0 - 2.0 * s), -h * s * s * r])
    return w @ model._hermite[2 * j:2 * j + 4]


# ---------------------------------------------------------------------------
# Score-matching loss: the quadratic of a reference's exact moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor trapezoid rule for the weighted L2 loss: nodes per dimension and bounds."""

    n_nodes: int = 4096  # per dimension
    lower: float = -math.pi
    upper: float = math.pi


def trapezoid_grid(spec, dimension):
    """Nodes (N, d) and weights (N,) of the tensor trapezoid rule."""
    if spec.n_nodes < 2:
        raise InvalidInputError(
            f"a trapezoid grid needs at least 2 nodes per dimension, got {spec.n_nodes}")
    x = np.linspace(spec.lower, spec.upper, spec.n_nodes)
    w = np.full(spec.n_nodes, x[1] - x[0])
    w[[0, -1]] *= 0.5
    nodes = np.stack([g.ravel() for g in np.meshgrid(*[x] * dimension, indexing="ij")], axis=1)
    return nodes, functools.reduce(np.multiply.outer, [w] * dimension).ravel()


@dataclass(frozen=True)
class ReferenceLoss:
    """J(alpha) = E|grad f_alpha - grad log(rho_t / pi)|^2 under rho_t at internal
    time ``t``: the quadratic alpha' A alpha + 2 b' alpha + C of the reference's
    exact moments, as floor + (alpha - a)' A (alpha - a) about its minimizer
    a = ``alpha``, with ``floor`` = J(a) the truncation error of the basis."""

    t: float
    A: np.ndarray
    alpha: np.ndarray
    floor: float

    def __call__(self, alpha):
        e = np.asarray(alpha, dtype=float) - self.alpha
        return float(self.floor + e @ self.A @ e)


def reference_loss(basis, table, reference, tau, quadrature):
    """The :class:`ReferenceLoss` of ``basis`` at ``tau`` on the reference's clock:
    A and its minimizer from the solve a fit makes with the reference's exact
    :func:`analytic_moments` (the filter at delta = ``TIKHONOV_EPS``), J there
    by the trapezoid rule of ``quadrature``. Raises UnsupportedTargetError
    without an :class:`AnalyticReference` and InvalidInputError for one of
    another process."""
    if not isinstance(reference, AnalyticReference):
        raise UnsupportedTargetError("no ground-truth score reference available")
    if reference.process != basis.process:
        raise InvalidInputError(
            f"the reference follows process {reference.process!r}, the basis {basis.process!r}")
    t = internal_time(reference.schedule, tau)
    assembler = SystemAssembler(basis, table, analytic_moments(reference.gm, basis))
    alpha = solve_node(assembler.preconditioned(t)).alpha
    nodes, weights = trapezoid_grid(quadrature, basis.dimension)
    pdf, score = reference.pdf_and_score(nodes, tau)
    diff = basis.eval_batch(nodes)[1][:, :, 1:] @ alpha - score
    floor = float(weights @ (pdf * (diff * diff).sum(axis=1)))
    return ReferenceLoss(t, assembler.system(t).A, alpha, floor)


def sm_loss(model, tau, reference, quadrature=QuadratureSpec()):
    """The :class:`ReferenceLoss` of the model's coefficients at tau. A reference
    on another schedule than the model's raises InvalidInputError."""
    if isinstance(reference, AnalyticReference) and reference.schedule != model.schedule:
        raise InvalidInputError("the reference runs on another schedule than the model")
    loss = reference_loss(model.basis, product_table(model.basis), reference, tau, quadrature)
    return loss(alpha_at(model, tau))


def shrinkage_losses(data, bases, losses):
    """Losses of fits from sample-mean and modulation-shrunk moments.

    Each ``(basis, table)`` of ``bases`` is fit to ``data`` twice, from its
    sample moments and from their :func:`modulation_shrink`, by one node solve
    at the time of each :class:`ReferenceLoss` of ``losses[i]``, which scores
    it. Returns an array (len(bases), len(losses[i]), 2), sample-mean first.
    """
    out = np.empty((len(bases), len(losses[0]), 2))
    for i, (basis, table) in enumerate(bases):
        raw = sample_moments(basis, data)
        for j, moments in enumerate((raw, modulation_shrink(raw))):
            assembler = SystemAssembler(basis, table, moments)
            for g, loss in enumerate(losses[i]):
                out[i, g, j] = loss(solve_node(assembler.preconditioned(loss.t)).alpha)
    return out


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------

def model_to_dict(model):
    return {
        "version": MODEL_FORMAT_VERSION,
        "basis": basis_to_dict(model.basis),
        "schedule": model.schedule.to_dict(),
        "domain_map": model.domain_map.to_dict(),
        "grid": model.grid.tolist(),
        "alphas": model.alphas.tolist(),
    }


def model_from_dict(d):
    """Rebuild a model written by :func:`model_to_dict` (format version 1 or 2).

    Raises InvalidInputError for missing keys, a descriptor too large to
    build, ``alphas`` that are non-finite or not (len(grid), n_active), a
    grid that does not increase strictly from 0 to 1, and a domain map whose
    ``scale`` or ``shift`` is not (dimension,) finite values or whose
    ``scale`` has a zero. Other keys are ignored, among them the per-node
    ``diagnostics`` and the ``provenance`` that version-1 files carry.
    """
    if not isinstance(d, dict):
        raise InvalidInputError("a model must be a JSON object")
    if d.get("version") not in (1, MODEL_FORMAT_VERSION):
        raise InvalidInputError(f"unsupported model version {d.get('version')!r}")
    try:
        model = ScoreModel(
            basis=basis_from_dict(d["basis"]),
            schedule=Schedule.from_dict(d["schedule"]),
            grid=np.asarray(d["grid"], dtype=float),
            alphas=np.asarray(d["alphas"], dtype=float),
            domain_map=DomainMap.from_dict(d["domain_map"]),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed model: {type(exc).__name__}: {exc}") from exc
    grid = model.grid
    if not (grid.ndim == 1 and len(grid) >= 2 and grid[0] == 0.0 and grid[-1] == 1.0
            and np.all(np.diff(grid) > 0)):
        raise InvalidInputError("model grid must increase strictly from 0 to 1")
    if model.alphas.shape != (len(grid), model.basis.n_active):
        raise InvalidInputError(
            f"alphas have shape {model.alphas.shape}, expected "
            f"({len(grid)}, {model.basis.n_active})")
    if not np.all(np.isfinite(model.alphas)):
        raise InvalidInputError("alphas must be finite")
    dm = model.domain_map
    for name, values in (("scale", dm.scale), ("shift", dm.shift)):
        if values.shape != (model.basis.dimension,) or not np.all(np.isfinite(values)):
            raise InvalidInputError(
                f"domain map {name} must hold {model.basis.dimension} finite values")
    if np.any(dm.scale == 0.0):
        raise InvalidInputError("domain map scale must be nonzero")
    return model


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path):
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise InvalidInputError(f"{path} is not a JSON model: {exc}") from exc
    return model_from_dict(d)


def dataset_hash(points):
    return hashlib.sha256(np.ascontiguousarray(points, dtype=float).tobytes()).hexdigest()[:16]
