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
``TIKHONOV_EPS`` with exact moments (see solve_node); the per-node
diagnostics are the condition of P - zI (a bound where that certifies the
solve) and whether delta is the noise floor.
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

MODEL_FORMAT_VERSION = 1
CONDITION_LIMIT = 1e12
TIKHONOV_EPS = 1e-8
# Eigenvalues of the preconditioned matrix below SPECTRAL_FLOOR times the
# average standard error of the estimated moments are statistically
# indistinguishable from zero; the solver filters them instead of dividing by
# them (see solve_node).
SPECTRAL_FLOOR = 3.0
# Entries of the preconditioned matrix below OFFDIAG_CUTOFF times the
# geometric mean of their row's and column's diagonal entries are zeroed
# before the solve (see solve_node). They lie far below the rounding of the
# diagonal, and left in, they slow the factorizations down with subnormal
# arithmetic.
OFFDIAG_CUTOFF = 1e-20


@dataclass(frozen=True)
class QuadraticSystem:
    """One assembled system: matrix, linear term, active eigenvalues, time."""

    A: np.ndarray
    b: np.ndarray
    lambdas: np.ndarray  # eigenvalues of the active basis functions (< 0)
    t: float
    noise_scale: float = 0.0  # average standard error of the moments (0 = exact)


class SystemAssembler:
    """The sparse construction of every system from one set of moments.

    A_t is linear in e^{lam_h t}: flattened, it is ``S @ e^{lam_ext t}``.
    ``S`` holds the product table's pairs ``1 <= k <= l`` of the active
    basis with coefficients ((lam_h - lam_k - lam_l)/2) beta_h^{(k,l)} theta_h,
    mirrored off the diagonal. Raises CapacityError unless the moments cover
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
        active = table.k >= 1
        k, l, h = table.k[active], table.l[active], table.h[active]
        coef = ((lam_ext[h] - lam[k] - lam[l]) / 2.0) * table.beta[active] * moments.theta[h]
        keep = coef != 0
        k, l, h, coef = k[keep] - 1, l[keep] - 1, h[keep], coef[keep]
        off = k != l
        self.n = n = basis.n_active
        self.S = scipy.sparse.csr_matrix(
            (np.concatenate([coef, coef[off]]),
             (np.concatenate([k * n + l, l[off] * n + k[off]]), np.concatenate([h, h[off]]))),
            shape=(n * n, len(lam_ext)),
        )
        self.lam_active = lam[1:]
        self.theta_active = moments.theta[1:len(basis.functions)]
        self.noise_scale = float(np.sqrt(np.mean(moments.var_hat)))

    def system(self, t):
        """A_t and b_t[k] = lam_k e^{lam_k t} theta_k over the active basis."""
        growth = np.exp(self.lam_ext * t)  # the active basis is its entries 1..n
        A = (self.S @ growth).reshape(self.n, self.n)
        b = self.lam_active * growth[1:self.n + 1] * self.theta_active
        return QuadraticSystem(A=A, b=b, lambdas=self.lam_active, t=float(t),
                               noise_scale=self.noise_scale)


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

    A must be exactly symmetric (``SystemAssembler`` makes it so); any other
    A, one with a NaN included, raises InvalidInputError. Entries of P with
    |P_kl| < ``OFFDIAG_CUTOFF`` sqrt|P_kk P_ll| are zeroed first: far below
    rounding, they would otherwise send the factorization through subnormal
    arithmetic. A diagonal P is then filtered entrywise. For any other P,
    one complex symmetric LDL' factorization of P - zI (Bunch and Kaufman,
    Math. Comp. 31, 1977; LAPACK ``zsytrf`` and ``zsytrs``) gives
    u = Re[(P - zI)^{-1} (1 - i) y].

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
    ||(P - zI)^{-1}||_1, from the factorization already made. That 1-norm
    condition can exceed the 2-norm bound: on perfbench's pinwheel fit at
    tau = 0.05 the bound reads 1.49e3, the 2-norm condition 453 and the
    1-norm condition 1.10e4 (``zsycon``'s figure 1.04e4). The bound and the
    1-norm condition depend on P and delta alone, so model files are
    byte-reproducible across processes. If the stored condition exceeds the
    limit (the message names the path and gives ||P||_1, delta, the bound
    and the condition), alpha is not finite, or a LAPACK routine reports an
    error, an IllConditionedError is raised. Returns a :class:`NodeSolve`.
    """
    if not np.array_equal(system.A, system.A.T):
        raise InvalidInputError("system matrix must be exactly symmetric")
    scale = np.sqrt(-system.lambdas)
    P = np.multiply.outer(scale, scale)
    np.divide(system.A, P, out=P)
    y = -system.b / scale
    regularized = system.noise_scale > 0.0
    delta = SPECTRAL_FLOOR * system.noise_scale if regularized else TIKHONOV_EPS
    d = np.diag(P).copy()
    ratio = np.abs(P)
    root = np.sqrt(ratio.diagonal())
    # |P_kl| / sqrt|P_kk P_ll|: inf in a row or column with a zero diagonal
    # entry, which keeps its entries, or nan where P_kl is 0 already
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio /= root
        ratio /= root[:, None]
    P *= ratio >= OFFDIAG_CUTOFF
    diagonal = np.count_nonzero(P) == np.count_nonzero(d)
    # ||P||_1 from the column sums of |P|; ratio is spent and becomes the work array
    norm = np.abs(d).max() if diagonal else np.abs(P, out=ratio).sum(axis=0).max()
    bound = float((norm + math.sqrt(2.0) * delta) / delta)
    if diagonal:
        shifted = d + delta
        modulus = shifted * shifted + delta * delta  # |w - z|^2 at the eigenvalues w = d
        u = y * ((shifted + delta) / modulus)
        cond = bound if bound <= CONDITION_LIMIT else float(np.sqrt(modulus.max() / modulus.min()))
    else:
        u, cond = _filtered_solve(P, y, delta, bound)
    if not cond <= CONDITION_LIMIT:
        raise IllConditionedError(
            f"the {'diagonal' if diagonal else 'LDL'} filtered path is ill-conditioned: "
            f"||P||_1 {norm:.3e}, delta {delta:.3e}, condition bound {bound:.3e} "
            f"(condition {cond:.3e})", cond)
    alpha = u / scale
    if not np.all(np.isfinite(alpha)):
        raise IllConditionedError(f"non-finite coefficients (condition ~ {cond:.3e})", cond)
    return NodeSolve(alpha, cond, regularized)


def _filtered_solve(P, y, delta, bound):
    """u = Re[(P - zI)^{-1} (1 - i) y], z = delta (-1 + i), for the symmetric
    P, by one complex symmetric LDL' factorization, and the condition of P -
    zI: ``bound``, or where that exceeds ``CONDITION_LIMIT``, ``bound *
    delta`` (at least ||P - zI||_1) times the ``zsycon`` estimate of
    ||(P - zI)^{-1}||_1."""
    n = len(P)
    M = P.astype(complex)
    M.flat[::n + 1] -= delta * complex(-1.0, 1.0)
    # the blocked algorithm's workspace: zsytrf's default, n, runs the
    # unblocked one, at half the speed on 400 x 400 systems
    lwork, info = lapack.zsytrf_lwork(n)
    _check_lapack("zsytrf_lwork", info)
    # M is symmetric, so M.T is M in the column-major order LAPACK reads (no copy)
    ldl, ipiv, info = lapack.zsytrf(M.T, lwork=int(lwork.real), overwrite_a=1)
    _check_lapack("zsytrf", info)
    cond = bound
    if not bound <= CONDITION_LIMIT:
        rcond, info = lapack.zsycon(ldl, ipiv, bound * delta)
        _check_lapack("zsycon", info)
        cond = 1.0 / rcond if rcond > 0.0 else np.inf
    x, info = lapack.zsytrs(ldl, ipiv, (complex(1.0, -1.0) * y)[:, None], overwrite_b=1)
    _check_lapack("zsytrs", info)
    return x[:, 0].real, cond


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
    diagnostics: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

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

    Stores per-node conditions and whether delta is the noise floor
    of sampled moments (see :func:`solve_node`) in the model diagnostics.
    """
    if n_times < 2:
        raise InvalidInputError("n_times must be >= 2")
    assembler = SystemAssembler(basis, table, moments)
    grid = np.linspace(0.0, 1.0, n_times)
    alphas = np.empty((n_times, basis.n_active))
    conds = np.empty(n_times)
    regs = np.zeros(n_times, dtype=bool)
    for g, tau in enumerate(grid):
        system = assembler.system(internal_time(schedule, tau))
        try:
            node = solve_node(system)
        except IllConditionedError as exc:
            raise IllConditionedError(
                f"solve failed at tau={tau:.6f}: {exc}", exc.condition_estimate
            ) from exc
        alphas[g] = node.alpha
        conds[g] = node.condition
        regs[g] = node.regularized
    if domain_map is None:
        domain_map = DomainMap.identity(basis.dimension)
    return ScoreModel(
        basis=basis,
        schedule=schedule,
        grid=grid,
        alphas=alphas,
        domain_map=domain_map,
        diagnostics={"condition": conds, "regularized": regs},
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
    system = SystemAssembler(basis, table, analytic_moments(reference.gm, basis)).system(t)
    alpha = solve_node(system).alpha
    nodes, weights = trapezoid_grid(quadrature, basis.dimension)
    pdf, score = reference.pdf_and_score(nodes, tau)
    diff = basis.eval_batch(nodes)[1][:, :, 1:] @ alpha - score
    floor = float(weights @ (pdf * (diff * diff).sum(axis=1)))
    return ReferenceLoss(t, system.A, alpha, floor)


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
                out[i, g, j] = loss(solve_node(assembler.system(loss.t)).alpha)
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
        "diagnostics": _diagnostics_to_dict(model.diagnostics),
        "provenance": model.provenance,
    }


def _diagnostics_to_dict(diag):
    return {"condition": diag["condition"].tolist(),
            "regularized": diag["regularized"].astype(int).tolist()}


def _diagnostics_from_dict(d):
    return {"condition": np.asarray(d["condition"], dtype=float),
            "regularized": np.asarray(d["regularized"], dtype=bool)}


def model_from_dict(d):
    """Rebuild a model written by :func:`model_to_dict`.

    Raises InvalidInputError for missing keys, ``alphas`` that are non-finite
    or not (len(grid), n_active), a grid that does not increase strictly from
    0 to 1, and diagnostics whose lengths differ from the grid's. Other
    diagnostics, which older files carry (``clamped`` among them), are
    ignored.
    """
    if not isinstance(d, dict):
        raise InvalidInputError("a model must be a JSON object")
    if d.get("version") != MODEL_FORMAT_VERSION:
        raise InvalidInputError(f"unsupported model version {d.get('version')!r}")
    try:
        model = ScoreModel(
            basis=basis_from_dict(d["basis"]),
            schedule=Schedule.from_dict(d["schedule"]),
            grid=np.asarray(d["grid"], dtype=float),
            alphas=np.asarray(d["alphas"], dtype=float),
            domain_map=DomainMap.from_dict(d["domain_map"]),
            diagnostics=_diagnostics_from_dict(d["diagnostics"]),
            provenance=dict(d.get("provenance", {})),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
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
    for name, values in model.diagnostics.items():
        if values.shape != grid.shape:
            raise InvalidInputError(f"diagnostic {name!r} does not match the grid")
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
