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
symmetric preconditioning Lambda^{-1/2} A_t Lambda^{-1/2}, Lambda =
diag(-lam_k), which tends to the identity as t grows (A_t -> Lambda).
Eigenvalues of the preconditioned matrix below a noise floor are raised to
it (see solve_node); the per-node diagnostics are the condition estimate,
whether the floor acted, and how many eigenvalues it raised.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg import lapack

from .basis import EigenBasis, basis_from_dict, basis_to_dict
from .errors import (
    CapacityError,
    IllConditionedError,
    InvalidInputError,
    UnsupportedTargetError,
)
from .moments import modulation_shrink, sample_moments
from .process import Schedule, _check_tau, check_domain, internal_time
from .targets import DomainMap

MODEL_FORMAT_VERSION = 1
CONDITION_LIMIT = 1e12
TIKHONOV_EPS = 1e-8
# Eigenvalues of the preconditioned matrix below SPECTRAL_FLOOR times the
# average standard error of the estimated moments are statistically
# indistinguishable from zero; the solver floors them instead of dividing by
# them (see solve_node).
SPECTRAL_FLOOR = 3.0


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
        A = (self.S @ np.exp(self.lam_ext * t)).reshape(self.n, self.n)
        A = (A + A.T) / 2.0
        b = self.lam_active * np.exp(self.lam_active * t) * self.theta_active
        return QuadraticSystem(A=A, b=b, lambdas=self.lam_active, t=float(t),
                               noise_scale=self.noise_scale)


@dataclass(frozen=True)
class NodeSolve:
    """Result of solving one node: coefficients plus solve diagnostics."""

    alpha: np.ndarray
    condition: float  # 1-norm estimate on Cholesky nodes, spectral ratio if regularized
    regularized: bool
    clamped: int  # eigenvalues raised to the floor (0 on Cholesky nodes)


def solve_node(system):
    """Minimizer of alpha'A alpha + 2 b'alpha via the symmetric preconditioning.

    With Lambda = diag(-lambdas), the system is solved as P u = y with
    P = Lambda^{-1/2} A Lambda^{-1/2}, y = -Lambda^{-1/2} b and
    alpha = Lambda^{-1/2} u. Eigenvalues of P below the floor
    delta = ``SPECTRAL_FLOOR * noise_scale`` (0 for exact moments) carry no
    statistically significant signal, so they are raised to delta, negative
    ones reflected to their magnitude first; directions the data cannot
    resolve are damped instead of amplified.

    If P - delta I has a Cholesky factor and P's condition estimate is within
    ``CONDITION_LIMIT``, the floor acts nowhere and alpha comes from a
    Cholesky solve with P. Otherwise alpha comes from the eigendecomposition
    of P with its spectrum floored at max(delta, ``TIKHONOV_EPS``), and the
    result is flagged ``regularized``, with ``clamped`` counting the
    eigenvalues of magnitude below that floor. The reported ``condition`` is
    P's LAPACK 1-norm estimate on Cholesky nodes and the 2-norm ratio of the
    floored spectrum on regularized ones. If the floored spectrum is still
    ill-conditioned, or alpha is not finite, an IllConditionedError is
    raised. Returns a :class:`NodeSolve`.
    """
    if not np.allclose(system.A, system.A.T, atol=1e-10):
        raise InvalidInputError("system matrix must be symmetric")
    scale = np.sqrt(-system.lambdas)
    P = system.A / np.outer(scale, scale)
    y = -system.b / scale
    delta = SPECTRAL_FLOOR * system.noise_scale
    try:
        if delta > 0.0:
            scipy.linalg.cho_factor(P - delta * np.eye(len(P)), check_finite=False)
        factor = scipy.linalg.cho_factor(P, check_finite=False)
    except scipy.linalg.LinAlgError:
        cond = np.inf
    else:
        rcond, _ = lapack.dpocon(factor[0], np.linalg.norm(P, 1))
        cond = np.inf if rcond == 0 else 1.0 / rcond
    regularized = not cond <= CONDITION_LIMIT
    clamped = 0
    if regularized:
        w, V = scipy.linalg.eigh(P, check_finite=False)
        floor = max(delta, TIKHONOV_EPS)
        clamped = int(np.count_nonzero(np.abs(w) < floor))
        w_eff = np.maximum(np.abs(w), floor)
        cond = float(w_eff.max() / w_eff.min())
        alpha = (V @ ((V.T @ y) / w_eff)) / scale
    else:
        alpha = scipy.linalg.cho_solve(factor, y, check_finite=False) / scale
    if not (cond <= CONDITION_LIMIT and np.all(np.isfinite(alpha))):
        raise IllConditionedError(
            f"preconditioned system is singular (condition ~ {cond:.3e})", cond
        )
    return NodeSolve(alpha, cond, regularized, clamped)


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


def presolve_grid(basis, table, moments, schedule, n_times=1000,
                  domain_map=None, provenance=None):
    """Solve the system on an even tau grid covering [0, 1].

    Stores per-node condition estimates, the flags of the nodes where the
    spectral floor acted and the number of eigenvalues it raised (see
    :func:`solve_node`) in the model diagnostics.
    """
    if n_times < 2:
        raise InvalidInputError("n_times must be >= 2")
    assembler = SystemAssembler(basis, table, moments)
    grid = np.linspace(0.0, 1.0, n_times)
    alphas = np.empty((n_times, basis.n_active))
    conds = np.empty(n_times)
    regs = np.zeros(n_times, dtype=bool)
    clamped = np.zeros(n_times, dtype=int)
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
        clamped[g] = node.clamped
    if domain_map is None:
        domain_map = DomainMap.identity(basis.dimension)
    return ScoreModel(
        basis=basis,
        schedule=schedule,
        grid=grid,
        alphas=alphas,
        domain_map=domain_map,
        diagnostics={
            "condition": conds,
            "regularized": regs,
            "clamped": clamped,
        },
        provenance=dict(provenance or {}),
    )


def alpha_at(model, tau):
    """Coefficients at tau by linear interpolation between grid nodes."""
    grid = model.grid  # spans [0, 1] exactly (presolve_grid, model_from_dict)
    tau = _check_tau(tau)
    j = int(np.searchsorted(grid, tau, side="right")) - 1
    if j >= len(grid) - 1:
        return model.alphas[-1].copy()
    w = (tau - grid[j]) / (grid[j + 1] - grid[j])
    return (1.0 - w) * model.alphas[j] + w * model.alphas[j + 1]


def model_eval_batch(model, X, tau):
    """Energy, score and Laplacian of the fitted model at points X (N, d), in float64."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    check_domain(model.process, X)
    return model.basis.weighted_eval(X, alpha_at(model, tau))


# ---------------------------------------------------------------------------
# Score-matching loss against a ground-truth reference
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
    w[0] *= 0.5
    w[-1] *= 0.5
    if dimension == 1:
        return x[:, None], w
    grids = np.meshgrid(*([x] * dimension), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    W = w
    for _ in range(dimension - 1):
        W = np.multiply.outer(W, w)
    return nodes, W.ravel()


@dataclass(frozen=True)
class LossGrid:
    """Quadrature at one tau with the reference's density and relative score there."""

    tau: float
    nodes: np.ndarray
    weights: np.ndarray
    density: np.ndarray  # rho_tau at the nodes
    target: np.ndarray  # grad log(rho_tau / pi) at the nodes


def loss_grid(reference, tau, quadrature, dimension):
    """Trapezoid nodes and weights with the reference evaluated on them once."""
    if reference is None or not hasattr(reference, "relative_score"):
        raise UnsupportedTargetError("no ground-truth score reference available")
    nodes, weights = trapezoid_grid(quadrature, dimension)
    return LossGrid(float(tau), nodes, weights, reference.pdf(nodes, tau),
                    reference.relative_score(nodes, tau))


def score_error(basis, alpha, grid):
    """Integral of |s_alpha - grad log(rho_tau/pi)|^2 rho_tau by the grid's rule,
    where s_alpha is the score of the energy sum_k alpha_k phi_k."""
    diff = basis.weighted_eval(grid.nodes, alpha)[1] - grid.target
    return float(grid.weights @ (grid.density * (diff * diff).sum(axis=1)))


def sm_loss(model, tau, reference, quadrature=QuadratureSpec()):
    """Weighted L2 distance between the model score at tau and the true relative
    score, by the trapezoid rule of ``quadrature`` (see :func:`score_error`)."""
    grid = loss_grid(reference, tau, quadrature, model.basis.dimension)
    return score_error(model.basis, alpha_at(model, tau), grid)


def shrinkage_losses(data, bases, schedule, grids):
    """Score errors of fits from sample-mean and modulation-shrunk moments.

    Each ``(basis, table)`` of ``bases`` is fit to ``data`` twice, from its
    sample moments and from their :func:`modulation_shrink`, by one node solve
    at each grid's internal time. Returns the :func:`score_error` values as an
    array (len(bases), len(grids), 2), sample-mean first.
    """
    times = [internal_time(schedule, grid.tau) for grid in grids]
    out = np.empty((len(bases), len(grids), 2))
    for i, (basis, table) in enumerate(bases):
        raw = sample_moments(basis, data)
        for j, moments in enumerate((raw, modulation_shrink(raw))):
            assembler = SystemAssembler(basis, table, moments)
            for g, (grid, t) in enumerate(zip(grids, times)):
                alpha = solve_node(assembler.system(t)).alpha
                out[i, g, j] = score_error(basis, alpha, grid)
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
    out = {"condition": diag["condition"].tolist(),
           "regularized": diag["regularized"].astype(int).tolist()}
    if "clamped" in diag:
        out["clamped"] = diag["clamped"].tolist()
    return out


def _diagnostics_from_dict(d):
    diag = {"condition": np.asarray(d["condition"], dtype=float),
            "regularized": np.asarray(d["regularized"], dtype=bool)}
    if "clamped" in d:  # absent from files written before the count existed
        diag["clamped"] = np.asarray(d["clamped"], dtype=int)
    return diag


def model_from_dict(d):
    """Rebuild a model written by :func:`model_to_dict`.

    Raises InvalidInputError for missing keys, ``alphas`` that are non-finite
    or not (len(grid), n_active), a grid that does not increase strictly from
    0 to 1, and diagnostics whose lengths differ from the grid's. The
    ``clamped`` diagnostic is optional, since older files lack it; other
    diagnostics, which older files carry, are ignored.
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
