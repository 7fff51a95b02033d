"""Command-line interface: data generation, fitting, sampling, densities.

Subcommands: gen-data, fit, sample, density, loss-study, eigen-report.
Every run is deterministic given (config, seed) and writes a provenance JSON
sidecar next to its output. Exit codes: 0 ok, 2 config error, 3 solver
error, 4 domain error, 5 unsupported target.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .basis import (
    OU,
    TRUNCATED_BM,
    hermite_univariate_basis,
    product_table,
    trig_basis_1d,
    trig_basis_nd,
)
from .errors import (
    ConfigError,
    DomainError,
    EigenScoreError,
    IllConditionedError,
    InvalidInputError,
    NonConvergenceError,
    UnsupportedTargetError,
)
from .generate import sample_pf_ode, sample_reverse_sde, log_density
from .odeint import IntegratorConfig
from .moments import modulation_shrink, sample_moments
from .process import VE, Schedule, internal_time, tau_at, wrap_torus
from .solver import (
    QuadratureSpec,
    dataset_hash,
    load_model,
    presolve_grid,
    reference_loss,
    save_model,
    shrinkage_losses,
    trapezoid_grid,
)
from .targets import (
    AnalyticReference,
    bart_simpson,
    sample_gaussian_mixture,
    toy2d,
    _TOYS,
)

LOSS_STUDY_T = 0.02  # internal time of the loss study's second default tau
ESTIMATORS = ("sample-mean", "shrinkage")  # last axis of solver.shrinkage_losses, sorted

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DOMAIN = 4
EXIT_UNSUPPORTED = 5


def _write_provenance(args, **facts):
    """Write ``<args.out>.provenance.json``: the command, its seed, every
    other option as ``cfg`` and the command's own ``facts``."""
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("func", "config", "command", "seed")}
    with open(args.out + ".provenance.json", "w") as fh:
        json.dump({"command": args.command, "seed": args.seed, "cfg": cfg, **facts},
                  fh, indent=2, sort_keys=True)


def _file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _save_csv(path, data, header):
    data = np.atleast_2d(np.asarray(data, dtype=float))
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def _load_csv(path):
    """The data rows of a CSV file with one header line; a row that is not a
    row of numbers, or a file with no data row, raises InvalidInputError
    naming the file."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # loadtxt warns on no data
        try:
            return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except UserWarning:
            raise InvalidInputError(f"{path}: no data rows") from None
        except ValueError as exc:
            raise InvalidInputError(f"{path}: {_malformed_row(path) or exc}") from None


def _malformed_row(path):
    """The first data line of the CSV at ``path`` whose width differs from the
    first data line's or that holds a cell that is not a number."""
    with open(path) as fh:
        rows = [(n, line.split(",")) for n, line in enumerate(fh, start=1) if line.strip()][1:]
    for n, cells in rows:
        if len(cells) != len(rows[0][1]):
            return f"line {n} has {len(cells)} columns, line {rows[0][0]} has {len(rows[0][1])}"
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                return f"line {n}: {cell.strip()!r} is not a number"
    return None


def _coord_header(d):
    return ",".join(f"x{i + 1}" for i in range(d))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args):
    rng = np.random.default_rng(args.seed)
    if args.target == "bart-simpson":
        pts = sample_gaussian_mixture(bart_simpson(), args.n, rng)
    else:
        pts = toy2d(args.target, args.n, rng).points
    _save_csv(args.out, pts, _coord_header(pts.shape[1]))
    _write_provenance(args, dataset_hash=dataset_hash(pts))
    return EXIT_OK


def _set_flags(args, used, unused, reason):
    """The flags among ``used`` that were set, as keyword arguments; a set flag
    among ``unused`` is a ConfigError that gives ``reason``."""
    for k in unused:
        if getattr(args, k) is not None:
            raise ConfigError(f"--{k.replace('_', '-')} {reason}")
    return {k: getattr(args, k) for k in used if getattr(args, k) is not None}


BASIS_DEFAULTS = {"max_freq": 25, "eigenvalue_floor": -125.0, "order": 2}


def _build_basis(process, dimension, args):
    """The basis from the one flag that sizes it, at its ``BASIS_DEFAULTS``
    value when unset; another basis flag set is a ConfigError."""
    if process == OU:
        flag, kind = "order", "an OU basis"
    elif dimension == 1:
        flag, kind = "max_freq", "a 1D torus basis"
    else:
        flag, kind = "eigenvalue_floor", f"a {dimension}D torus basis"
    others = [k for k in BASIS_DEFAULTS if k != flag]
    size = _set_flags(args, (flag,), others, f"does not apply to {kind}").get(
        flag, BASIS_DEFAULTS[flag])
    if process == OU:
        return hermite_univariate_basis(dimension, size)
    return trig_basis_1d(size) if dimension == 1 else trig_basis_nd(dimension, size)


def _build_schedule(args):
    """The --schedule clock with the parameters given for it; unset ones keep
    the library defaults."""
    ve, vp = ("sigma_min", "sigma_max"), ("beta0", "beta1")
    if args.schedule == VE:
        return Schedule.ve(**_set_flags(args, ve, vp, "does not apply to a VE schedule"))
    return Schedule.vp(**_set_flags(args, vp, ve, "does not apply to a VP schedule"))


def cmd_fit(args):
    schedule = _build_schedule(args)
    data = _load_csv(args.data)
    if not np.all(np.isfinite(data)):
        raise DomainError("dataset contains non-finite values")
    d = data.shape[1]
    process = args.process
    if process == TRUNCATED_BM:
        outside = int(np.count_nonzero(np.any(np.abs(data) > math.pi, axis=1)))
        if outside:
            print(f"wrapped {outside} points into [-pi, pi]^{d}", file=sys.stderr)
            data = wrap_torus(data)
    basis = _build_basis(process, d, args)
    table = product_table(basis)
    moments = sample_moments(basis, data)
    if args.shrinkage == "modulation":
        moments = modulation_shrink(moments)
    model = presolve_grid(basis, table, moments, schedule, n_times=args.grid_size)
    save_model(model, args.out)
    condition = model.diagnostics["condition"]
    max_condition = float(condition.max())
    print(f"fit complete: {len(model.grid)} grid nodes; max condition {max_condition:.3e}")
    _write_provenance(args, dataset_hash=dataset_hash(data), n_samples=int(data.shape[0]),
                      model_hash=_file_hash(args.out),
                      solve_health={"max_condition": max_condition,
                                    "condition": condition.tolist()})
    return EXIT_OK


def cmd_sample(args):
    model = load_model(args.model)
    rng = np.random.default_rng(args.seed)
    if args.method == "pf-ode":
        tols = _set_flags(args, ("rtol", "atol"), ("n_steps",),
                          "applies only to --method reverse-sde")
        pts = sample_pf_ode(model, args.n, IntegratorConfig(**tols), rng, prior=args.prior)
    else:
        steps = _set_flags(args, ("n_steps",), ("rtol", "atol"), "applies only to --method pf-ode")
        pts = sample_reverse_sde(model, args.n, rng=rng, prior=args.prior, **steps)
    if not model.domain_map.is_identity:
        pts = model.domain_map.inverse(pts)
    _save_csv(args.out, pts, _coord_header(pts.shape[1]))
    _write_provenance(args, model_hash=_file_hash(args.model))
    return EXIT_OK


def cmd_density(args):
    if args.chunk < 1:
        raise ConfigError(f"--chunk must be >= 1, got {args.chunk}")
    model = load_model(args.model)
    d = model.basis.dimension
    cfg = IntegratorConfig(rtol=args.rtol, atol=args.atol)
    spec = QuadratureSpec(n_nodes=args.grid_n, lower=args.lower, upper=args.upper)
    nodes, _ = trapezoid_grid(spec, d)
    ld = np.empty(nodes.shape[0])
    for s in range(0, nodes.shape[0], args.chunk):
        ld[s:s + args.chunk] = log_density(model, nodes[s:s + args.chunk], cfg)
    _save_csv(args.out, np.column_stack([nodes, ld]),
              _coord_header(d) + ",log_density")
    _write_provenance(args, model_hash=_file_hash(args.model))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Shrinkage loss study
# ---------------------------------------------------------------------------

def _loss_study_rep(payload):
    rep, seed, n, bases, losses = payload
    rng = np.random.default_rng([seed, rep])
    data = wrap_torus(sample_gaussian_mixture(bart_simpson(), n, rng))
    return shrinkage_losses(data, bases, losses)


def _csv_list(text, kind, flag):
    """The distinct values of a comma-list flag, sorted."""
    try:
        values = [kind(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes a comma list of {kind.__name__} values, "
                          f"got {text!r}") from None
    if len(set(values)) != len(values):
        raise ConfigError(f"{flag} repeats a value: {text!r}")
    return sorted(values)


def cmd_loss_study(args):
    if args.target != "bart-simpson":
        raise UnsupportedTargetError(
            f"loss study needs an analytic reference; {args.target!r} has none")
    for flag, value in (("--reps", args.reps), ("--workers", args.workers)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    schedule = _build_schedule(args)
    sizes = _csv_list(args.basis_sizes, int, "--basis-sizes")
    if args.taus:
        taus = _csv_list(args.taus, float, "--taus")
    elif internal_time(schedule, 0.0) > LOSS_STUDY_T:
        raise ConfigError(f"the schedule starts above t={LOSS_STUDY_T}; "
                          "pass --taus or lower --sigma-min")
    else:
        taus = [0.0, tau_at(schedule, LOSS_STUDY_T)]
    bases = [(basis, product_table(basis)) for basis in map(trig_basis_1d, sizes)]
    reference = AnalyticReference(bart_simpson(), schedule, TRUNCATED_BM)
    quadrature = QuadratureSpec(n_nodes=args.n_quad)
    losses = [[reference_loss(basis, table, reference, tau, quadrature) for tau in taus]
              for basis, table in bases]
    payloads = [(rep, args.seed, args.n, bases, losses) for rep in range(args.reps)]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_loss_study_rep, payloads))
    else:
        results = [_loss_study_rep(p) for p in payloads]
    # one row per (size, tau, estimator) cell, in sorted order as sizes and taus are
    cells = np.ascontiguousarray(np.moveaxis(np.stack(results), 0, -1))
    lines = ["basis_size,tau,estimator,mean,se,replications"]
    for i, g, j in np.ndindex(cells.shape[:-1]):
        v = cells[i, g, j]
        se = v.std(ddof=1) / math.sqrt(len(v)) if len(v) > 1 else 0.0
        lines.append(f"{sizes[i]},{taus[g]:.10g},{ESTIMATORS[j]},{v.mean():.17g},"
                     f"{se:.17g},{len(v)}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_provenance(args)
    return EXIT_OK


def cmd_eigen_report(args):
    basis = _build_basis(args.process, args.dimension, args)
    lines = [f"process={basis.process} dimension={basis.dimension}",
             f"active functions (excl. constant): {basis.n_active}",
             f"extended functions: {len(basis.extended)}",
             "idx\tkind\teigenvalue\tindex"]
    for i, (kind, index, eigenvalue) in enumerate(basis.functions.listing()):
        lines.append(f"{i}\t{kind}\t{eigenvalue:g}\t{index}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p, out_required=True):
    p.add_argument("--config", default=None, help="JSON file of option defaults")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=out_required)


def _add_basis_flags(p):
    p.add_argument("--max-freq", type=int, help="1D torus only (default 25)")
    p.add_argument("--eigenvalue-floor", type=float,
                   help="torus of dimension >= 2 only (default -125)")
    p.add_argument("--order", type=int, help="OU only (default 2)")


def _add_schedule_flags(p):
    """The clock and its parameters; each unset parameter takes the default
    of ``Schedule.ve`` or ``Schedule.vp``."""
    p.add_argument("--schedule", choices=["VE", "VP"], default="VE")
    p.add_argument("--sigma-min", type=float, help="VE only")
    p.add_argument("--sigma-max", type=float, help="VE only")
    p.add_argument("--beta0", type=float, help="VP only")
    p.add_argument("--beta1", type=float, help="VP only")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eigenscore",
        description="Operator-spectrum score models: fit, sample, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="draw a dataset and write it as CSV")
    _add_common(p)
    p.add_argument("--target", required=True,
                   choices=["bart-simpson"] + sorted(_TOYS))
    p.add_argument("--n", type=int, default=2000)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fit", help="fit a score model to a dataset")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--process", choices=[TRUNCATED_BM, OU], default=TRUNCATED_BM)
    _add_basis_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--shrinkage", choices=["none", "modulation"], default="modulation")
    p.add_argument("--grid-size", type=int, default=1000)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="draw samples from a fitted model")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--method", choices=["pf-ode", "reverse-sde"], default="pf-ode")
    p.add_argument("--n-steps", type=int, help="reverse-sde only")
    p.add_argument("--prior", choices=["uniform", "wrapped-normal"], default="uniform")
    p.add_argument("--rtol", type=float, help="pf-ode only")
    p.add_argument("--atol", type=float, help="pf-ode only")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("density", help="evaluate the model log-density on a grid")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--grid-n", type=int, default=4096)
    p.add_argument("--lower", type=float, default=-math.pi)
    p.add_argument("--upper", type=float, default=math.pi)
    p.add_argument("--chunk", type=int, default=4096)
    p.add_argument("--rtol", type=float, default=1e-5)
    p.add_argument("--atol", type=float, default=1e-6)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("loss-study",
                       help="score-matching loss vs basis size, with and without shrinkage")
    _add_common(p)
    p.add_argument("--target", default="bart-simpson")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--basis-sizes", default="5,10,15,20,25")
    p.add_argument("--taus", default=None,
                   help="comma list of tau values; default: smallest grid tau and t=0.02")
    p.add_argument("--n-quad", type=int, default=4096)
    p.add_argument("--workers", type=int, default=1)
    _add_schedule_flags(p)
    p.set_defaults(func=cmd_loss_study)

    p = sub.add_parser("eigen-report", help="print the basis enumeration and counts")
    _add_common(p, out_required=False)
    p.add_argument("--process", choices=[TRUNCATED_BM, OU], default=TRUNCATED_BM)
    p.add_argument("--dimension", type=int, default=1)
    _add_basis_flags(p)
    p.set_defaults(func=cmd_eigen_report)
    return parser


_KNOWN_ERRORS = (
    (ConfigError, EXIT_CONFIG),
    (UnsupportedTargetError, EXIT_UNSUPPORTED),
    (DomainError, EXIT_DOMAIN),
    (IllConditionedError, EXIT_SOLVER),
    (NonConvergenceError, EXIT_SOLVER),
    (InvalidInputError, EXIT_CONFIG),
)


def _apply_config_file(parser, argv):
    """argv with the --config JSON's values inserted as flags right after the
    subcommand, so they pass the same checks as flags and explicit flags,
    which come later, still win. Keys of other subcommands are ignored."""
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    commands = parser._subparsers._group_actions[0].choices
    flags = {name: {a.dest: a.option_strings[-1] for a in sp._actions
                    if a.option_strings and a.dest not in ("help", "config")}
             for name, sp in commands.items()}
    unknown = set(cfg) - {dest for own in flags.values() for dest in own}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    at = next((i for i, a in enumerate(argv) if a in commands), None)
    if at is None:
        return argv  # the parser reports the missing subcommand
    own = flags[argv[at]]
    for key, value in cfg.items():
        if key in own and (isinstance(value, bool) or not isinstance(value, (str, int, float))):
            raise ConfigError(f"config key {key!r} needs a string or a number, got {value!r}")
    inserted = [f"{own[key]}={value}" for key, value in cfg.items() if key in own]
    return argv[:at + 1] + inserted + argv[at + 1:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(_apply_config_file(parser, argv))
        except SystemExit as exc:
            return EXIT_CONFIG if exc.code not in (0, None) else 0
        return args.func(args)
    except EigenScoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in _KNOWN_ERRORS:
            if isinstance(exc, cls):
                return code
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
