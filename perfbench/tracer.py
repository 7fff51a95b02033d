"""In-memory span tracer that wraps the package's public functions.

Spans are recorded around calls into each layer (module) of ``eigenscore``
from outside the package: the tracer rebinds every alias the package holds
for a wrapped function (``generate.integrate_batch``, ``cli.product_table``,
...), patches methods on their classes, and wraps the ``scipy.linalg`` and
``numpy.linalg`` entry points the solver looks up at call time. Nothing in
the package is edited on disk, and ``uninstall`` restores every binding.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level). The layer of a span is the part of its
name before the first dot.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy.linalg
import scipy.linalg
import scipy.linalg.lapack

LAYERS = ("targets", "basis", "moments", "solver", "odeint", "generate", "cli")

# (span name, module, attribute): module-level functions; every alias of the
# function held by an eigenscore module is rebound to the wrapper
_FUNCTIONS = (
    ("targets.data", "eigenscore.targets", "toy2d"),
    ("targets.data", "eigenscore.targets", "sample_gaussian_mixture"),
    ("basis.table", "eigenscore.basis", "product_table"),
    ("moments.sample", "eigenscore.moments", "sample_moments"),
    ("moments.shrink", "eigenscore.moments", "modulation_shrink"),
    ("moments.analytic", "eigenscore.moments", "analytic_moments"),
    ("solver.presolve", "eigenscore.solver", "presolve_grid"),
    ("solver.node", "eigenscore.solver", "solve_node"),
    ("solver.alpha_at", "eigenscore.solver", "alpha_at"),
    ("odeint.integrate", "eigenscore.odeint", "integrate_batch"),
    ("generate.sample", "eigenscore.generate", "sample_pf_ode"),
    ("generate.density", "eigenscore.generate", "log_density"),
    ("generate.sde", "eigenscore.generate", "sample_reverse_sde"),
    ("cli.main", "eigenscore.cli", "main"),
)

# (span name, module, class, method): patched on the class itself
_METHODS = (
    ("targets.reference", "eigenscore.targets", "AnalyticReference", "pdf"),
    ("targets.reference", "eigenscore.targets", "AnalyticReference", "relative_score"),
    ("basis.values", "eigenscore.basis", "EigenBasis", "eval_values"),
    ("basis.kernel", "eigenscore.basis", "EigenBasis", "weighted_eval"),
    ("solver.assembler", "eigenscore.solver", "SystemAssembler", "__init__"),
    ("solver.system", "eigenscore.solver", "SystemAssembler", "system"),
)

# third-party linear algebra, attributed to the solver layer
_LINALG = (
    ("solver.linalg.eigh", scipy.linalg, "eigh"),
    ("solver.linalg.lu", scipy.linalg, "lu_factor"),
    ("solver.linalg.lu_solve", scipy.linalg, "lu_solve"),
    ("solver.linalg.chol", scipy.linalg, "cholesky"),
    ("solver.linalg.chol", scipy.linalg, "cho_factor"),
    ("solver.linalg.cho_solve", scipy.linalg, "cho_solve"),
    ("solver.linalg.gecon", scipy.linalg.lapack, "dgecon"),
    ("solver.linalg.eigh", numpy.linalg, "eigh"),
    ("solver.linalg.chol", numpy.linalg, "cholesky"),
    ("solver.linalg.solve", numpy.linalg, "solve"),
)


class Tracer:
    """Spans and counters recorded in memory while installed."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._paused = 0
        self._undo = []

    # -- recording ----------------------------------------------------------

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def mark(self):
        """Position to pass to ``metrics`` to cover spans recorded after now."""
        return len(self.spans), dict(self.counters)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, on_call=None, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def _traced_integrate(self, fn):
        """integrate_batch whose RHS closure is itself a span (nfev, rows)."""
        @functools.wraps(fn)
        def integrate(f, *args, **kwargs):
            def rhs(t, Y):
                if self._paused:
                    return f(t, Y)
                self.count("odeint.rhs_rows", len(Y))
                with self.span("generate.rhs"):
                    return f(t, Y)
            return fn(rhs, *args, **kwargs)
        return integrate

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import eigenscore  # noqa: F401  (loads every submodule)

        mods = [m for n, m in sys.modules.items()
                if n == "eigenscore" or n.startswith("eigenscore.")]
        hooks = {
            "sample_moments": dict(on_call=lambda a, k: self.count(
                "moments.bytes_computed", len(a[1]) * len(a[0].extended) * 8)),
            "solve_node": dict(on_result=lambda node: self.count(
                "solver.regularized_nodes", int(node.regularized))),
        }
        for name, modname, attr in _FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            fn = self._traced_integrate(orig) if attr == "integrate_batch" else orig
            wrapper = self._wrap(name, fn, **hooks.get(attr, {}))
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapper)
        kernel_rows = dict(on_call=lambda a, k: self.count("basis.kernel_rows", len(a[1])))
        for name, modname, clsname, attr in _METHODS:
            cls = getattr(sys.modules[modname], clsname)
            hook = kernel_rows if attr == "weighted_eval" else {}
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr], **hook))
        for name, owner, attr in _LINALG:
            self._set(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reduction ----------------------------------------------------------

    def metrics(self, marks):
        """Per-layer metrics over the span ranges ``[(start_mark, end_mark)]``."""
        durations, selfs, counts = {}, {}, {}
        for (lo, c_lo), (hi, c_hi) in marks:
            child = [0.0] * (hi - lo)
            for i in range(lo, hi):
                name, t0, t1, parent = self.spans[i]
                if parent >= lo:
                    child[parent - lo] += t1 - t0
            for i in range(lo, hi):
                name, t0, t1, _ = self.spans[i]
                durations[name] = durations.get(name, 0.0) + (t1 - t0)
                selfs[name] = selfs.get(name, 0.0) + (t1 - t0 - child[i - lo])
                counts[name] = counts.get(name, 0) + 1
            for key in set(c_hi) | set(c_lo):
                counts[key] = counts.get(key, 0) + c_hi.get(key, 0) - c_lo.get(key, 0)

        def dur(*names):
            return sum(durations.get(n, 0.0) for n in names)

        def num(*names):
            return sum(counts.get(n, 0) for n in names)

        linalg = [n for n in durations if n.startswith("solver.linalg.")]
        out = {
            "targets.data_s": dur("targets.data"),
            "targets.reference_s": dur("targets.reference"),
            "basis.table_calls": num("basis.table"),
            "basis.table_s": dur("basis.table"),
            "basis.values_s": dur("basis.values"),
            "basis.kernel_calls": num("basis.kernel"),
            "basis.kernel_rows": num("basis.kernel_rows"),
            "basis.kernel_s": dur("basis.kernel"),
            "moments.sample_s": dur("moments.sample"),
            "moments.shrink_s": dur("moments.shrink"),
            "moments.analytic_s": dur("moments.analytic"),
            "moments.bytes_computed": num("moments.bytes_computed"),
            "solver.assembler_calls": num("solver.assembler"),
            "solver.assembler_s": dur("solver.assembler"),
            "solver.nodes": num("solver.node"),
            "solver.presolve_s": dur("solver.presolve"),
            "solver.system_s": dur("solver.system"),
            "solver.presolve_self_s": selfs.get("solver.presolve", 0.0),
            "solver.eigh_calls": num("solver.linalg.eigh"),
            "solver.lu_calls": num("solver.linalg.lu"),
            "solver.chol_calls": num("solver.linalg.chol"),
            "solver.linalg_s": dur(*linalg),
            "solver.regularized_nodes": num("solver.regularized_nodes"),
            "solver.alpha_at_calls": num("solver.alpha_at"),
            "solver.alpha_at_s": dur("solver.alpha_at"),
            "odeint.calls": num("odeint.integrate"),
            "odeint.nfev": num("generate.rhs"),
            "odeint.rhs_rows": num("odeint.rhs_rows"),
            "odeint.rhs_s": dur("generate.rhs"),
            "generate.sample_s": dur("generate.sample"),
            "generate.density_s": dur("generate.density"),
            "generate.sde_s": dur("generate.sde"),
            "generate.flow_self_s": selfs.get("generate.rhs", 0.0),
            "cli.loss_study_s": dur("cli.main"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum((v for n, v in selfs.items()
                                          if n.split(".", 1)[0] == layer), 0.0)
        return out
