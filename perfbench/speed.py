"""Machine-speed probe that steadies timings taken on a shared host.

On a virtual machine that shares its cores with other tenants, the same
operation runs up to about 70% slower for a minute or two at a time, and CPU
time slows exactly as much as wall time, so neither a longer run nor a median
over it removes the swing. The benchmark therefore runs a fixed probe right
before and right after each timed library call and scales the call's wall
time by ``REFERENCE_S`` over the mean of the two probe times: the figure is
the call's time at the speed at which the probe takes ``REFERENCE_S``. The
probe does the kinds of work the package does (small LU solves in a Python
loop, trigonometric kernels on matrix products, dense symmetric
eigendecompositions and interpreter overhead) on fixed inputs, and never
calls the package, so a change to the package moves the scaled figures as it
moves the unscaled ones. A package change that slowed the probe itself (a
background thread, say) would be partly hidden; unscaled times are kept in
the full record of each run for that reason.
"""

import time

import numpy as np
from scipy.linalg import eigh, lu_factor, lu_solve  # bound before any tracing

# the probe's median time on the two-vCPU Xeon machine that took the baseline
REFERENCE_S = 0.08

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((50, 50))
_A = _A @ _A.T + 50.0 * np.eye(50)
_S = _rng.standard_normal((200, 200))
_S = _S + _S.T
_X = _rng.standard_normal((2000, 50))
_B = _rng.standard_normal((50, 100))


def probe():
    """Wall seconds of one run of the fixed probe workload."""
    t0 = time.perf_counter()
    for _ in range(200):
        lu_solve(lu_factor(_A), _A[0])
    for _ in range(6):
        np.cos(_X @ _B).sum(axis=0)
    for _ in range(3):
        eigh(_S)
    total = 0.0
    for i in range(100_000):
        total += i * 0.5
    return time.perf_counter() - t0


def scale(elapsed, before, after):
    """``elapsed`` wall seconds at the reference speed, given the probe times
    measured right before and right after."""
    return elapsed * REFERENCE_S / (0.5 * (before + after))
