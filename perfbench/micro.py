"""Microseconds per call of the hot layer functions at fixed grid sizes.

Reported as ``us.<function>.<periodic|line>.n<size>``.  The inputs are fixed
smooth fields (a cosine on the circle, the velocity of a compact momentum
bump on the line), independent of the workload seed.
"""

from __future__ import annotations

import statistics
import time
import warnings

__all__ = ["FUNCTIONS", "KINDS", "SIZES", "measure", "per_call_us"]

SIZES = (256, 4096, 16384)
KINDS = ("periodic", "line")
FUNCTIONS = ("derivative", "dx_invert_lambda2", "rhs_nonlocal", "step_rk4")

_BATCH_SECONDS = 5e-3
_BATCHES = 7


def per_call_us(fn) -> float:
    """Median over batches of the mean call time, in microseconds."""
    clock = time.perf_counter
    fn()
    t0 = clock()
    fn()
    reps = max(1, int(_BATCH_SECONDS / max(clock() - t0, 1e-9)))
    samples = []
    for _ in range(_BATCHES):
        t0 = clock()
        for _ in range(reps):
            fn()
        samples.append((clock() - t0) / reps)
    return 1e6 * statistics.median(samples)


def _velocity(kind: str, n: int):
    import dghlab as d

    if kind == "periodic":
        grid = d.make_grid(d.GridKind.PERIODIC, n)
        return d.make_profile(grid, "cosine", amplitude=0.05), d.PhysParams(0.1, -0.2)
    grid = d.make_grid(d.GridKind.TRUNCATED_LINE, n, 20.0)
    u = d.make_profile(grid, "bump", space="m", amplitude=1.0, center=0.0, width=1.0)
    return u, d.PhysParams(0.0, 0.0)


def measure() -> dict[str, float]:
    import dghlab as d

    out = {}
    with warnings.catch_warnings():
        # Line fields at n = 16384 may trip the soft boundary-decay warning.
        warnings.simplefilter("ignore")
        for kind in KINDS:
            for n in SIZES:
                u, p = _velocity(kind, n)
                ux = d.derivative(u, 1)
                arg = d.Field(u.grid, u.values**2 + 0.5 * ux.values**2)

                def rhs(t, v, p=p):
                    return d.rhs_nonlocal(v, p)

                calls = {
                    "derivative": lambda u=u: d.derivative(u, 1),
                    "dx_invert_lambda2": lambda arg=arg: d.dx_invert_lambda2(arg),
                    "rhs_nonlocal": lambda u=u, p=p: d.rhs_nonlocal(u, p),
                    "step_rk4": lambda u=u, rhs=rhs: d.step_rk4(u, 0.0, 1e-5, rhs),
                }
                for name in FUNCTIONS:
                    out[f"us.{name}.{kind}.n{n}"] = per_call_us(calls[name])
    return out
