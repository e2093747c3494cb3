"""Support detection, exponential-tail measurement, and nonlocal kernel probes.

These diagnostics turn qualitative statements about the flow into measurable
events:

* ``support_interval`` finds the smallest interval holding all nodes above a
  threshold (the discrete stand-in for compact support);
* ``sign_kernel_S`` evaluates the two-sided exponential comparison kernel
  ``S(y) = sgn(a - y) e^{-|a-y|} - sgn(b - y) e^{-|b-y|}``, positive outside
  ``[a, b]``;
* ``continuation_probe`` measures, at each snapshot of a run, the pointwise
  identity ``F = -(u_t + (u + 2 omega) u_x)`` with
  ``F = d/dx Lambda^{-2}(u^2 + u_x^2 / 2)``, which holds on solutions in the
  ``gamma = -2 omega`` regime;
* ``tail_decay_fit`` fits the exponential decay rate of a field's tail;
* ``vanishing_rectangle`` finds maximal space-time rectangles on which a
  trajectory stays below a tolerance (a truncated line's far tails can).
  It reads one snapshot at a time and keeps only each snapshot's quiet
  runs, so its memory is O(runs), not O(n_t n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Field, derivative
from .helmholtz import dx_invert_lambda2
from .solver import MaxNormSeries, PhysParams, Trajectory, rhs_nonlocal

__all__ = [
    "continuation_probe",
    "sign_kernel_S",
    "support_interval",
    "tail_decay_fit",
    "vanishing_rectangle",
]

@dataclass(frozen=True)
class SupportReport:
    """Detected support interval of a field, or None when below threshold."""

    interval: Optional[tuple[float, float]]


def support_interval(f: Field, threshold: float) -> SupportReport:
    """Smallest interval containing all nodes with |f| >= threshold."""
    if not threshold > 0:  # NaN fails too; +inf finds no support
        raise ValueError(f"threshold must be positive, got {threshold}")
    above = np.abs(f.values) >= threshold
    if not np.any(above):
        return SupportReport(None)
    idx = np.nonzero(above)[0]
    x = f.grid.nodes
    return SupportReport((float(x[idx[0]]), float(x[idx[-1]])))


def sign_kernel_S(a: float, b: float, y) -> np.ndarray | float:
    """Two-sided exponential comparison kernel; sgn(0) = 0 by convention."""
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    y = np.asarray(y, dtype=float)
    out = np.sign(a - y) * np.exp(-np.abs(a - y)) - np.sign(b - y) * np.exp(
        -np.abs(b - y)
    )
    return out if out.ndim else float(out)


def continuation_regime(p: PhysParams) -> bool:
    """Whether gamma = -2 omega, up to rounding relative to |gamma|.

    The one rule for where the nonlocal identity holds: the probe and the
    ContinuationProbe config both apply it.
    """
    return abs(p.gamma + 2.0 * p.omega) <= 1e-12 * (1.0 + abs(p.gamma))


def continuation_probe(traj: Trajectory) -> MaxNormSeries:
    """Per-snapshot max over nodes of ``|F + u_t + (u + 2 omega) u_x|``.

    u_t is ``rhs_nonlocal(u, p)`` with the run's own parameters p, which must
    satisfy gamma = -2 omega.
    """
    p = traj.config.params
    if not continuation_regime(p):
        raise ValueError(
            f"the identity holds for gamma = -2 omega; got omega={p.omega}, gamma={p.gamma}"
        )
    max_abs = np.empty(len(traj.times))
    for k, u in enumerate(traj.snapshots):
        ux = derivative(u, 1)
        F = dx_invert_lambda2(Field(u.grid, u.values**2 + 0.5 * ux.values**2))
        residual = F.values + rhs_nonlocal(u, p).values + (u.values + 2.0 * p.omega) * ux.values
        max_abs[k] = np.max(np.abs(residual))
    return MaxNormSeries(traj.times, max_abs)


def tail_decay_fit(f: Field, side: str, window: tuple[float, float]) -> float:
    """Least-squares slope of ln|f| over a window of nodes.

    For fields with genuinely exponential tails the returned rate is the decay
    exponent (-1 for the Helmholtz kernel's right tail, +1 for its left one).
    Nodes where |f| is below 1e-14 are excluded as numerically meaningless;
    if the whole window is below that floor there is no tail to fit.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    x_lo, x_hi = window
    if not x_lo < x_hi:
        raise ValueError("window must be a nonempty interval")
    x = f.grid.nodes
    sel = (x >= x_lo) & (x <= x_hi) & (np.abs(f.values) > 1e-14)
    if np.count_nonzero(sel) < 2:
        raise ValueError("field is below the noise floor throughout the window")
    slope, _ = np.polyfit(x[sel], np.log(np.abs(f.values[sel])), 1)
    return float(slope)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned space-time rectangle [t_lo, t_hi] x [x_lo, x_hi]."""

    t_lo: float
    t_hi: float
    x_lo: float
    x_hi: float


def _quiet_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True entries as inclusive index pairs."""
    edges = np.diff(mask.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1).tolist()
    ends = (np.flatnonzero(edges == -1) - 1).tolist()
    return list(zip(starts, ends))


def vanishing_rectangle(traj: Trajectory, tol: float) -> list[Rectangle]:
    """Maximal rectangles in (t, x) where the trajectory stays below tol.

    A rectangle must span at least two snapshot times and two nodes (a
    nonempty open product).  Detection greedily grows each maximal quiet run
    forward in time, intersecting with the following snapshot's quiet runs
    and keeping the widest overlap; rectangles contained in another are
    dropped.
    """
    if not tol > 0:  # NaN fails too; +inf leaves every node quiet
        raise ValueError(f"tol must be positive, got {tol}")
    runs_per_time = [_quiet_runs(np.abs(s.values) < tol) for s in traj.snapshots]
    n_t = len(traj.times)

    candidates: list[tuple[int, int, int, int]] = []
    for k0 in range(n_t - 1):
        for a, b in runs_per_time[k0]:
            # runs are maximal, so [a, b] was quiet at k0 - 1 iff one run there holds it
            if k0 > 0 and any(c <= a and b <= d for c, d in runs_per_time[k0 - 1]):
                continue  # grown already from an earlier start
            j0, j1, k = a, b, k0
            while k + 1 < n_t:
                best = None
                for c, d in runs_per_time[k + 1]:
                    lo, hi = max(j0, c), min(j1, d)
                    if hi > lo and (best is None or hi - lo > best[1] - best[0]):
                        best = (lo, hi)
                if best is None:
                    break
                j0, j1 = best
                k += 1
            if k > k0 and j1 > j0:
                candidates.append((k0, k, j0, j1))

    maximal = [
        c
        for c in candidates
        if not any(
            o != c and o[0] <= c[0] and o[1] >= c[1] and o[2] <= c[2] and o[3] >= c[3]
            for o in candidates
        )
    ]
    x = traj.grid.nodes
    t = traj.times
    return [
        Rectangle(float(t[k0]), float(t[k1]), float(x[j0]), float(x[j1]))
        for k0, k1, j0, j1 in maximal
    ]
