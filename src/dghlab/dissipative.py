"""Exponential time rescaling between damped and conservative dynamics.

The weakly damped flow (momentum balance plus ``lambda * (u - u_xx)``) maps
onto a conservative flow through

    u(t, x) = exp(-lambda t) * v(tau, x),   tau = (1 - exp(-lambda t)) / lambda,

so a damped run over all t >= 0 corresponds to a conservative run over the
bounded horizon tau < 1/lambda.  The mapping is exact for the drift-free
member of the family (third-order dispersion coefficient zero); with a
nonzero drift coefficient the drift term picks up a factor exp(lambda t)
under the substitution, so the transformed equation is autonomous only in
that drift-free case.  ``map_solution`` applies the change of variables for
any parameters and the equivalence experiment quantifies the match; the
spline in tau through an undamped run is solved once and shared by every
lambda mapped from that run.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from .grid import Field
from .solver import Trajectory

__all__ = ["equivalence_report", "map_solution", "to_conservative_time"]


def to_conservative_time(t, lam: float):
    """tau = (1 - exp(-lam t)) / lam, and tau = t at lam = 0.

    ``expm1`` keeps the quotient accurate for every lam > 0, however small.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    out = t.copy() if lam == 0.0 else -np.expm1(-lam * t) / lam
    return out if out.ndim else float(out)


def map_solution(conservative: Trajectory, lam: float, times=None) -> Trajectory:
    """Damped-time snapshots u(t, x) = exp(-lam t) v(tau(t), x).

    ``v`` is interpolated cubically in tau between the conservative snapshots.
    The requested times (default: images of the conservative snapshot times)
    must map into the covered tau range.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if lam == 0.0:
        return conservative
    tau_grid = conservative.times
    if times is None:
        # Inverse images of the stored tau values; all lie below 1/lam.
        if tau_grid[-1] * lam >= 1.0:
            raise ValueError("conservative horizon reaches 1/lam; cannot invert the clock")
        times = -np.log1p(-lam * tau_grid) / lam
        times[0] = 0.0
    times = np.asarray(times, dtype=float)
    tau = to_conservative_time(times, lam)
    if np.any(tau > tau_grid[-1] + 1e-12):
        raise ValueError(
            f"requested times reach tau = {np.max(tau):g}, but the conservative "
            f"run only covers tau <= {tau_grid[-1]:g}"
        )
    spline = _tau_spline(conservative)
    damp = np.exp(-lam * times)
    grid = conservative.grid
    snaps = tuple(
        Field(grid, damp[k] * spline(min(tau[k], tau_grid[-1])))
        for k in range(times.size)
    )
    cfg = replace(conservative.config, params=replace(conservative.config.params, lam=lam))
    return Trajectory(cfg, times, snaps, conservative.termination, conservative.guard_time)


# id of the undamped run mapped last -> its spline in tau, dropped with the run
_TAU_SPLINE: dict[int, object] = {}


def _tau_spline(conservative: Trajectory):
    """The cubic spline in tau through an undamped run's snapshots, solved once per run.

    DissipativeEquivalence maps one undamped run for every lambda; the last
    run's spline is kept while that run lives, so the lambdas share it.
    """
    key = id(conservative)
    spline = _TAU_SPLINE.get(key)
    if spline is None:
        # imported here so that a process that maps no solution never loads scipy
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(conservative.times, conservative.values_matrix(), axis=0)
        _TAU_SPLINE.clear()
        _TAU_SPLINE[key] = spline
        weakref.finalize(conservative, _TAU_SPLINE.pop, key, None)
    return spline


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-time max-norm differences between two trajectories."""

    times: np.ndarray
    max_abs: np.ndarray

    @property
    def worst(self) -> float:
        return float(np.max(self.max_abs))


def equivalence_report(direct: Trajectory, mapped: Trajectory) -> EquivalenceReport:
    """Compare two runs on the same grid and the same snapshot times."""
    if direct.grid != mapped.grid:
        raise ValueError("trajectories live on different grids")
    if not np.array_equal(direct.times, mapped.times):
        raise ValueError("trajectories have different snapshot times")
    max_abs = np.max(np.abs(direct.values_matrix() - mapped.values_matrix()), axis=1)
    return EquivalenceReport(direct.times, max_abs)
