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
any parameters and the equivalence experiment quantifies the match.
"""

from __future__ import annotations

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
    if not np.all((0 <= t) & (t < np.inf)):
        raise ValueError("t must be non-negative and finite")
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be non-negative and finite, got {lam}")
    out = t.copy() if lam == 0.0 else -np.expm1(-lam * t) / lam
    return out if out.ndim else float(out)


def map_solution(conservative: Trajectory, lam: float, times=None) -> Trajectory:
    """Damped-time snapshots u(t, x) = exp(-lam t) v(tau(t), x).

    ``v`` at each tau is the cubic through the four stored snapshots nearest
    in tau (the line or parabola through all of a run of two or three).
    The requested times (default: images of the conservative snapshot times)
    must map into the covered tau range.
    """
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be non-negative and finite, got {lam}")
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
    tau = np.minimum(tau, tau_grid[-1])
    p = min(4, tau_grid.size)
    first = np.clip(np.searchsorted(tau_grid, tau, "right") - p // 2, 0, tau_grid.size - p)
    nodes = first[:, None] + np.arange(p)
    at = tau_grid[nodes]
    # Lagrange weights on the non-uniform snapshot times: prod_{k != j} (tau - t_k) / (t_j - t_k)
    eye = np.eye(p, dtype=bool)
    num = np.where(eye, 1.0, tau[:, None, None] - at[:, None, :])
    den = np.where(eye, 1.0, at[:, :, None] - at[:, None, :])
    rows = np.stack([conservative.snapshots[k].values for k in nodes.ravel().tolist()])
    v = np.einsum("tm,tmn->tn", (num / den).prod(axis=2), rows.reshape(*nodes.shape, -1))
    damped = np.exp(-lam * times)[:, None] * v
    snaps = tuple(Field(conservative.grid, row) for row in damped)
    cfg = replace(conservative.config, params=replace(conservative.config.params, lam=lam))
    return Trajectory(cfg, times, snaps, conservative.termination, conservative.guard_time)


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
    max_abs = np.array(
        [np.max(np.abs(a.values - b.values)) for a, b in zip(direct.snapshots, mapped.snapshots)]
    )
    return EquivalenceReport(direct.times, max_abs)
