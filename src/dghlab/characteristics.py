"""Characteristic flow q' = u(t, q) - gamma and the momentum transport identity.

Along the flow of ``dq/dt = u(t, q) - gamma`` with ``q(0, x) = x`` the
quantity ``(m + omega + gamma/2) q_x^2`` is constant in time, where
``m = u - u_xx`` and ``q_x = exp(int_0^t u_x(s, q(s, x)) ds)`` is the stretch
of the flow map.  This module integrates the flow along a stored trajectory
and measures the residual of that identity.

The integral in the stretch factor is taken along the path, s -> q(s, x).
Snapshots are interpolated cubically in space and linearly in time, and the
seed positions are advanced with the same Runge-Kutta scheme the solver uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .grid import Field, derivative
from .helmholtz import apply_lambda2
from .solver import PhysParams, Trajectory, step_rk4

__all__ = [
    "CharacteristicPaths",
    "TransportResidual",
    "evolve_characteristics",
    "transport_residual",
]


@dataclass(frozen=True)
class CharacteristicPaths:
    """Particle positions q(t, x) and stretches q_x(t, x) for a set of seeds.

    ``q[k, s]`` is the position of seed s at snapshot time k; on periodic
    domains positions are unwrapped (they are reduced mod 1 only when sampling
    fields).  ``exit_index[s]`` is the first time index at which a seed left a
    truncated-line domain (entries from there on are NaN); it equals
    ``len(times)`` for seeds that never exited.
    """

    seeds: np.ndarray
    times: np.ndarray
    q: np.ndarray
    qx: np.ndarray
    exit_index: np.ndarray

    @property
    def exited(self) -> np.ndarray:
        return self.exit_index < len(self.times)


class _SnapshotInterpolant:
    """Cubic-in-space, linear-in-time sampler of a trajectory's snapshots."""

    def __init__(self, traj: Trajectory, fields: list[Field]):
        grid = traj.grid
        self._periodic = grid.is_periodic
        if self._periodic:
            xk = np.append(grid.nodes, grid.length)
            self._splines = [
                CubicSpline(xk, np.append(f.values, f.values[0]), bc_type="periodic")
                for f in fields
            ]
        else:
            self._splines = [CubicSpline(grid.nodes, f.values) for f in fields]
        self.x_lo = grid.nodes[0]
        self.x_hi = grid.nodes[-1]

    def _reduce(self, q: np.ndarray) -> np.ndarray:
        return np.mod(q, 1.0) if self._periodic else q

    def blend(self, k: int, theta: float, q: np.ndarray) -> np.ndarray:
        qr = self._reduce(q)
        if theta == 0.0:
            return self._splines[k](qr)
        return (1.0 - theta) * self._splines[k](qr) + theta * self._splines[k + 1](qr)


def evolve_characteristics(traj: Trajectory, seeds) -> CharacteristicPaths:
    """Integrate seed particles through the flow of a stored trajectory."""
    grid = traj.grid
    seeds = np.atleast_1d(np.asarray(seeds, dtype=float))
    if not grid.is_periodic:
        if np.any(seeds < grid.nodes[0]) or np.any(seeds > grid.nodes[-1]):
            raise ValueError("seeds must lie inside the grid")
    gamma = traj.config.params.gamma
    u_itp = _SnapshotInterpolant(traj, list(traj.snapshots))
    ux_itp = _SnapshotInterpolant(traj, [derivative(f, 1) for f in traj.snapshots])

    n_t = len(traj.times)
    n_s = seeds.size
    q = np.full((n_t, n_s), np.nan)
    w = np.full((n_t, n_s), np.nan)  # log of the stretch factor
    exit_index = np.full(n_s, n_t, dtype=int)
    q[0] = seeds
    w[0] = 0.0

    active = np.ones(n_s, dtype=bool)
    for k in range(n_t - 1):
        dt = traj.times[k + 1] - traj.times[k]

        def rate(t: float, qw: np.ndarray) -> np.ndarray:
            # (q, log q_x)' = (u - gamma, u_x) at the blend t / dt of snapshots k, k+1
            theta, pos = t / dt, qw[0]
            return np.array((u_itp.blend(k, theta, pos) - gamma, ux_itp.blend(k, theta, pos)))

        q[k + 1, active], w[k + 1, active] = step_rk4(
            np.array((q[k, active], w[k, active])), 0.0, dt, rate
        )
        if not grid.is_periodic:
            out = (q[k + 1] < u_itp.x_lo) | (q[k + 1] > u_itp.x_hi)
            newly = out & active
            if np.any(newly):
                exit_index[newly] = k + 1
                q[k + 1, newly] = np.nan
                w[k + 1, newly] = np.nan
                active = active & ~newly
    return CharacteristicPaths(seeds, traj.times.copy(), q, np.exp(w), exit_index)


@dataclass(frozen=True)
class TransportResidual:
    """Residual of the transport identity per snapshot time and seed."""

    times: np.ndarray
    residuals: np.ndarray  # shape (n_times, n_seeds); NaN after a seed exits
    max_abs: np.ndarray  # max over seeds, per time

    @property
    def worst(self) -> float:
        return float(np.max(self.max_abs))


def transport_residual(
    traj: Trajectory, paths: CharacteristicPaths, p: PhysParams
) -> TransportResidual:
    """Per-time, per-seed residual of the conserved momentum-transport product.

    Residual(t, x) = (m0(x) + c) - (m(t, q(t, x)) + c) * q_x(t, x)^2 with
    c = omega + gamma/2; identically zero for the exact flow.
    """
    if len(paths.times) != len(traj.times) or np.any(paths.times != traj.times):
        raise ValueError("paths were not computed from this trajectory")
    c = p.omega + 0.5 * p.gamma
    m_fields = [apply_lambda2(f) for f in traj.snapshots]
    m_itp = _SnapshotInterpolant(traj, m_fields)
    m0_at_seeds = m_itp.blend(0, 0.0, paths.seeds)

    n_t = len(traj.times)
    res = np.full_like(paths.q, np.nan)
    for k in range(n_t):
        valid = paths.exit_index > k
        mq = m_itp.blend(k, 0.0, paths.q[k, valid])
        res[k, valid] = (m0_at_seeds[valid] + c) - (mq + c) * paths.qx[k, valid] ** 2
    max_abs = np.nanmax(np.abs(res), axis=1)
    return TransportResidual(traj.times.copy(), res, max_abs)
