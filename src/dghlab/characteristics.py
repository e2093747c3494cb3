"""Characteristic flow q' = u(t, q) - gamma and the momentum transport identity.

Along the flow of ``dq/dt = u(t, q) - gamma`` with ``q(0, x) = x`` the
quantity ``(m + omega + gamma/2) q_x^2`` is constant in time, where
``m = u - u_xx`` and ``q_x = exp(int_0^t u_x(s, q(s, x)) ds)`` is the stretch
of the flow map.  This module integrates the flow along a stored trajectory
and measures the residual of that identity.

The integral in the stretch factor is taken along the path, s -> q(s, x).
Snapshots are interpolated cubically in space and linearly in time, and the
seed positions are advanced with the same Runge-Kutta scheme the solver uses.
The cubic through the four nodes nearest a point is the piecewise cubic whose
panel integrals the line P/Q sweeps take exactly, so the two share one
interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Field, derivative
from .helmholtz import _LAGRANGE_INTERIOR, apply_lambda2
from .solver import PhysParams, Trajectory, step_rk4

__all__ = ["evolve_characteristics", "transport_residual"]


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
    """Cubic-in-space, linear-in-time sampler of columns of a trajectory's snapshots.

    Each column maps a snapshot Field to its node values; ``blend`` returns
    one row per column.  In space a sample is the cubic through the four
    nodes nearest it (nodes i-1 .. i+2 around the panel [x_i, x_{i+1}]); on
    the line the first and last panels take the one-sided four nodes, on the
    circle node indices wrap.  Snapshot k's columns are computed the first
    time it is sampled, and only snapshot k - 1's are kept with them: a
    forward sweep blends snapshots k and k + 1.
    """

    def __init__(self, traj: Trajectory, columns: tuple[Callable[[Field], np.ndarray], ...]):
        self._grid = traj.grid
        self._snapshots = traj.snapshots
        self._columns = columns
        self._held: dict[int, np.ndarray] = {}

    def _at(self, k: int) -> np.ndarray:
        if k not in self._held:
            self._held = {j: v for j, v in self._held.items() if j == k - 1}
            self._held[k] = np.stack([col(self._snapshots[k]) for col in self._columns])
        return self._held[k]

    def blend(self, k: int, theta: float, q: np.ndarray) -> np.ndarray:
        grid = self._grid
        qr = np.mod(q, 1.0) if grid.is_periodic else q
        s = (qr - grid.nodes[0]) / grid.spacing
        i = np.floor(s)
        if not grid.is_periodic:
            i = np.clip(i, 1, grid.n - 3)
        w = np.vander(s - i, 4, increasing=True) @ _LAGRANGE_INTERIOR.T
        # np.mod of a tiny negative q is 1.0, i = n: the wrap samples node 0
        idx = (i.astype(int)[:, None] + np.arange(-1, 3)) % grid.n

        def sample(vals: np.ndarray) -> np.ndarray:
            return np.sum(vals[:, idx] * w, axis=-1)

        if theta == 0.0:
            return sample(self._at(k))
        return (1.0 - theta) * sample(self._at(k)) + theta * sample(self._at(k + 1))


def _values(f: Field) -> np.ndarray:
    return f.values


def _slope(f: Field) -> np.ndarray:
    return derivative(f, 1).values


def _momentum(f: Field) -> np.ndarray:
    return apply_lambda2(f).values


def evolve_characteristics(traj: Trajectory, seeds) -> CharacteristicPaths:
    """Integrate seed particles through the flow of a stored trajectory."""
    grid = traj.grid
    seeds = np.atleast_1d(np.asarray(seeds, dtype=float))
    if not grid.is_periodic:
        if np.any(seeds < grid.nodes[0]) or np.any(seeds > grid.nodes[-1]):
            raise ValueError("seeds must lie inside the grid")
    gamma = traj.config.params.gamma
    itp = _SnapshotInterpolant(traj, (_values, _slope))

    n_t = len(traj.times)
    n_s = seeds.size
    q = np.full((n_t, n_s), np.nan)
    w = np.full((n_t, n_s), np.nan)  # log of the stretch factor
    exit_index = np.full(n_s, n_t, dtype=int)
    q[0] = seeds
    w[0] = 0.0

    active = np.ones(n_s, dtype=bool)
    for k in range(n_t - 1):
        if not np.any(active):
            break
        dt = traj.times[k + 1] - traj.times[k]

        def rate(t: float, qw: np.ndarray) -> np.ndarray:
            # (q, log q_x)' = (u - gamma, u_x) at the blend t / dt of snapshots k, k+1
            u, ux = itp.blend(k, t / dt, qw[0])
            return np.array((u - gamma, ux))

        q[k + 1, active], w[k + 1, active] = step_rk4(
            np.array((q[k, active], w[k, active])), 0.0, dt, rate
        )
        if not grid.is_periodic:
            out = (q[k + 1] < grid.nodes[0]) | (q[k + 1] > grid.nodes[-1])
            newly = out & active
            if np.any(newly):
                exit_index[newly] = k + 1
                q[k + 1, newly] = np.nan
                w[k + 1, newly] = np.nan
                active = active & ~newly
    return CharacteristicPaths(seeds, traj.times.copy(), q, np.exp(w), exit_index)


@dataclass(frozen=True)
class TransportResidual:
    """Largest residual of the transport identity at each snapshot time."""

    times: np.ndarray
    max_abs: np.ndarray  # max over the seeds still inside the domain, NaN once none is

    @property
    def worst(self) -> float:
        # fmax skips the NaN of the times after every seed has left
        return float(np.fmax.reduce(self.max_abs))


def transport_residual(
    traj: Trajectory, paths: CharacteristicPaths, p: PhysParams
) -> TransportResidual:
    """Per-time max over the seeds of the momentum-transport residual.

    Residual(t, x) = (m0(x) + c) - (m(t, q(t, x)) + c) * q_x(t, x)^2 with
    c = omega + gamma/2; identically zero for the exact flow.
    """
    if len(paths.times) != len(traj.times) or np.any(paths.times != traj.times):
        raise ValueError("paths were not computed from this trajectory")
    c = p.omega + 0.5 * p.gamma
    m_itp = _SnapshotInterpolant(traj, (_momentum,))
    (m0_at_seeds,) = m_itp.blend(0, 0.0, paths.seeds)

    max_abs = np.full(len(traj.times), np.nan)
    for k in range(len(traj.times)):
        valid = paths.exit_index > k
        if not np.any(valid):
            break
        (mq,) = m_itp.blend(k, 0.0, paths.q[k, valid])
        res = (m0_at_seeds[valid] + c) - (mq + c) * paths.qx[k, valid] ** 2
        max_abs[k] = np.fmax.reduce(np.abs(res))
    return TransportResidual(traj.times.copy(), max_abs)
