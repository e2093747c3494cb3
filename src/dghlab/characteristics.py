"""Characteristic flow q' = u(t, q) - gamma and the momentum transport identity.

Along the flow of ``dq/dt = u(t, q) - gamma`` with ``q(0, x) = x`` the
quantity ``(m + omega + gamma/2) q_x^2`` is constant in time, where
``m = u - u_xx`` and ``q_x = exp(int_0^t u_x(s, q(s, x)) ds)`` is the stretch
of the flow map.  This module integrates the flow along a stored trajectory
and measures the residual of that identity.

The integral in the stretch factor is taken along the path, s -> q(s, x).
Snapshots are interpolated cubically in space and linearly in time, and the
seed positions are advanced with the same Runge-Kutta scheme the solver uses.

The splines are built a block of ``_BLOCK = 8`` snapshots at a time, with one
``CubicSpline`` solve per block, the first time a snapshot of the block is
sampled. Building a block drops every block but the one before it, so a
forward sweep solves each block once and at most three blocks are alive:
the previous block, and the new block's solve output and its copy into
contiguous per-snapshot arrays (plus the solver's work arrays while it
runs). Memory is O(8 n) per sampled column instead of O(n_t n), and the
samples are bitwise equal to one spline per snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from .grid import Field, derivative
from .helmholtz import apply_lambda2
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


_BLOCK = 8  # snapshots per spline solve


class _SnapshotInterpolant:
    """Cubic-in-space, linear-in-time sampler of columns of a trajectory's snapshots.

    Each column maps a snapshot Field to its node values; ``blend`` returns
    one row per column.
    """

    def __init__(self, traj: Trajectory, columns: tuple[Callable[[Field], np.ndarray], ...]):
        grid = traj.grid
        self._snapshots = traj.snapshots
        self._columns = columns
        self._periodic = grid.is_periodic
        self._x = np.append(grid.nodes, grid.length) if self._periodic else grid.nodes
        self._blocks: dict[int, list[PPoly]] = {}

    def _build(self, b: int) -> list[PPoly]:
        snaps = self._snapshots[b * _BLOCK : (b + 1) * _BLOCK]
        block = np.stack([np.stack([col(f) for col in self._columns], axis=-1) for f in snaps])
        if self._periodic:
            block = np.concatenate((block, block[:, :1]), axis=1)
            c = CubicSpline(self._x, block, axis=1, bc_type="periodic").c
        else:
            c = CubicSpline(self._x, block, axis=1).c
        # PPoly copies non-contiguous coefficients on every call
        c = np.ascontiguousarray(np.moveaxis(c, 2, 0))
        # "periodic" maps q = 1.0 (np.mod of a tiny negative q) to 0.0, as the
        # per-snapshot periodic CubicSpline does
        extrapolate = "periodic" if self._periodic else True
        return [PPoly.construct_fast(ck, self._x, extrapolate) for ck in c]

    def _spline(self, k: int) -> PPoly:
        b, i = divmod(k, _BLOCK)
        block = self._blocks.get(b)
        if block is None:
            self._blocks = {j: v for j, v in self._blocks.items() if j == b - 1}
            block = self._blocks[b] = self._build(b)
        return block[i]

    def blend(self, k: int, theta: float, q: np.ndarray) -> np.ndarray:
        qr = np.mod(q, 1.0) if self._periodic else q
        if theta == 0.0:
            return self._spline(k)(qr).T
        return ((1.0 - theta) * self._spline(k)(qr) + theta * self._spline(k + 1)(qr)).T


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
