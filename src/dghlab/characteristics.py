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
interpolant.  Each Runge-Kutta stage samples every seed with one stencil and
one gather over the two snapshots it blends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Field, derivative
from .helmholtz import _LAGRANGE_INTERIOR, apply_lambda2
from .solver import MaxNormSeries, PhysParams, Trajectory, step_rk4

__all__ = ["evolve_characteristics", "transport_residual"]


@dataclass(frozen=True, eq=False)
class CharacteristicPaths:
    """Particle positions q(t, x) and stretches q_x(t, x) for a set of seeds.

    ``q[k, s]`` is the position of seed s at snapshot time k; on periodic
    domains positions are unwrapped (they are reduced mod 1 only when sampling
    fields).  ``exit_index[s]`` is the first time index at which seed s lay
    outside a truncated-line domain, and its q and q_x entries from there on
    are NaN; it equals ``len(times)`` for seeds that never exited.
    """

    seeds: np.ndarray
    times: np.ndarray
    q: np.ndarray
    qx: np.ndarray
    exit_index: np.ndarray


# node offsets of the four taps around the panel [x_i, x_{i+1}], one row per tap
_TAPS = np.arange(-1, 3)[:, None]


class _SnapshotInterpolant:
    """Cubic-in-space, linear-in-time sampler of columns of a trajectory's snapshots.

    Each column maps a snapshot Field to its node values; ``blend`` returns
    one row per column.  In space a sample is the cubic through the four
    nodes nearest it (nodes i-1 .. i+2 around the panel [x_i, x_{i+1}]); on
    the line the first and last panels take the one-sided four nodes, on the
    circle node indices wrap.  Snapshot k's columns are computed into slot
    k % 2 of one (2, columns, n) array when that slot holds another snapshot:
    a forward sweep blends snapshots k and k + 1, and one ``take`` on the two
    slots gathers both.
    """

    def __init__(self, traj: Trajectory, columns: tuple[Callable[[Field], np.ndarray], ...]):
        grid = traj.grid
        self._periodic = grid.is_periodic
        self._x0, self._h, self._n = grid.nodes[0], grid.spacing, grid.n
        self._snapshots = traj.snapshots
        self._columns = columns
        self._slots = np.empty((2, len(columns), grid.n))
        self._loaded = [-1, -1]  # the snapshot each slot holds

    def _at(self, k: int) -> np.ndarray:
        slot = self._slots[k % 2]
        if self._loaded[k % 2] != k:
            for c, col in enumerate(self._columns):
                slot[c] = col(self._snapshots[k])
            self._loaded[k % 2] = k
        return slot

    def blend(self, k: int, theta: float, q: np.ndarray) -> np.ndarray:
        qr = np.mod(q, 1.0) if self._periodic else q
        s = (qr - self._x0) / self._h
        i = np.floor(s)
        if not self._periodic:
            i = np.clip(i, 1, self._n - 3)
        t = s - i
        # the rows np.vander(t, 4, increasing=True) builds, without its overhead
        powers = np.empty((t.size, 4))
        powers[:, 0] = 1.0
        powers[:, 1] = t
        np.multiply(t, t, out=powers[:, 2])
        np.multiply(powers[:, 2], t, out=powers[:, 3])
        w = (powers @ _LAGRANGE_INTERIOR.T).T
        idx = i.astype(int) + _TAPS
        if self._periodic:
            # np.mod of a tiny negative q is 1.0, i = n: the wrap samples node 0
            idx %= self._n
        # add.reduce over the tap axis sums 0 + w0 g0 + w1 g1 + w2 g2 + w3 g3
        # left to right, bitwise what np.sum gives over a (..., 4) axis
        if theta == 0.0:
            return np.add.reduce(self._at(k).take(idx, axis=-1) * w, axis=-2)
        self._at(k)
        self._at(k + 1)
        both = np.add.reduce(self._slots.take(idx, axis=-1) * w, axis=-2)
        return (1.0 - theta) * both[k % 2] + theta * both[(k + 1) % 2]


def _values(f: Field) -> np.ndarray:
    return f.values


def _slope(f: Field) -> np.ndarray:
    return derivative(f, 1).values


def _momentum(f: Field) -> np.ndarray:
    return apply_lambda2(f).values


def evolve_characteristics(traj: Trajectory, seeds) -> CharacteristicPaths:
    """Integrate seed particles through the flow of a stored trajectory.

    Every seed is stepped in whole rows at every step.  A seed that leaves a
    truncated line is clamped to its ends, so that its later samples stay
    finite, and its entries from the exit on become NaN after the loop; the
    loop stops once every seed has left.
    """
    grid = traj.grid
    x_lo, x_hi = (-np.inf, np.inf) if grid.is_periodic else (grid.nodes[0], grid.nodes[-1])
    seeds = np.atleast_1d(np.asarray(seeds, dtype=float))
    if not np.all(np.isfinite(seeds)):
        raise ValueError("seeds must be finite")
    if np.any(seeds < x_lo) or np.any(seeds > x_hi):
        raise ValueError("seeds must lie inside the grid")
    gamma = traj.config.params.gamma
    itp = _SnapshotInterpolant(traj, (_values, _slope))

    n_t = len(traj.times)
    q = np.full((n_t, seeds.size), np.nan)
    w = np.full((n_t, seeds.size), np.nan)  # log of the stretch factor
    exit_index = np.full(seeds.size, n_t, dtype=int)
    q[0] = seeds
    w[0] = 0.0
    for k in range(n_t - 1 if seeds.size else 0):
        dt = traj.times[k + 1] - traj.times[k]

        def rate(t: float, qw: np.ndarray) -> np.ndarray:
            # (q, log q_x)' = (u - gamma, u_x) at the blend t / dt of snapshots k, k+1
            du = itp.blend(k, t / dt, qw[0])
            du[0] -= gamma
            return du

        q[k + 1], w[k + 1] = step_rk4(np.array((q[k], w[k])), 0.0, dt, rate)
        out = (q[k + 1] < x_lo) | (q[k + 1] > x_hi)
        if np.any(out):
            exit_index[out & (exit_index > k)] = k + 1
            if exit_index.max() <= k + 1:
                break
            np.clip(q[k + 1], x_lo, x_hi, out=q[k + 1])
    for s in np.flatnonzero(exit_index < n_t):
        q[exit_index[s] :, s] = np.nan
        w[exit_index[s] :, s] = np.nan
    return CharacteristicPaths(seeds, traj.times, q, np.exp(w), exit_index)


def transport_residual(
    traj: Trajectory, paths: CharacteristicPaths, p: PhysParams
) -> MaxNormSeries:
    """Per-time max over the seeds still inside the domain of the momentum-transport
    residual, NaN once none is.

    Residual(t, x) = (m0(x) + c) - (m(t, q(t, x)) + c) * q_x(t, x)^2 with
    c = omega + gamma/2; identically zero for the exact flow.
    """
    if len(paths.times) != len(traj.times) or np.any(paths.times != traj.times):
        raise ValueError("paths were not computed from this trajectory")
    c = p.omega + 0.5 * p.gamma
    m_itp = _SnapshotInterpolant(traj, (_momentum,))
    (m0_at_seeds,) = m_itp.blend(0, 0.0, paths.seeds)
    m0c = m0_at_seeds + c

    max_abs = np.full(len(traj.times), np.nan)
    for k in range(paths.exit_index.max(initial=0)):
        # a departed seed is sampled where it started; fmax skips its NaN q_x
        (mq,) = m_itp.blend(k, 0.0, np.where(paths.exit_index > k, paths.q[k], paths.seeds))
        res = m0c - (mq + c) * paths.qx[k] ** 2
        max_abs[k] = np.fmax.reduce(np.abs(res))
    return MaxNormSeries(traj.times, max_abs)
