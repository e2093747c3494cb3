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


# node offsets of the four taps around the panel [x_i, x_{i+1}], one row per tap
_TAPS = np.arange(-1, 3)[:, None]


class _SnapshotInterpolant:
    """Cubic-in-space, linear-in-time sampler of columns of a trajectory's snapshots.

    Each column maps a snapshot Field to its node values; ``blend`` returns
    one row per column.  In space a sample is the cubic through the four
    nodes nearest it (nodes i-1 .. i+2 around the panel [x_i, x_{i+1}]); on
    the line the first and last panels take the one-sided four nodes, on the
    circle node indices wrap.  Snapshot k's columns are computed the first
    time it is sampled into slot k % 2 of one (2, columns, n) array, and only
    snapshot k - 1's are kept with them: a forward sweep blends snapshots k
    and k + 1, and one ``take`` on the two slots gathers both.
    """

    def __init__(self, traj: Trajectory, columns: tuple[Callable[[Field], np.ndarray], ...]):
        grid = traj.grid
        self._periodic = grid.is_periodic
        self._x0, self._h, self._n = grid.nodes[0], grid.spacing, grid.n
        self._snapshots = traj.snapshots
        self._columns = columns
        self._slots = np.empty((2, len(columns), grid.n))
        self._held: dict[int, np.ndarray] = {}

    def _at(self, k: int) -> np.ndarray:
        if k not in self._held:
            self._held = {j: v for j, v in self._held.items() if j == k - 1}
            slot = self._slots[k % 2]
            for c, col in enumerate(self._columns):
                slot[c] = col(self._snapshots[k])
            self._held[k] = slot
        return self._held[k]

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

    Whole rows are stepped while every seed is inside the domain; after the
    first exit from a truncated line, only the seeds still inside are.
    """
    grid = traj.grid
    x_lo, x_hi = grid.nodes[0], grid.nodes[-1]
    seeds = np.atleast_1d(np.asarray(seeds, dtype=float))
    if not grid.is_periodic:
        if np.any(seeds < x_lo) or np.any(seeds > x_hi):
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

    inside = np.ones(n_s, dtype=bool)
    rows = slice(None)  # every seed until the first one leaves, then the mask inside
    for k in range(n_t - 1 if n_s else 0):
        dt = traj.times[k + 1] - traj.times[k]

        def rate(t: float, qw: np.ndarray) -> np.ndarray:
            # (q, log q_x)' = (u - gamma, u_x) at the blend t / dt of snapshots k, k+1
            du = itp.blend(k, t / dt, qw[0])
            du[0] -= gamma
            return du

        q[k + 1, rows], w[k + 1, rows] = step_rk4(
            np.array((q[k, rows], w[k, rows])), 0.0, dt, rate
        )
        if grid.is_periodic:
            continue
        newly = (q[k + 1] < x_lo) | (q[k + 1] > x_hi)
        if np.any(newly):
            exit_index[newly] = k + 1
            q[k + 1, newly] = np.nan
            w[k + 1, newly] = np.nan
            inside &= ~newly
            rows = inside
            if not np.any(inside):
                break
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
    m0c = m0_at_seeds + c
    first_exit = int(np.min(paths.exit_index)) if paths.exit_index.size else 0

    max_abs = np.full(len(traj.times), np.nan)
    for k in range(len(traj.times)):
        if k < first_exit:
            rows = slice(None)  # every seed is inside: whole rows, no masks
        else:
            rows = paths.exit_index > k
            if not np.any(rows):
                break
        (mq,) = m_itp.blend(k, 0.0, paths.q[k, rows])
        res = m0c[rows] - (mq + c) * paths.qx[k, rows] ** 2
        max_abs[k] = np.fmax.reduce(np.abs(res))
    return TransportResidual(traj.times.copy(), max_abs)
