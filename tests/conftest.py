"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import dghlab as d
from dghlab import Field, GridKind
from dghlab.diagnostics import Rectangle, _quiet_runs


def band_limited(grid, kmax: int, amplitude: float, rng) -> d.Field:
    """Random smooth periodic field with modes 1..kmax, max-normalized."""
    coef = np.zeros(grid.n // 2 + 1, dtype=complex)
    coef[1 : kmax + 1] = rng.normal(size=kmax) + 1j * rng.normal(size=kmax)
    v = np.fft.irfft(coef, n=grid.n)
    return d.Field(grid, amplitude * v / np.max(np.abs(v)))


def run(cfg, u0, **kw) -> d.Trajectory:
    """simulate() with the advisory warnings silenced (reference settings trip them)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", d.CflWarning)
        warnings.simplefilter("ignore", d.BoundaryDecayWarning)
        return d.simulate(cfg, u0, **kw)


def h2_drifts(traj: d.Trajectory, p: d.PhysParams) -> dict:
    """Drift of each cubic variant along traj, the input of ``discriminate_h2``."""
    return {
        v: d.drift_series(traj, lambda u, v=v: d.hamiltonian_h2(u, p, v)).drift
        for v in d.H2Variant
    }


def subsample(traj: d.Trajectory, step: int) -> d.Trajectory:
    """Every step-th snapshot of traj (the first and the last always included)."""
    idx = list(range(0, len(traj.snapshots), step))
    if idx[-1] != len(traj.snapshots) - 1:
        idx.append(len(traj.snapshots) - 1)
    return replace(
        traj,
        times=traj.times[idx],
        snapshots=tuple(traj.snapshots[i] for i in idx),
    )


def green_kernel(kind: GridKind, x) -> np.ndarray | float:
    """Pointwise Green's kernel of the Helmholtz operator for the given domain."""
    x = np.asarray(x, dtype=float)
    if kind is GridKind.PERIODIC:
        out = np.cosh(x - np.floor(x) - 0.5) / (2.0 * math.sinh(0.5))
    else:
        out = 0.5 * np.exp(-np.abs(x))
    return out if out.ndim else float(out)


# -- periodic circulant convolution: the oracle for spectral division -------


def _periodic_kernel_samples(grid, derivative_of_kernel: bool) -> np.ndarray:
    z = grid.nodes - np.floor(grid.nodes) - 0.5
    if derivative_of_kernel:
        g = np.sinh(z) / (2.0 * math.sinh(0.5))
        g[0] = 0.0  # jump at the kernel corner: take the two-sided average
    else:
        g = np.cosh(z) / (2.0 * math.sinh(0.5))
    return g


def _circular_convolve(grid, kernel: np.ndarray, vals: np.ndarray) -> np.ndarray:
    conv = np.fft.irfft(np.fft.rfft(kernel) * np.fft.rfft(vals), n=grid.n)
    return grid.spacing * conv


def invert_lambda2_direct(f: d.Field) -> d.Field:
    """g * f on the circle by circulant convolution with the sampled kernel."""
    g = _periodic_kernel_samples(f.grid, derivative_of_kernel=False)
    return d.Field(f.grid, _circular_convolve(f.grid, g, f.values))


def dx_invert_lambda2_direct(f: d.Field) -> d.Field:
    """g' * f on the circle by circulant convolution with the sampled kernel."""
    gp = _periodic_kernel_samples(f.grid, derivative_of_kernel=True)
    return d.Field(f.grid, _circular_convolve(f.grid, gp, f.values))


# -- O(n^2) sampled-kernel quadratures: the oracle on both grids -------------


def invert_lambda2_reference(f: Field) -> Field:
    """Slow sampled-kernel quadrature of g * f (second-order accurate)."""
    x = f.grid.nodes
    out = np.empty(f.grid.n)
    for i in range(f.grid.n):
        if f.grid.is_periodic:
            g = green_kernel(GridKind.PERIODIC, x[i] - x)
        else:
            g = green_kernel(GridKind.TRUNCATED_LINE, x[i] - x)
        out[i] = f.grid.spacing * np.dot(g, f.values)
    return Field(f.grid, out)


def dx_invert_lambda2_reference(f: Field) -> Field:
    """Slow sampled-kernel quadrature of g' * f (second-order accurate)."""
    x = f.grid.nodes
    out = np.empty(f.grid.n)
    for i in range(f.grid.n):
        d = x[i] - x
        if f.grid.is_periodic:
            z = d - np.floor(d) - 0.5
            gp = np.sinh(z) / (2.0 * math.sinh(0.5))
            gp[i] = 0.0
        else:
            gp = -np.sign(d) * 0.5 * np.exp(-np.abs(d))
        out[i] = f.grid.spacing * np.dot(gp, f.values)
    return Field(f.grid, out)


# -- sliding-window panel integrals: the oracle for the line P/Q recurrence ---


def panel_integrals_reference(grid, vals: np.ndarray, A: np.ndarray, B: np.ndarray) -> None:
    """``helmholtz._panel_integrals`` as a sliding window and two matmuls per call.

    Writes into the caller's A and B, as the library does.  Weights are
    rebuilt on every call; the arithmetic of each panel is the library's,
    so the two must agree bitwise.
    """
    from dghlab.helmholtz import (
        _LAGRANGE_FIRST,
        _LAGRANGE_INTERIOR,
        _LAGRANGE_LAST,
        _exp_panel_moments,
    )

    n = grid.n
    h = grid.spacing
    nu_a, nu_b = _exp_panel_moments(h)
    w_a_int = h * (_LAGRANGE_INTERIOR @ nu_a)
    w_b_int = h * (_LAGRANGE_INTERIOR @ nu_b)
    # interior panels i = 1 .. n-3 read nodes i-1 .. i+2
    stencil = np.lib.stride_tricks.sliding_window_view(vals, 4)  # rows j -> nodes j..j+3
    A[1 : n - 2] = stencil[: n - 3] @ w_a_int
    B[1 : n - 2] = stencil[: n - 3] @ w_b_int
    A[0] = h * (vals[:4] @ (_LAGRANGE_FIRST @ nu_a))
    B[0] = h * (vals[:4] @ (_LAGRANGE_FIRST @ nu_b))
    A[n - 2] = h * (vals[-4:] @ (_LAGRANGE_LAST @ nu_a))
    B[n - 2] = h * (vals[-4:] @ (_LAGRANGE_LAST @ nu_b))


# -- the four-node cubic by Lagrange's product: the oracle for the snapshot sampler --


class LocalCubicInterpolant:
    """The cubic through the four nodes nearest each query, one query at a time.

    Lagrange's product formula prod_j (q - x_j) / (x_m - x_j) in physical
    coordinates. The panel [x_i, x_{i+1}] holding q takes nodes i-1 .. i+2;
    on the line the first and last panels take the four end nodes, and on the
    circle q is reduced mod 1, the nodes are unwrapped to i h and their
    values read at i mod n.
    """

    def __init__(self, grid, fields):
        self._grid = grid
        self._values = [np.array(f.values, dtype=float) for f in fields]

    def _sample(self, vals: np.ndarray, q: float) -> float:
        grid = self._grid
        n, h = grid.n, grid.spacing
        if grid.is_periodic:
            q = q % 1.0
            i = math.floor(q / h)
            stencil = [((i + j) * h, vals[(i + j) % n]) for j in (-1, 0, 1, 2)]
        else:
            i = min(max(math.floor((q - grid.nodes[0]) / h), 1), n - 3)
            stencil = [(grid.nodes[i + j], vals[i + j]) for j in (-1, 0, 1, 2)]
        total = 0.0
        for m, (xm, fm) in enumerate(stencil):
            weight = 1.0
            for j, (xj, _) in enumerate(stencil):
                if j != m:
                    weight *= (q - xj) / (xm - xj)
            total += weight * fm
        return total

    def blend(self, k: int, theta: float, q: np.ndarray) -> np.ndarray:
        def at(j):
            return np.array([self._sample(self._values[j], float(x)) for x in np.atleast_1d(q)])

        if theta == 0.0:
            return at(k)
        return (1.0 - theta) * at(k) + theta * at(k + 1)


def evolve_characteristics_reference(traj: d.Trajectory, seeds) -> tuple:
    """``evolve_characteristics`` on the Lagrange-product oracle: (q, qx, exit_index)."""
    grid = traj.grid
    seeds = np.atleast_1d(np.asarray(seeds, dtype=float))
    gamma = traj.config.params.gamma
    u_itp = LocalCubicInterpolant(grid, traj.snapshots)
    ux_itp = LocalCubicInterpolant(grid, [d.derivative(f, 1) for f in traj.snapshots])
    n_t = len(traj.times)
    q = np.full((n_t, seeds.size), np.nan)
    w = np.full((n_t, seeds.size), np.nan)
    exit_index = np.full(seeds.size, n_t, dtype=int)
    q[0] = seeds
    w[0] = 0.0
    active = np.ones(seeds.size, dtype=bool)
    for k in range(n_t - 1):
        dt = traj.times[k + 1] - traj.times[k]

        def rate(t, qw):
            theta, pos = t / dt, qw[0]
            return np.array((u_itp.blend(k, theta, pos) - gamma, ux_itp.blend(k, theta, pos)))

        q[k + 1, active], w[k + 1, active] = d.step_rk4(
            np.array((q[k, active], w[k, active])), 0.0, dt, rate
        )
        if not grid.is_periodic:
            newly = ((q[k + 1] < grid.nodes[0]) | (q[k + 1] > grid.nodes[-1])) & active
            exit_index[newly] = k + 1
            q[k + 1, newly] = np.nan
            w[k + 1, newly] = np.nan
            active = active & ~newly
    return q, np.exp(w), exit_index


def transport_residual_reference(traj: d.Trajectory, paths, p: d.PhysParams) -> np.ndarray:
    """``transport_residual(...).max_abs`` on the Lagrange-product oracle."""
    c = p.omega + 0.5 * p.gamma
    m_itp = LocalCubicInterpolant(traj.grid, [d.apply_lambda2(f) for f in traj.snapshots])
    m0 = m_itp.blend(0, 0.0, paths.seeds)
    res = np.full_like(paths.q, np.nan)
    for k in range(len(traj.times)):
        valid = paths.exit_index > k
        mq = m_itp.blend(k, 0.0, paths.q[k, valid])
        res[k, valid] = (m0[valid] + c) - (mq + c) * paths.qx[k, valid] ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # All-NaN rows once every seed left
        return np.nanmax(np.abs(res), axis=1)


# -- stacked (n_t, n) masks: the oracle for the snapshot-at-a-time census ------


def vanishing_rectangle_stacked(traj: d.Trajectory, tol: float) -> list:
    """``vanishing_rectangle`` on one stacked array of values, magnitudes and masks."""
    masks = np.abs(np.stack([s.values for s in traj.snapshots])) < tol
    runs_per_time = [_quiet_runs(m) for m in masks]
    n_t = len(traj.times)
    candidates = []
    for k0 in range(n_t - 1):
        for a, b in runs_per_time[k0]:
            if k0 > 0 and masks[k0 - 1, a : b + 1].all():
                continue
            j0, j1, k = a, b, k0
            while k + 1 < n_t:
                best = None
                for c, e in runs_per_time[k + 1]:
                    lo, hi = max(j0, c), min(j1, e)
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
    return [
        Rectangle(
            float(traj.times[k0]), float(traj.times[k1]), float(x[j0]), float(x[j1]), (k0, k1), (j0, j1)
        )
        for k0, k1, j0, j1 in maximal
    ]


@dataclass(frozen=True)
class ManufacturedSolution:
    """Closed-form space-time field u(t, x) with its exact time derivative."""

    u: Callable[[float, np.ndarray], np.ndarray]
    u_t: Callable[[float, np.ndarray], np.ndarray]

    def field(self, grid, t: float) -> Field:
        return Field(grid, self.u(t, grid.nodes))


def decaying(u0: Field) -> ManufacturedSolution:
    """exp(-t) u0, the solution that ``manufactured_forcing(u0, p)`` makes exact."""
    return ManufacturedSolution(
        u=lambda t, x: math.exp(-t) * u0.values, u_t=lambda t, x: -math.exp(-t) * u0.values
    )


def manufactured_forcing_oracle(exact: ManufacturedSolution, p: d.PhysParams, grid):
    """The forcing that makes ``exact`` solve the forced system, evaluated afresh
    at each t: the analytic u_t minus ``rhs_nonlocal`` of the exact field."""

    def forcing(t: float) -> np.ndarray:
        return exact.u_t(t, grid.nodes) - d.rhs_nonlocal(exact.field(grid, t), p).values

    return forcing
