"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

import dghlab as d
from dghlab import Field, GridKind


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
