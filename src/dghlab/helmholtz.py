"""The Helmholtz operator 1 - d^2/dx^2, its Green's-function inverse, and d/dx of the inverse.

The inverse is a convolution ``g * f`` with

* ``g(x) = exp(-|x|) / 2`` on the real line, and
* ``g(x) = cosh(x - floor(x) - 1/2) / (2 sinh(1/2))`` on the unit circle
  (for convolution the two-argument form ``x - y - floor(x - y) - 1/2`` is
  used verbatim).

On periodic grids the inverse is evaluated by spectral division, dividing
Fourier coefficient k by ``1 + 4 pi^2 k^2``.

On the truncated line the convolution integral is truncated at the grid
boundary; the kernel's exponential decay bounds the truncation error at a
node x by ``exp(-(L - |x|)) * max|f|`` (much less when f itself has decayed
inside the domain).  The quadrature splits the integral at the evaluation
node into the two exponential one-sided parts

    P(x) = exp(-x) * integral_{-L}^{x} exp(+y) f(y) dy,
    Q(x) = exp(+x) * integral_{x}^{L}  exp(-y) f(y) dy,

so that ``g*f = (P + Q)/2`` and ``(g*f)' = (Q - P)/2`` exactly.  P and Q obey
one-step recurrences with decaying coefficients, and each panel integral is
computed exactly against a local cubic interpolant of f, giving a stable
O(n) scheme with fourth-order accuracy.  Each recurrence is solved as a
transposed unit-bidiagonal band system (LAPACK ``dtbtrs``), which works
through the nodes in the recurrence's own order, so the results are bitwise
equal to running the recurrence itself.  The panel weights depend only on
the spacing and are cached; the interior panels are a 4-tap correlation of
f with them.  The sweeps run in storage the caller gives, a (2, n) array
with rows P and Q: the panel integrals are written into ``P[1:]`` and
``Q[:-1]``, ``dtbtrs`` solves them there, and ``(Q - P)/2`` is formed in
the Q row, so a caller that keeps the array (the solver's line kernel)
allocates nothing for them per call.

``dtbtrs`` is scipy's compiled f2py wrapper, loaded from the extension file
``scipy/linalg/_flapack`` on the first line sweep without importing the
``scipy`` or ``scipy.linalg`` packages: the package imports cost about
230 ms and 330 modules, the one extension about 3 ms.  scipy must be
installed; nothing else of it is used.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .grid import Field, Grid, _check_boundary_decay, _spectral_factors, derivative

__all__ = [
    "apply_lambda2",
    "dx_invert_lambda2",
    "invert_lambda2",
]


def apply_lambda2(u: Field) -> Field:
    """u - u_xx; the momentum of a velocity field."""
    return u - derivative(u, 2)


# -- truncated-line path ----------------------------------------------------

def _lagrange_coeffs(sigma_nodes) -> np.ndarray:
    """Monomial coefficients of the cubic Lagrange basis on given sigma nodes.

    Row m holds the coefficients (in the scaled panel coordinate sigma) of the
    cardinal polynomial attached to stencil node m.
    """
    V = np.vander(np.asarray(sigma_nodes, dtype=float), 4, increasing=True)
    return np.linalg.inv(V).T


# Each panel [x_i, x_{i+1}] maps to sigma in [0, 1].  Interior panels
# interpolate f through the nodes at sigma = -1, 0, 1, 2; the first and last
# panels use one-sided stencils of the same width.
_LAGRANGE_INTERIOR = _lagrange_coeffs([-1.0, 0.0, 1.0, 2.0])
_LAGRANGE_FIRST = _lagrange_coeffs([0.0, 1.0, 2.0, 3.0])
_LAGRANGE_LAST = _lagrange_coeffs([-2.0, -1.0, 0.0, 1.0])


def _exp_panel_moments(h: float) -> tuple[np.ndarray, np.ndarray]:
    """Moments nu_p = int_0^1 w(sigma) sigma^p dsigma for the two panel weights.

    Weight A: w = exp(h (sigma - 1)) (decaying towards the left endpoint of
    the recursion step); weight B: w = exp(-h sigma).
    """
    nu_b = np.empty(4)
    nu_a = np.empty(4)
    emh = math.exp(-h)
    nu_b[0] = -math.expm1(-h) / h
    for p in range(1, 4):
        nu_b[p] = (p * nu_b[p - 1] - emh) / h
    nu_a[0] = nu_b[0]
    for p in range(1, 4):
        nu_a[p] = (1.0 - p * nu_a[p - 1]) / h
    return nu_a, nu_b


class _PanelWeights(NamedTuple):
    """Dot-product weights of the panel integrals A and B (see ``_panel_integrals``)."""

    interior_a: np.ndarray  # h * (_LAGRANGE_INTERIOR @ nu_a)
    interior_b: np.ndarray
    first_a: np.ndarray  # _LAGRANGE_FIRST @ nu_a, scaled by h after the dot
    first_b: np.ndarray
    last_a: np.ndarray  # _LAGRANGE_LAST @ nu_a, scaled by h after the dot
    last_b: np.ndarray


@lru_cache(maxsize=32)
def _panel_weights(h: float) -> _PanelWeights:
    """Read-only panel weights for spacing h, computed once per spacing."""
    nu_a, nu_b = _exp_panel_moments(h)
    weights = _PanelWeights(
        interior_a=h * (_LAGRANGE_INTERIOR @ nu_a),
        interior_b=h * (_LAGRANGE_INTERIOR @ nu_b),
        first_a=_LAGRANGE_FIRST @ nu_a,
        first_b=_LAGRANGE_FIRST @ nu_b,
        last_a=_LAGRANGE_LAST @ nu_a,
        last_b=_LAGRANGE_LAST @ nu_b,
    )
    for w in weights:
        w.setflags(write=False)
    return weights


def _panel_integrals(grid: Grid, vals: np.ndarray, A: np.ndarray, B: np.ndarray) -> None:
    """Exact exponential moments of the piecewise-cubic interpolant of f.

    Writes into the caller's arrays A and B, each of length n-1,
    A[i] = int_{x_i}^{x_{i+1}} exp(y - x_{i+1}) f(y) dy,
    B[i] = int_{x_i}^{x_{i+1}} exp(x_i - y) f(y) dy.
    """
    n = grid.n
    h = grid.spacing
    w = _panel_weights(h)
    # interior panel i = 1 .. n-3 reads nodes i-1 .. i+2: a 4-tap correlation
    A[1 : n - 2] = np.correlate(vals, w.interior_a, "valid")
    B[1 : n - 2] = np.correlate(vals, w.interior_b, "valid")
    # ndarray.dot: the ddot of ``@`` on contiguous vectors, for less call overhead
    A[0] = h * vals[:4].dot(w.first_a)
    B[0] = h * vals[:4].dot(w.first_b)
    A[n - 2] = h * vals[-4:].dot(w.last_a)
    B[n - 2] = h * vals[-4:].dot(w.last_b)


@lru_cache(maxsize=32)
def _sweep_bands(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (2, n-1) band storage of the unit-bidiagonal P and Q systems.

    The off-diagonal -exp(-h) sits above the diagonal for P and below it for
    Q; LAPACK reads neither the unit diagonal nor the unused corner entry.
    """
    decay = math.exp(-h)
    upper = np.array([np.full(n - 1, -decay), np.ones(n - 1)], order="F")
    lower = np.array([np.ones(n - 1), np.full(n - 1, -decay)], order="F")
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


@lru_cache(maxsize=1)
def _dtbtrs():
    """LAPACK ``dtbtrs`` from scipy's ``linalg/_flapack`` extension (see module docs).

    ``find_spec`` locates the installed scipy without running its
    ``__init__``, and the extension is executed on its own: a line run
    loads this one module of scipy, a periodic run none.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError(f"the line sweeps need scipy, which is in no directory of sys.path {sys.path}")
    linalg = Path(spec.submodule_search_locations[0], "linalg")
    path = next((p for p in (linalg / f"_flapack{ext}" for ext in EXTENSION_SUFFIXES) if p.is_file()), None)
    if path is None:
        raise ImportError(f"the line sweeps need scipy's _flapack extension, which is not in {linalg}")
    flapack_spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    flapack = importlib.util.module_from_spec(flapack_spec)
    flapack_spec.loader.exec_module(flapack)
    return flapack.dtbtrs


def _line_exponential_parts(grid: Grid, vals: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """One-sided exponential integrals P and Q at every node (see module docs).

    They are written into the rows of the caller's (2, n) array pq, which is
    returned.  Each sweep's panel integrals land in the part of its row that
    the sweep solves, ``P[1:]`` or ``Q[:-1]``, and ``dtbtrs`` solves them
    there.
    """
    dtbtrs = _dtbtrs()
    P, Q = pq[0], pq[1]
    A, B = P[1:], Q[:-1]
    _panel_integrals(grid, vals, A, B)
    upper, lower = _sweep_bands(grid.n, grid.spacing)
    # P[i+1] = exp(-h) * P[i] + A[i], P[0] = 0
    P[0] = 0.0
    p, info_p = dtbtrs(upper, A, uplo="U", trans="T", diag="U", overwrite_b=1)
    # Q[i] = exp(-h) * Q[i+1] + B[i], Q[n-1] = 0
    Q[-1] = 0.0
    q, info_q = dtbtrs(lower, B, uplo="L", trans="T", diag="U", overwrite_b=1)
    if info_p or info_q:
        raise RuntimeError(f"dtbtrs failed on a unit-diagonal band: info {info_p}, {info_q}")
    # The wrapper returns the very view it was given when it solved in place,
    # and a new array when it had to copy b.
    if p is not A:
        A[...] = p
    if q is not B:
        B[...] = q
    return pq


def invert_lambda2(f: Field) -> Field:
    """Green's-function convolution g * f inverting the Helmholtz operator."""
    _check_boundary_decay(f.grid, f.values, "invert_lambda2")
    if f.grid.is_periodic:
        coeffs = np.fft.rfft(f.values) / _spectral_factors(f.grid).helmholtz
        return Field(f.grid, np.fft.irfft(coeffs, n=f.grid.n))
    P, Q = _line_exponential_parts(f.grid, f.values, np.empty((2, f.grid.n)))
    P += Q
    P *= 0.5
    return Field(f.grid, P)


def dx_invert_lambda2(f: Field) -> Field:
    """d/dx of the Green's-function convolution, i.e. convolution with g'."""
    _check_boundary_decay(f.grid, f.values, "dx_invert_lambda2")
    if f.grid.is_periodic:
        coeffs = np.fft.rfft(f.values) * _spectral_factors(f.grid).dx_helmholtz
        return Field(f.grid, np.fft.irfft(coeffs, n=f.grid.n))
    return Field(f.grid, _dx_invert_line(f.grid, f.values, np.empty((2, f.grid.n))))


def _dx_invert_line(grid: Grid, vals: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """``dx_invert_lambda2`` on a line's node values, without the boundary check.

    P and Q are swept in the caller's (2, n) array pq, and ``(Q - P)/2`` is
    formed in its Q row, which is returned.
    """
    _line_exponential_parts(grid, vals, pq)
    P, Q = pq[0], pq[1]
    np.subtract(Q, P, out=Q)
    Q *= 0.5
    return Q
