"""Discrete spatial domains, fields over them, differentiation and quadrature.

Two domain types are supported:

* the periodic unit circle, nodes ``x_j = j/n`` (the node at ``x = 1`` is
  identified with ``x = 0`` and not stored), and
* a truncated real line ``[-L, L]`` with cell-centered nodes
  ``x_j = -L + (j + 1/2) * h``, ``h = 2L/n``.  Cell-centered nodes are
  symmetric about the origin, which keeps parity arguments exact node-wise.

Differentiation is spectral on the circle and sixth-order centred differences
on the line, whose ghost nodes u_0 e^{-jh} and u_{n-1} e^{-jh}, j = 1..3, past
the ends are the exterior tails: exact where the momentum u - u_xx is 0 at the
ends, of lower order at the end nodes of an undecayed field, which
``BoundaryDecayWarning`` reports.  Quadrature is the
composite rectangle rule, which is spectrally accurate for smooth periodic
data and superalgebraically accurate on the line once the integrand has
decayed below machine precision at the boundary.
"""

from __future__ import annotations

import enum
import operator
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "BoundaryDecayWarning",
    "Field",
    "GridKind",
    "NonFiniteFieldError",
    "derivative",
    "integrate",
    "make_grid",
    "weighted_integral",
]

MIN_NODES = 16
# 2^24 nodes (128 MiB per stored field) is 1024x the largest grid any shipped
# config, test or benchmark uses (16384 nodes); a larger n is a typo, and it
# is rejected before anything is allocated.
MAX_NODES = 2**24

# Tolerated ratio |f(boundary)| / max|f| before a truncated-line field is
# considered non-decayed and a soft warning is attached.
BOUNDARY_DECAY_RATIO = 1e-8


class GridKind(enum.Enum):
    PERIODIC = "periodic"
    TRUNCATED_LINE = "line"


class BoundaryDecayWarning(UserWarning):
    """A truncated-line operation saw a field that has not decayed at the boundary."""


class NonFiniteFieldError(ValueError):
    """A field was constructed with NaN/Inf entries."""


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid, either periodic (period 1) or a truncated line [-L, L].

    ``length`` is the full domain extent: exactly 1.0 for periodic grids,
    ``2 L`` for truncated-line grids.
    """

    kind: GridKind
    n: int
    length: float

    def __post_init__(self):
        if not isinstance(self.kind, GridKind):
            raise TypeError(f"kind must be a GridKind, got {self.kind!r}")
        try:  # numpy integers pass; a float such as 32.0 does not
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise TypeError(f"the node count n must be an integer, got {self.n!r}") from None
        if self.n < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes, got n={self.n}")
        if self.n > MAX_NODES:
            raise ValueError(f"at most {MAX_NODES} nodes are supported, got n={self.n}")
        if self.kind is GridKind.PERIODIC and self.length != 1.0:
            raise ValueError("periodic grids have period 1")
        if not 0 < self.length < np.inf:
            raise ValueError(f"domain extent must be positive and finite, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def is_periodic(self) -> bool:
        return self.kind is GridKind.PERIODIC

    @property
    def half_width(self) -> float:
        """Half-width L of a truncated-line grid."""
        if self.is_periodic:
            raise ValueError("half_width is defined for truncated-line grids only")
        return 0.5 * self.length

    @cached_property
    def nodes(self) -> np.ndarray:
        if self.is_periodic:
            x = np.arange(self.n) * self.spacing
        else:
            x = -self.half_width + (np.arange(self.n) + 0.5) * self.spacing
        x.setflags(write=False)
        return x


def make_grid(kind: GridKind, n: int, extent: float | None = None) -> Grid:
    """Build a validated grid.

    ``extent`` is the half-width L for truncated-line grids and is ignored for
    periodic grids (whose period is fixed to 1).
    """
    if kind is GridKind.PERIODIC:
        return Grid(kind, n, 1.0)
    if extent is None or not 0 < extent < np.inf:
        raise ValueError(f"truncated-line grids need a positive, finite half-width, got {extent}")
    return Grid(kind, n, 2.0 * float(extent))


@dataclass(frozen=True, eq=False)
class Field:
    """Real samples of one function on a grid, one value per node.

    Values are validated to be finite (NaN/Inf is a hard error) and stored
    read-only, so fields can be shared freely across threads.  Like every
    record that holds arrays, a Field compares and hashes by identity.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"field has {vals.shape} values for a grid with {self.grid.n} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteFieldError("field contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n))

    @property
    def x(self) -> np.ndarray:
        return self.grid.nodes

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def _require_same_grid(self, other: "Field") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._require_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._require_same_grid(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values)


def _warn(message: str, category: type[Warning]) -> None:
    """Warn at the innermost frame outside the dghlab package: the user's call."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == "dghlab":
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _check_boundary_decay(grid: Grid, values: np.ndarray, what: str) -> bool:
    """Warn if truncated-line values have not decayed at the boundary; return whether it did."""
    if grid.is_periodic:
        return False
    peak = np.max(np.abs(values))
    edge = max(abs(values[0]), abs(values[-1]))
    if edge <= BOUNDARY_DECAY_RATIO * peak:
        return False
    _warn(
        f"{what}: field magnitude {edge:.3e} at the domain boundary exceeds "
        f"{BOUNDARY_DECAY_RATIO:g} * max|f| = {BOUNDARY_DECAY_RATIO * peak:.3e}; "
        "truncated-line results may be polluted by the cut-off",
        BoundaryDecayWarning,
    )
    return True


class _SpectralFactors(NamedTuple):
    ik: np.ndarray  # 2 pi i k, the spectral d/dx
    helmholtz: np.ndarray  # 1 + 4 pi^2 k^2, the symbol of 1 - d^2/dx^2
    keep: np.ndarray  # 1.0 on the modes the 2/3 rule keeps in quadratic products, else 0.0
    dx: np.ndarray  # ik, zero on an even n's Nyquist mode (no well-defined odd derivative)
    dx_helmholtz: np.ndarray  # dx / helmholtz, the symbol of d/dx Lambda^{-2}


@lru_cache(maxsize=32)
def _spectral_factors(grid: Grid) -> _SpectralFactors:
    """Read-only Fourier multipliers of a periodic grid, computed once per grid."""
    k = np.fft.rfftfreq(grid.n, d=grid.spacing)
    ik = 2j * np.pi * k
    helmholtz = 1.0 + 4.0 * np.pi**2 * k**2
    dx = ik.copy()
    if grid.n % 2 == 0:
        dx[-1] = 0.0
    factors = _SpectralFactors(
        ik=ik,
        helmholtz=helmholtz,
        keep=(k <= grid.n / 3.0).astype(float),
        dx=dx,
        dx_helmholtz=dx / helmholtz,
    )
    for a in factors:
        a.setflags(write=False)
    return factors


def _derivative_periodic(grid: Grid, values: np.ndarray, order: int) -> np.ndarray:
    sf = _spectral_factors(grid)
    symbol = (sf.dx if order % 2 == 1 else sf.ik) ** order
    return np.fft.irfft(np.fft.rfft(values) * symbol, n=grid.n)


def _fornberg_weights(nodes: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 from given nodes.

    Classical recursive construction; exact for polynomials up to the stencil
    size, hence order ``len(nodes) - m`` on arbitrary node sets.
    """
    xs = np.asarray(nodes, dtype=float)
    npts = xs.size
    w = np.zeros((m + 1, npts))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, npts):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = (c4 * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w[m]


# Stencil half-width of the 6th-order line derivatives, and their ghost nodes per end.
_HALF_WIDTH = 3


@lru_cache(maxsize=32)
def _line_stencils(spacing: float, order: int):
    """Read-only centred weights, and the ghost factors e^{-jh}, j = 1.._HALF_WIDTH."""
    offs = np.arange(-_HALF_WIDTH, _HALF_WIDTH + 1) * spacing
    interior = _fornberg_weights(offs, 0.0, order)
    decay = np.exp(-spacing * np.arange(1, _HALF_WIDTH + 1))
    for w in (interior, decay):
        w.setflags(write=False)
    return interior, decay


def _derivative_line(grid: Grid, values: np.ndarray, order: int) -> np.ndarray:
    interior, decay = _line_stencils(grid.spacing, order)
    padded = np.concatenate((values[0] * decay[::-1], values, values[-1] * decay))
    return np.correlate(padded, interior, mode="valid")


def derivative(f: Field, order: int) -> Field:
    """First or second spatial derivative (``order`` 1 or 2).

    Spectral differentiation on periodic grids (exact for resolved Fourier
    modes); 6th-order centred stencils on the line, with the exterior-tail
    ghost nodes of the module docstring.
    """
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    _check_boundary_decay(f.grid, f.values, "derivative")
    diff = _derivative_periodic if f.grid.is_periodic else _derivative_line
    return Field(f.grid, diff(f.grid, f.values, order))


def integrate(f: Field) -> float:
    """Quadrature of f over its domain (composite rectangle rule)."""
    return float(f.grid.spacing * np.sum(f.values))


def _normalize_sign(sign) -> int:
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def weighted_integral(f: Field, sign) -> float:
    """Exponentially weighted integral of f over the truncated line.

    Returns the quadrature of ``exp(+x) f(x)`` or ``exp(-x) f(x)``.  The
    weight is not periodic, so periodic grids are rejected.  A soft warning is
    attached when the weighted integrand has not decayed at the boundary.
    """
    if f.grid.is_periodic:
        raise ValueError("weighted integrals need a truncated-line grid")
    s = _normalize_sign(sign)
    weighted = np.exp(s * f.grid.nodes) * f.values
    _check_boundary_decay(f.grid, weighted, "weighted_integral")
    return float(f.grid.spacing * np.sum(weighted))
