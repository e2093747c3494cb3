"""Named families of initial data used by the scenario runner and tests."""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid
from .helmholtz import invert_lambda2

__all__ = ["make_profile"]


def zero(grid: Grid) -> Field:
    return Field.zeros(grid)


def gaussian(grid: Grid, amplitude: float = 1.0, center: float = 0.0, width: float = 1.0) -> Field:
    """amplitude * exp(-((x - center) / width)^2)."""
    if width <= 0:
        raise ValueError("width must be positive")
    x = grid.nodes
    return Field(grid, amplitude * np.exp(-(((x - center) / width) ** 2)))


def cosine(grid: Grid, amplitude: float = 1.0, modes: int = 1, mean: float = 0.0) -> Field:
    """amplitude * cos(2 pi modes x) + mean on the periodic circle."""
    if not grid.is_periodic:
        raise ValueError("cosine initial data needs a periodic grid")
    if not float(modes).is_integer():
        raise ValueError(f"modes must be a whole number, got {modes!r}")
    x = grid.nodes
    return Field(grid, amplitude * np.cos(2.0 * np.pi * modes * x) + mean)


def bump(grid: Grid, amplitude: float = 1.0, center: float = 0.0, width: float = 1.0) -> Field:
    """Smooth compactly supported bump, value ``amplitude`` at the center.

    amplitude * exp(1 - 1 / (1 - s^2)) for |s| < 1 with s = (x - center)/width,
    and exactly zero outside.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    s = (grid.nodes - center) / width
    vals = np.zeros(grid.n)
    inside = np.abs(s) < 1.0
    vals[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return Field(grid, vals)


_FAMILIES = {
    "zero": zero,
    "gaussian": gaussian,
    "cosine": cosine,
    "bump": bump,
}


def make_profile(grid: Grid, family: str, space: str = "u", **params) -> Field:
    """Build initial data from a named family.

    ``space="u"`` returns the profile itself; ``space="m"`` treats the profile
    as momentum data and returns its Helmholtz inverse, so the profile equals
    ``u0 - u0''`` of the returned field.
    """
    try:
        fn = _FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown initial-data family {family!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    f = fn(grid, **params)
    if space == "u":
        return f
    if space == "m":
        return invert_lambda2(f)
    raise ValueError(f"space must be 'u' or 'm', got {space!r}")
