"""Conserved functionals of the flow and their drift along trajectories.

Tracked quantities:

* the quadratic energy ``H(t) = 1/2 int (u^2 + u_x^2) dx`` (half the squared
  H^1 norm), invariant for conservative strong solutions;
* the mass ``int u dx``;
* a cubic functional in two printed variants (see ``H2Variant``), exactly one
  of which is conserved -- the drift study discriminates them empirically;
* the exponentially weighted momenta ``int exp(+-x) (m + omega + gamma/2) dx``
  on the truncated line.

Drift is reported as max |value(t) - value(0)| / max(1, |value(0)|).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Field, derivative, integrate, weighted_integral
from .helmholtz import apply_lambda2
from .solver import PhysParams, Trajectory

__all__ = [
    "FunctionalSeries",
    "H2Variant",
    "discriminate_h2",
    "drift_series",
    "energy_h1",
    "hamiltonian_h2",
    "mass",
    "weighted_momentum",
]


@dataclass(frozen=True)
class FunctionalSeries:
    name: str
    times: np.ndarray
    values: np.ndarray

    @property
    def drift(self) -> float:
        v0 = self.values[0]
        return float(np.max(np.abs(self.values - v0)) / max(1.0, abs(v0)))


def energy_h1(u: Field) -> float:
    """1/2 int (u^2 + u_x^2) dx."""
    ux = derivative(u, 1)
    return 0.5 * integrate(Field(u.grid, u.values**2 + ux.values**2))


def mass(u: Field) -> float:
    """int u dx."""
    return integrate(u)


class H2Variant(enum.Enum):
    # Cubic-gradient term u_x^3 as printed in the source formula.
    AS_WRITTEN = "as_written"
    # Cubic-gradient term u * u_x^2 (the standard shallow-water Hamiltonian).
    CUBIC_GRADIENT = "cubic_gradient"


def hamiltonian_h2(u: Field, p: PhysParams, variant: H2Variant) -> float:
    """int (u^3 + X + 2 omega u^2 - gamma u_x^2) dx with X per the variant."""
    ux = derivative(u, 1)
    if variant is H2Variant.AS_WRITTEN:
        cubic = ux.values**3
    elif variant is H2Variant.CUBIC_GRADIENT:
        cubic = u.values * ux.values**2
    else:
        raise ValueError(f"unknown variant {variant!r}")
    integrand = (
        u.values**3
        + cubic
        + 2.0 * p.omega * u.values**2
        - p.gamma * ux.values**2
    )
    return integrate(Field(u.grid, integrand))


def weighted_momentum(u: Field, p: PhysParams, sign) -> float:
    """int exp(+-x) (m + omega + gamma/2) dx on the truncated line."""
    m = apply_lambda2(u)
    shifted = Field(u.grid, m.values + p.omega + 0.5 * p.gamma)
    return weighted_integral(shifted, sign)


def drift_series(
    traj: Trajectory, functional: Callable[[Field], float], name: str = "functional"
) -> FunctionalSeries:
    """Evaluate a functional on every snapshot of a trajectory."""
    values = np.array([functional(u) for u in traj.snapshots])
    return FunctionalSeries(name, traj.times.copy(), values)


@dataclass(frozen=True)
class H2Discrimination:
    """Outcome of the two-resolution drift study of the cubic functional."""

    conserved: H2Variant | None
    drifts_coarse: dict[H2Variant, float]
    drifts_fine: dict[H2Variant, float]


SHRINK_FACTOR = 6.0
STALL_FACTOR = 2.0


def discriminate_h2(
    traj_coarse: Trajectory, traj_fine: Trajectory, p: PhysParams
) -> H2Discrimination:
    """Decide which cubic variant is conserved from two time resolutions.

    A variant counts as conserved when its drift shrinks by at least
    ``SHRINK_FACTOR`` under the refinement while the other variant's drift
    stays within ``STALL_FACTOR`` of its coarse value.  Returns ``None`` for
    the conserved variant when the evidence is not clear-cut.
    """
    drifts_c: dict[H2Variant, float] = {}
    drifts_f: dict[H2Variant, float] = {}
    for variant in H2Variant:
        fn = lambda u, v=variant: hamiltonian_h2(u, p, v)
        drifts_c[variant] = drift_series(traj_coarse, fn).drift
        drifts_f[variant] = drift_series(traj_fine, fn).drift

    floor = 1e-15
    conserved = None
    for variant in H2Variant:
        other = (
            H2Variant.CUBIC_GRADIENT
            if variant is H2Variant.AS_WRITTEN
            else H2Variant.AS_WRITTEN
        )
        shrinks = drifts_f[variant] < drifts_c[variant] / SHRINK_FACTOR + floor
        stalls = drifts_f[other] > drifts_c[other] / STALL_FACTOR - floor
        if shrinks and stalls and drifts_f[variant] < drifts_f[other]:
            conserved = variant
            break
    return H2Discrimination(conserved, drifts_c, drifts_f)
