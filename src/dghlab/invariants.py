"""Conserved functionals of the flow and their drift along trajectories.

Tracked quantities:

* the quadratic energy ``H(t) = 1/2 int (u^2 + u_x^2) dx`` (half the squared
  H^1 norm), invariant for conservative strong solutions;
* the mass ``int u dx``;
* a cubic functional in two printed variants (see ``H2Variant``), exactly one
  of which is conserved -- ``discriminate_h2`` tells them apart by the gap
  between their drifts on one run (the cubes are products, not ``**3``: see
  ``hamiltonian_h2``);
* the exponentially weighted momenta ``int exp(+-x) (m + omega + gamma/2) dx``
  on the truncated line.

Drift is |value(t) - value(0)| / max(1, |value(0)|), computed by
``relative_drift`` for every table, plot and check that reports it; a
series' drift is its maximum over the run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import permutations
from typing import Callable

import numpy as np

from .grid import Field, derivative, integrate, weighted_integral
from .helmholtz import apply_lambda2
from .solver import PhysParams, Trajectory

__all__ = [
    "H2Variant",
    "discriminate_h2",
    "drift_series",
    "energy_h1",
    "hamiltonian_h2",
    "mass",
    "weighted_momentum",
]


def relative_drift(values) -> np.ndarray:
    """|v - v[0]| / max(1, |v[0]|) per entry; empty for an empty series."""
    values = np.asarray(values, dtype=float)
    v0 = values[:1]
    return np.abs(values - v0) / np.maximum(1.0, np.abs(v0))


@dataclass(frozen=True, eq=False)
class FunctionalSeries:
    name: str
    times: np.ndarray
    values: np.ndarray

    @property
    def drift(self) -> float:
        return float(np.max(relative_drift(self.values)))


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
    """int (u^3 + X + 2 omega u^2 - gamma u_x^2) dx with X per the variant.

    Cubes are products of squares, (v * v) * v: numpy sends ``v**3`` to
    libm's ``pow``, which takes a slow path for negative bases, and u_x
    always has both signs.  The two differ by rounding only.
    """
    vals = u.values
    ux = derivative(u, 1).values
    u2, ux2 = vals * vals, ux * ux
    if variant is H2Variant.AS_WRITTEN:
        cubic = ux2 * ux
    elif variant is H2Variant.CUBIC_GRADIENT:
        cubic = vals * ux2
    else:
        raise ValueError(f"unknown variant {variant!r}")
    integrand = u2 * vals + cubic + 2.0 * p.omega * u2 - p.gamma * ux2
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
    return FunctionalSeries(name, traj.times, values)


H2_GAP = 1e3


def discriminate_h2(drifts: dict[H2Variant, float]) -> H2Variant | None:
    """Decide which cubic variant is conserved from its drift on one run.

    ``drifts`` holds each variant's drift along the same run.  The conserved
    variant drifts by the integrator's error alone, 4 to 13 decades below the
    other on the runs measured, so it is the one whose drift is at least
    ``H2_GAP`` times smaller than the other's.  Returns ``None`` otherwise, as
    on a tie, when both drifts are zero, and on the damped runs measured,
    where neither variant is conserved and the drifts differ by 3 at most.
    """
    for variant, other in permutations(H2Variant):
        if drifts[other] > 0 and drifts[variant] * H2_GAP <= drifts[other]:
            return variant
    return None
