"""dghlab: a numerical laboratory for the Dullin-Gottwald-Holm equation.

The package simulates the DGH shallow-water equation in its nonlocal
(Helmholtz-inverted) form on the periodic circle and on a truncated real
line, and ships tolerance-checked experiments for its structural properties:
conserved functionals, characteristic transport of the momentum, compact
support propagation, exponential tail formation, nonlocal kernel identities,
and the exponential time rescaling that removes weak dissipation.
"""

from .characteristics import (
    CharacteristicPaths,
    TransportResidual,
    evolve_characteristics,
    transport_residual,
)
from .diagnostics import (
    ContinuationProbe,
    Rectangle,
    SupportReport,
    continuation_probe,
    sign_kernel_S,
    support_interval,
    tail_decay_fit,
    vanishing_rectangle,
)
from .dissipative import (
    EquivalenceReport,
    equivalence_report,
    map_solution,
    to_conservative_time,
)
from .grid import (
    BoundaryDecayWarning,
    Field,
    Grid,
    GridKind,
    NonFiniteFieldError,
    derivative,
    integrate,
    make_grid,
    weighted_integral,
)
from .helmholtz import (
    apply_lambda2,
    dx_invert_lambda2,
    invert_lambda2,
)
from .invariants import (
    FunctionalSeries,
    H2Variant,
    discriminate_h2,
    drift_series,
    energy_h1,
    hamiltonian_h2,
    mass,
    weighted_momentum,
)
from .profiles import make_profile
from .solver import (
    CflWarning,
    ManufacturedSolution,
    PhysParams,
    SimConfig,
    Termination,
    Trajectory,
    manufactured_forcing,
    rhs_nonlocal,
    simulate,
    step_rk4,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryDecayWarning",
    "CflWarning",
    "CharacteristicPaths",
    "ContinuationProbe",
    "EquivalenceReport",
    "Field",
    "FunctionalSeries",
    "Grid",
    "GridKind",
    "H2Variant",
    "ManufacturedSolution",
    "NonFiniteFieldError",
    "PhysParams",
    "Rectangle",
    "SimConfig",
    "SupportReport",
    "Termination",
    "Trajectory",
    "TransportResidual",
    "apply_lambda2",
    "continuation_probe",
    "derivative",
    "discriminate_h2",
    "drift_series",
    "dx_invert_lambda2",
    "energy_h1",
    "equivalence_report",
    "evolve_characteristics",
    "hamiltonian_h2",
    "integrate",
    "invert_lambda2",
    "make_grid",
    "make_profile",
    "manufactured_forcing",
    "map_solution",
    "mass",
    "rhs_nonlocal",
    "sign_kernel_S",
    "simulate",
    "step_rk4",
    "support_interval",
    "tail_decay_fit",
    "to_conservative_time",
    "transport_residual",
    "vanishing_rectangle",
    "weighted_integral",
    "weighted_momentum",
    "__version__",
]
