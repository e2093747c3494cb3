"""dghlab: a numerical laboratory for the Dullin-Gottwald-Holm equation.

The package simulates the DGH shallow-water equation in its nonlocal
(Helmholtz-inverted) form on the periodic circle and on a truncated real
line, and ships tolerance-checked experiments for its structural properties:
conserved functionals, characteristic transport of the momentum, compact
support propagation, exponential tail formation, nonlocal kernel identities,
and the exponential time rescaling that removes weak dissipation.

The package exports exactly the names in the ``__all__`` lists of the eight
library modules below, plus ``__version__``.  The result records of the
analyses stay importable from their modules.
"""

from . import characteristics, diagnostics, dissipative, grid, helmholtz, invariants, profiles
from . import solver
from .characteristics import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .dissipative import *  # noqa: F403
from .grid import *  # noqa: F403
from .helmholtz import *  # noqa: F403
from .invariants import *  # noqa: F403
from .profiles import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (characteristics, diagnostics, dissipative, grid, helmholtz, invariants, profiles, solver)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
