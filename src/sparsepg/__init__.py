"""Sparse projected-gradient toolkit.

Minimize a Lipschitz-differentiable function over the intersection of a
cardinality bound with a permutation-symmetric closed convex set.  Provides
the sparse projection with uniqueness certificates, stationarity checkers, a
constant-stepsize projected gradient baseline, a nonmonotone variant with
coordinate-swap and support-change moves, and a seeded benchmark harness.
"""

from . import bench, core, objectives, projection, sets, solvers, stationarity, subroutines
from .bench import *  # noqa: F403
from .core import *  # noqa: F403
from .objectives import *  # noqa: F403
from .projection import *  # noqa: F403
from .sets import *  # noqa: F403
from .solvers import *  # noqa: F403
from .stationarity import *  # noqa: F403
from .subroutines import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    name
    for module in (core, objectives, projection, sets, solvers, stationarity, subroutines, bench)
    for name in module.__all__
]
