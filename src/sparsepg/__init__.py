"""Sparse projected-gradient toolkit.

Minimize a Lipschitz-differentiable function over the intersection of a
cardinality bound with a permutation-symmetric closed convex set.  Provides
the sparse projection with uniqueness certificates, stationarity checkers, a
constant-stepsize projected gradient baseline, a nonmonotone variant with
coordinate-swap and support-change moves, and a seeded benchmark harness.
"""

from .core import DegenerateSupportError, make_rng, sorting_permutation, support_of
from .objectives import LeastSquares, Logistic
from .projection import SparseProjection, brute_force_project, certify_unique, project_sparse
from .sets import (
    SymmetricSet,
    catalog,
    full_space,
    l1_ball,
    l2_ball,
    nonneg_l1_ball,
    nonneg_l2_ball,
    nonneg_orthant,
    nonneg_simplex,
    parse_set,
)
from .solvers import (
    IterateTrace,
    IterationRecord,
    SolverConfig,
    bb_initial_stepsize,
    benchmark_config,
    default_stepsize,
    max_backtracks,
    npg_solve,
    pg_solve,
)
from .stationarity import (
    GapMinimum,
    StationarityReport,
    check_coordinatewise,
    check_general_stationary,
    check_strong_stationary,
    default_grid,
    minimize_support_gap,
    support_gap,
)
from .subroutines import change_support, coordinate_swap
from .bench import (
    FAMILIES,
    BenchReport,
    BenchRow,
    Instance,
    gen_cs_instance,
    gen_instance,
    gen_logistic_instance,
    gen_simplex_instance,
    load_instance,
    load_point,
    run_benchmark,
    save_instance,
    save_point,
    solve_instance,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateSupportError",
    "make_rng",
    "sorting_permutation",
    "support_of",
    "LeastSquares",
    "Logistic",
    "SparseProjection",
    "brute_force_project",
    "certify_unique",
    "project_sparse",
    "SymmetricSet",
    "catalog",
    "full_space",
    "l1_ball",
    "l2_ball",
    "nonneg_l1_ball",
    "nonneg_l2_ball",
    "nonneg_orthant",
    "nonneg_simplex",
    "parse_set",
    "IterateTrace",
    "IterationRecord",
    "SolverConfig",
    "bb_initial_stepsize",
    "benchmark_config",
    "default_stepsize",
    "max_backtracks",
    "npg_solve",
    "pg_solve",
    "GapMinimum",
    "StationarityReport",
    "check_coordinatewise",
    "check_general_stationary",
    "check_strong_stationary",
    "default_grid",
    "minimize_support_gap",
    "support_gap",
    "change_support",
    "coordinate_swap",
    "FAMILIES",
    "BenchReport",
    "BenchRow",
    "Instance",
    "gen_cs_instance",
    "gen_instance",
    "gen_logistic_instance",
    "gen_simplex_instance",
    "load_instance",
    "load_point",
    "run_benchmark",
    "save_instance",
    "save_point",
    "solve_instance",
]
