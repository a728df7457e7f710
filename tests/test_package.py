import sparsepg
from sparsepg import bench, core

PUBLIC_NAMES = [
    "BenchReport", "BenchRow", "DegenerateSupportError", "FAMILIES", "GapMinimum", "Instance",
    "IterateTrace", "IterationRecord", "LeastSquares", "Logistic", "SolverConfig",
    "SparseProjection", "StationarityReport", "SymmetricSet", "benchmark_config", "catalog",
    "certify_unique", "change_support", "check_coordinatewise", "check_strong_stationary",
    "coordinate_swap", "default_grid", "default_stepsize", "full_space", "gen_cs_instance",
    "gen_instance", "gen_logistic_instance", "gen_simplex_instance", "l1_ball", "l2_ball",
    "load_instance", "load_point", "make_rng", "max_backtracks", "minimize_support_gap",
    "nonneg_l1_ball", "nonneg_l2_ball", "nonneg_orthant", "nonneg_simplex", "npg_solve",
    "parse_set", "pg_solve", "project_sparse", "run_benchmark", "save_instance", "save_point",
    "solve_instance", "sorting_permutation", "support_gap", "support_of",
]


def test_package_surface():
    assert sorted(sparsepg.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(sparsepg, name) is not None
    # module-level helpers stay importable from their modules only
    assert not hasattr(sparsepg, "as_vector") and callable(core.as_vector)
    assert not hasattr(sparsepg, "NPG_SCHEDULE") and "logistic" in bench.NPG_SCHEDULE

