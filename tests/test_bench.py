import numpy as np
import pytest

from sparsepg import (
    BenchReport,
    LeastSquares,
    Logistic,
    gen_cs_instance,
    gen_instance,
    gen_logistic_instance,
    gen_simplex_instance,
    load_instance,
    load_point,
    make_rng,
    run_benchmark,
    save_instance,
    save_point,
    support_of,
)
from sparsepg import bench
from sparsepg.bench import CSV_COLUMNS, BenchRow


def test_cs_instance_construction():
    inst = gen_cs_instance(30, 100, 5, 0.1, make_rng(1))
    assert inst.objective.A.shape == (30, 100)
    # rows orthonormal by construction
    np.testing.assert_allclose(inst.objective.A @ inst.objective.A.T, np.eye(30), atol=1e-12)
    assert support_of(inst.ground_truth).size == 5
    assert set(np.abs(inst.ground_truth[support_of(inst.ground_truth)])) == {1.0}
    assert np.array_equal(inst.x0, np.zeros(100))
    assert str(inst.set_) == "full"


def test_cs_instance_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gen_cs_instance(100, 50, 5, 0.1, make_rng(0))
    with pytest.raises(ValueError):
        gen_cs_instance(30, 100, 0, 0.1, make_rng(0))


@pytest.mark.parametrize("generate", [
    lambda s, rng: gen_cs_instance(20, 64, s, 0.1, rng),
    lambda s, rng: gen_logistic_instance(20, 64, rng, s=s),
    lambda s, rng: gen_simplex_instance(20, 64, rng, s=s),
], ids=["cs", "logistic", "simplex"])
def test_generators_reject_invalid_sparsity_levels_before_drawing(generate):
    for s in (0, 64, -2, 600):
        rng = make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sparsity level"):
            generate(s, rng)
        assert rng.bit_generator.state == state
    assert generate(63, make_rng(0)).s == 63


@pytest.mark.parametrize("generate, named", [
    (lambda rng: gen_cs_instance(0, 64, 3, 0.1, rng), "m must be positive"),
    (lambda rng: gen_cs_instance(-4, 64, 3, 0.1, rng), "m must be positive"),
    (lambda rng: gen_cs_instance(20, 64, 3, -1.0, rng), "sigma"),
    (lambda rng: gen_cs_instance(20, 64, 3, np.nan, rng), "sigma"),
    (lambda rng: gen_cs_instance(20, 64, 3, np.inf, rng), "sigma"),
    (lambda rng: gen_logistic_instance(0, 64, rng), "m must be positive"),
    (lambda rng: gen_logistic_instance(-2, 64, rng), "m must be positive"),
    (lambda rng: gen_simplex_instance(0, 64, rng), "m must be positive"),
    (lambda rng: gen_simplex_instance(-4, 64, rng), "m must be positive"),
], ids=["cs-m0", "cs-m-4", "cs-sigma-1", "cs-sigma-nan", "cs-sigma-inf", "logistic-m0",
        "logistic-m-2", "simplex-m0", "simplex-m-4"])
def test_generators_reject_empty_data_and_bad_noise_before_drawing(generate, named):
    rng = make_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=named):
        generate(rng)
    assert rng.bit_generator.state == state


def test_cs_noiseless_instance_is_solvable_to_zero():
    inst = gen_cs_instance(40, 120, 5, 0.0, make_rng(3))
    assert inst.objective.value(inst.ground_truth) == pytest.approx(0.0, abs=1e-24)


def test_cs_noiseless_recovery():
    from sparsepg import benchmark_config, npg_solve

    inst = gen_cs_instance(40, 120, 5, 0.0, make_rng(6))
    config = benchmark_config(inst.objective.lipschitz, M=4, N=5, q=3)
    trace = npg_solve(inst.objective, inst.set_, 5, inst.x0, config, certify=False)
    assert trace.f_final <= 1e-8
    assert np.array_equal(support_of(trace.x_final), support_of(inst.ground_truth))


def test_generators_are_deterministic():
    for family, kwargs in [
        ("cs-least-squares", dict(m=20, n=64, s=3, sigma=0.1)),
        ("logistic", dict(m=20, n=50)),
        ("simplex-least-squares", dict(m=20, n=60)),
    ]:
        a = gen_instance(family, seed=7, **kwargs)
        b = gen_instance(family, seed=7, **kwargs)
        c = gen_instance(family, seed=8, **kwargs)
        assert np.array_equal(a.objective.A, b.objective.A)
        assert not np.array_equal(a.objective.A, c.objective.A)


def test_logistic_instance_shape_and_rules():
    inst = gen_logistic_instance(500, 1000, make_rng(5))
    assert inst.s == 10  # one percent of the dimension
    assert np.sum(inst.objective.labels == 1.0) == 250
    assert np.sum(inst.objective.labels == -1.0) == 250
    assert np.array_equal(inst.x0, np.zeros(1000))
    with pytest.raises(ValueError):
        gen_logistic_instance(11, 10, make_rng(0))


def test_logistic_features_are_one_draw_in_class_order():
    # the positive class takes the first m/2 rows of the normal draw, as when
    # each class was drawn on its own
    for seed in range(5):
        rng = make_rng(seed)
        mu_pos, mu_neg = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 0.0)
        expected = np.vstack([mu_pos + rng.standard_normal((4, 7)),
                              mu_neg + rng.standard_normal((4, 7))])
        assert np.array_equal(gen_logistic_instance(8, 7, make_rng(seed)).objective.A, expected)


def test_gen_instance_rejects_a_missing_level_and_an_unknown_family():
    with pytest.raises(ValueError, match="explicit sparsity level"):
        gen_instance("cs-least-squares", 20, 64, seed=0)
    with pytest.raises(ValueError, match="unknown family 'lasso'"):
        gen_instance("lasso", 20, 64, seed=0, s=3)


def test_solve_instance_rejects_an_unknown_method():
    inst = gen_instance("cs-least-squares", 20, 64, seed=0, s=3)
    with pytest.raises(ValueError, match="unknown method 'cg'"):
        bench.solve_instance(inst, "cg", 50, 1e-6, 1e-8, 100)


def test_logistic_force_label_hook():
    inst = gen_logistic_instance(8, 6, make_rng(5))
    obj = Logistic(inst.objective.A, np.ones(8))
    assert np.all(obj.labels == 1.0)
    # with all labels +1, the gradient at zero is -(1/2) * sum of samples
    expected = -0.5 * obj.A.sum(axis=0)
    np.testing.assert_allclose(obj.grad(np.zeros(6)), expected, atol=1e-12)


def test_simplex_instance_construction():
    inst = gen_simplex_instance(20, 80, make_rng(9))
    assert inst.s == 1  # one percent of 80, floored at 1
    a = inst.objective.A
    # row i carries scale i^2 on an orthonormal base row
    norms = np.linalg.norm(a, axis=1)
    np.testing.assert_allclose(norms, (np.arange(1, 21) ** 2).astype(float), rtol=1e-12)
    x0 = inst.x0
    assert np.sum(x0) == pytest.approx(1.0, abs=1e-12)
    assert support_of(x0).size == inst.s
    assert np.all(x0 >= 0)
    assert str(inst.set_) == "simplex:1"


def test_instance_file_round_trip(tmp_path):
    for family, kwargs in [
        ("cs-least-squares", dict(m=12, n=30, s=3, sigma=0.1)),
        ("logistic", dict(m=10, n=20)),
        ("simplex-least-squares", dict(m=10, n=25)),
    ]:
        inst = gen_instance(family, seed=2, **kwargs)
        path = tmp_path / f"{family}.npz"
        save_instance(str(path), inst)
        back = load_instance(str(path))
        assert back.family == inst.family
        assert (back.m, back.n, back.s, back.seed) == (inst.m, inst.n, inst.s, inst.seed)
        assert np.array_equal(back.objective.A, inst.objective.A)
        assert np.array_equal(back.x0, inst.x0)
        assert back.set_ == inst.set_
        if isinstance(inst.objective, Logistic):
            assert np.array_equal(back.objective.labels, inst.objective.labels)
        else:
            assert np.array_equal(back.objective.b, inst.objective.b)
        if inst.ground_truth is None:
            assert back.ground_truth is None
        else:
            assert np.array_equal(back.ground_truth, inst.ground_truth)


def test_point_file_round_trip(tmp_path):
    path = tmp_path / "point.txt"
    x = np.array([1.5, -2.25, 0.0, 1e-17])
    save_point(str(path), x)
    assert np.array_equal(load_point(str(path)), x)


def test_empty_benchmark():
    report = run_benchmark([])
    assert report.rows == []
    assert report.to_csv().splitlines()[0].startswith("family,")


def test_smoke_benchmark_row_contents():
    inst = gen_instance("cs-least-squares", 40, 128, seed=0, s=5, sigma=0.1)
    report = run_benchmark([inst], methods=("pg", "npg"), grid_points=20)
    assert len(report.rows) == 2
    by_method = {r.method: r for r in report.rows}
    for row in report.rows:
        assert row.error is None
        assert row.cardinality <= 5
        assert row.time_s > 0
    # typical at this scale; the nonmonotone method should not be worse
    assert by_method["npg"].objective <= by_method["pg"].objective + 1e-12


def test_benchmark_rows_survive_per_row_failures():
    good = gen_instance("cs-least-squares", 20, 64, seed=1, s=3)
    bad = gen_instance("cs-least-squares", 20, 64, seed=1, s=3)
    bad.x0 = np.ones(64)  # infeasible start: solver raises, row records the error
    report = run_benchmark([bad, good], methods=("npg",))
    assert report.rows[0].error is not None
    assert report.rows[0].objective is None
    assert report.rows[1].error is None


def test_csv_and_json_are_deterministic():
    insts = [gen_instance("cs-least-squares", 20, 64, seed=s, s=3) for s in (0, 1)]
    rep1 = run_benchmark(insts, methods=("npg",), grid_points=10)
    rep2 = run_benchmark(
        [gen_instance("cs-least-squares", 20, 64, seed=s, s=3) for s in (0, 1)],
        methods=("npg",),
        grid_points=10,
    )
    strip = lambda text: "\n".join(  # noqa: E731
        ",".join(
            cell for i, cell in enumerate(line.split(",")) if i != 8  # drop time_s
        )
        for line in text.splitlines()
    )
    assert strip(rep1.to_csv()) == strip(rep2.to_csv())


def test_simplex_rows_feasible():
    inst = gen_instance("simplex-least-squares", 20, 60, seed=4)
    report = run_benchmark([inst], methods=("pg", "npg"), grid_points=10)
    for row in report.rows:
        assert row.error is None
        assert row.cardinality <= inst.s


def test_csv_cells():
    row = BenchRow(
        family="logistic", m=1, n=2, s=1, method="pg", seed=0,
        cardinality=None, objective=0.125, time_s=None,
        strong_stationary=True, violation=None, iterations=7, stop_reason="max_iter",
    )
    line = BenchReport([row]).to_csv().splitlines()[1]
    assert line == "logistic,1,2,1,pg,0,,0.125,,true,,7,max_iter"


def test_row_dict_key_order():
    keys = [
        "family", "m", "n", "s", "method", "seed", "cardinality", "objective",
        "time_s", "strong_stationary", "violation", "iterations", "stop_reason", "error",
    ]
    row = BenchRow(
        family="logistic", m=1, n=2, s=1, method="pg", seed=0,
        cardinality=1, objective=0.125, time_s=0.5,
        strong_stationary=True, violation=0.0, iterations=3, stop_reason="converged",
    )
    assert list(row.to_dict()) == keys
    assert CSV_COLUMNS == keys[:-1]
    assert row.to_dict()["error"] is None
    bad = gen_instance("cs-least-squares", 20, 64, seed=1, s=3)
    bad.x0 = np.ones(64)
    failed = run_benchmark([bad], methods=("pg",)).rows[0].to_dict()
    assert list(failed) == keys
    assert [failed[k] for k in keys[6:13]] == [None] * 7
    assert failed["error"].startswith("ValueError: infeasible start")


def test_rows_say_how_each_solve_stopped(monkeypatch):
    inst = gen_instance("cs-least-squares", 20, 64, seed=1, s=3)
    done = run_benchmark([inst], methods=("pg", "npg"), grid_points=10).rows
    for row in done:
        assert row.stop_reason == "converged" and row.iterations > 3
    solve = bench.solve_instance
    monkeypatch.setattr(
        bench, "solve_instance",
        lambda inst, method, grid_points, tol, f_tol, max_iter:
            solve(inst, method, grid_points, tol, f_tol, 3),
    )
    capped = run_benchmark([inst], methods=("pg", "npg"), grid_points=10)
    for row in capped.rows:
        assert (row.iterations, row.stop_reason) == (3, "max_iter")
    assert capped.to_csv().splitlines()[1].endswith(",3,max_iter")
