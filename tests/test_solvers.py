import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsepg import (
    LeastSquares,
    Logistic,
    SolverConfig,
    bb_initial_stepsize,
    benchmark_config,
    catalog,
    check_strong_stationary,
    default_grid,
    default_stepsize,
    full_space,
    gen_cs_instance,
    gen_instance,
    l1_ball,
    make_rng,
    max_backtracks,
    nonneg_simplex,
    npg_solve,
    pg_solve,
    support_of,
)
from sparsepg.bench import solve_instance
from sparsepg.objectives import _LinearModel
from sparsepg.sets import _SCALAR_MAX
from sparsepg.solvers import _bb_stepsize, _finite_min, _ScreenedSteps
from oracles import replay_iterates


def quadratic(center):
    c = np.asarray(center, dtype=float)
    return LeastSquares(np.eye(c.size), c)


def small_config(lipschitz, **overrides):
    cfg = benchmark_config(lipschitz, M=4, N=5, q=3)
    return SolverConfig(**{**cfg.__dict__, **overrides})


def check_npg_trace_invariants(trace, obj, set_, s, config):
    """Per-step sufficient decrease, feasibility, and the backtracking bound."""
    lip = obj.lipschitz
    f_vals = trace.f_values
    bound = max_backtracks(lip, config.c2, config.t_max, config.tau_shrink)
    t_floor = min(config.t_min, config.tau_shrink / (lip + config.c2))
    for idx, rec in enumerate(trace.records):
        assert rec.support.size <= s
        assert max(rec.shape_gap, rec.nonneg_gap) <= 1e-10
        f_prev = f_vals[idx]
        if rec.step_kind == "swap":
            assert rec.f_value < f_prev
        elif rec.step_kind == "support_change_accept_hx":
            assert rec.f_value <= rec.projstep_value - 0.5 * config.c1 * rec.projstep_dist_sq
        elif rec.step_kind == "support_change_accept_tx":
            slack = 1e-9 * (1.0 + abs(f_prev))
            assert rec.f_value <= f_prev - 0.5 * (1.0 / config.tbar - lip) * rec.move_sq + slack
        else:
            window = f_vals[max(0, idx - config.M): idx + 1]
            assert rec.f_value <= window.max() - 0.5 * config.c2 * rec.move_sq + 1e-15
            assert rec.backtracks <= bound
            assert t_floor - 1e-15 <= rec.stepsize <= config.t_max
    assert np.all(f_vals <= f_vals[0] + 1e-12)


def test_config_validation():
    good = benchmark_config(1.0, M=4, N=5, q=3)
    bad = [
        dict(t_min=0.0),
        dict(t_min=2e8),
        dict(tau_shrink=1.0),
        dict(tbar=-1.0),
        dict(c1=0.0),
        dict(c2=-1.0),
        dict(eta=0.0),
        dict(N=2),
        dict(M=5),
        dict(M=-1),
        dict(q=0),
        dict(q=5),
        dict(f_tol=-1.0),
        dict(f_tol=np.nan),
        dict(max_iter=0),
        dict(max_iter=2.5),
    ]
    for override in bad:
        with pytest.raises(ValueError):
            SolverConfig(**{**good.__dict__, **override})


def test_config_lipschitz_coupling():
    cfg = benchmark_config(1.0, M=4, N=5, q=3)
    cfg.validate_for(1.0)
    with pytest.raises(ValueError):
        cfg.validate_for(1.2)  # tbar = 0.995 no longer below 1/L
    big_c1 = SolverConfig(**{**cfg.__dict__, "c1": 1.0})
    with pytest.raises(ValueError):
        big_c1.validate_for(1.0)


def test_bb_stepsize_examples():
    z = np.zeros(2)
    assert bb_initial_stepsize([1.0, 0.0], z, [2.0, 0.0], z, 0.1, 10.0) == pytest.approx(0.5)
    assert bb_initial_stepsize([1.0, 0.0], z, [0.0, 5.0], z, 0.1, 10.0) == 10.0
    assert bb_initial_stepsize([1.0, 1.0], z, [1.0, 1.0], z, 0.1, 10.0) == pytest.approx(1.0)
    assert bb_initial_stepsize([1e6, 0.0], z, [1.0, 0.0], z, 0.1, 10.0) == 10.0  # clamp high
    assert bb_initial_stepsize([1e-6, 0.0], z, [1.0, 0.0], z, 0.1, 10.0) == pytest.approx(0.1)


def test_bb_stepsize_needs_ordered_bounds():
    with pytest.raises(ValueError, match="t_min <= t_max"):
        bb_initial_stepsize([1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0], 2.0, 1.0)


def test_bb_stepsize_of_checked_vectors_matches_the_public_function():
    rng = make_rng(3)
    z = np.zeros(4)
    for k in range(50):
        x, xp, g, gp = (rng.standard_normal(4) * 10.0 ** rng.uniform(-4, 4) for _ in range(4))
        if k % 5 == 0:
            g = gp  # dg = 0: the vanishing curvature product
        t_min, t_max = sorted(10.0 ** rng.uniform(-6, 6, size=2))
        public = bb_initial_stepsize(x.tolist(), xp, g.tolist(), gp, t_min, t_max)
        assert _bb_stepsize(x, xp, g, gp, t_min, t_max) == public
    assert _bb_stepsize(z, z, z, z, 0.1, 10.0) == bb_initial_stepsize(z, z, z, z, 0.1, 10.0) == 10.0


def test_pg_converges_to_top_coordinate():
    obj = quadratic([3.0, 1.0])
    trace = pg_solve(obj, full_space(), 1, np.zeros(2), alpha=0.995)
    # first step projects 0.995*(3,1) onto one coordinate
    assert trace.records[0].f_value == pytest.approx(obj.value([2.985, 0.0]))
    np.testing.assert_allclose(trace.x_final, [3.0, 0.0], atol=1e-3)
    assert trace.f_final == pytest.approx(0.5, abs=1e-6)
    assert trace.certificate.strong


def test_pg_stops_immediately_at_solution():
    obj = quadratic([3.0, 1.0])
    trace = pg_solve(obj, full_space(), 1, np.array([3.0, 0.0]), alpha=0.9)
    assert trace.iterations == 1
    assert np.array_equal(trace.x_final, [3.0, 0.0])


def test_pg_monotone_descent_inequality():
    rng = make_rng(70)
    for seed in range(3):
        inst = gen_cs_instance(30, 96, 5, 0.1, make_rng(seed))
        lip = inst.objective.lipschitz
        alpha = 0.995 / lip
        trace = pg_solve(inst.objective, inst.set_, inst.s, inst.x0, alpha, certify=False)
        f_vals = trace.f_values
        for idx, rec in enumerate(trace.records):
            drop = 0.5 * (1.0 / alpha - lip) * rec.move_sq
            assert rec.f_value <= f_vals[idx] - drop + 1e-9 * (1.0 + abs(f_vals[idx]))
    del rng


def test_pg_enforces_the_descent_bound():
    # a structured start such as ones + linspace lies in the null space of
    # [1, -2, 1]; the estimate must still find L = 6, on which PG descends
    obj = LeastSquares([[1.0, -2.0, 1.0]], [1.0])
    assert obj.lipschitz == pytest.approx(6.0, rel=1e-15)
    trace = pg_solve(obj, full_space(), 1, np.zeros(3), default_stepsize(obj.lipschitz))
    assert trace.stop_reason == "converged"

    # f = 0.5 ||1e5 x - b||^2 has L = 1e10, but the objective reports L = 1
    class Understated(LeastSquares):
        lipschitz = 1.0

    obj = Understated(1e5 * np.eye(3), np.array([3e5, 1e5, 2e5]))
    with pytest.raises(RuntimeError, match=r"iteration 0 .*lipschitz 1\.0 is likely understated"):
        pg_solve(obj, full_space(), 2, np.zeros(3), default_stepsize(1.0))


def test_pg_rejects_bad_inputs():
    obj = quadratic([3.0, 1.0])
    with pytest.raises(ValueError):
        pg_solve(obj, full_space(), 1, np.array([1.0, 1.0]), alpha=0.9)  # infeasible x0
    with pytest.raises(ValueError, match="infeasible start: not in the constraint set"):
        pg_solve(obj, nonneg_simplex(1.0), 1, np.array([2.0, 0.0]), alpha=0.9)
    with pytest.raises(ValueError, match="expected length 2"):
        pg_solve(obj, full_space(), 1, np.r_[np.zeros(9), 1.0], alpha=0.5)
    with pytest.raises(ValueError):
        pg_solve(obj, full_space(), 1, np.zeros(2), alpha=1.5)  # alpha >= 1/L
    # the stopping rule is checked as SolverConfig checks it for npg_solve
    for bad, message in [
        (dict(max_iter=0), "max_iter must be positive"),
        (dict(max_iter=-3), "max_iter must be positive"),
        (dict(f_tol=-1.0), "f_tol must be nonnegative"),
        (dict(f_tol=np.nan), "f_tol must be nonnegative"),
        (dict(max_iter=2.5), "max_iter must be an integer"),
    ]:
        with pytest.raises(ValueError, match=message):
            pg_solve(obj, full_space(), 1, np.zeros(2), alpha=0.5, **bad)


class Unsolvable:
    """An objective whose every evaluation fails: a solve that starts is a test failure."""

    lipschitz = 1.0
    dim = 2

    def value(self, x):
        raise AssertionError("the solve started")

    grad = value_and_grad = value


def test_solvers_reject_a_certificate_grid_before_solving():
    obj, x0, config = Unsolvable(), np.zeros(2), small_config(1.0)
    for points in (0, 1):
        with pytest.raises(ValueError, match="grid"):
            pg_solve(obj, full_space(), 1, x0, alpha=0.5, certify_grid_points=points)
        with pytest.raises(ValueError, match="grid"):
            npg_solve(obj, full_space(), 1, x0, config, certify_grid_points=points)
    for tol in (np.nan, -1.0, np.inf):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            pg_solve(obj, full_space(), 1, x0, alpha=0.5, certify_tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            npg_solve(obj, full_space(), 1, x0, config, certify_tol=tol)


def test_sparsity_level_n_is_rejected_before_any_evaluation():
    obj, x0 = Unsolvable(), np.zeros(2)
    for call in (
        lambda: pg_solve(obj, full_space(), 2, x0, alpha=0.5),
        lambda: npg_solve(obj, full_space(), 2, x0, small_config(1.0)),
        lambda: check_strong_stationary(obj, full_space(), 2, x0, default_grid(0.5), 1e-6),
    ):
        with pytest.raises(ValueError, match="sparsity level"):
            call()


def test_zero_lipschitz_is_a_value_error():
    obj = LeastSquares(np.zeros((3, 4)), np.ones(3))
    assert obj.lipschitz == 0.0
    with pytest.raises(ValueError, match="lipschitz"):
        default_stepsize(obj.lipschitz)
    with pytest.raises(ValueError, match="lipschitz"):
        pg_solve(obj, full_space(), 1, np.zeros(4), alpha=0.5)
    with pytest.raises(ValueError, match="lipschitz"):
        small_config(1.0).validate_for(0.0)


def test_npg_moves_support_to_optimum():
    obj = quadratic([3.0, 1.0])
    config = small_config(obj.lipschitz)
    trace = npg_solve(obj, full_space(), 1, np.array([0.0, 1.0]), config)
    np.testing.assert_allclose(trace.x_final, [3.0, 0.0], atol=1e-6)
    assert trace.f_final == pytest.approx(0.5, abs=1e-9)
    assert trace.certificate.strong


def test_npg_stops_at_stationary_start():
    obj = quadratic([2.0, 0.0, 0.0])
    config = small_config(obj.lipschitz)
    x0 = np.array([2.0, 0.0, 0.0])
    trace = npg_solve(obj, full_space(), 2, x0, config)
    assert np.array_equal(trace.x_final, x0)
    assert trace.iterations == 1


def test_npg_handles_zero_start():
    obj = quadratic([3.0, -2.0, 0.5])
    config = small_config(obj.lipschitz)
    trace = npg_solve(obj, full_space(), 2, np.zeros(3), config)
    # zero start skips swap and support-change moves on iteration 0
    assert trace.records[0].step_kind == "projected_gradient"
    np.testing.assert_allclose(trace.x_final, [3.0, -2.0, 0.0], atol=1e-6)


def test_npg_trace_invariants_on_random_instances():
    for seed in range(4):
        inst = gen_cs_instance(24, 80, 4, 0.1, make_rng(100 + seed))
        config = benchmark_config(inst.objective.lipschitz, M=4, N=5, q=3)
        trace = npg_solve(inst.objective, inst.set_, inst.s, inst.x0, config, certify=False)
        check_npg_trace_invariants(trace, inst.objective, inst.set_, inst.s, config)


def test_npg_rejects_infeasible_start():
    obj = quadratic([1.0, 1.0, 1.0])
    config = small_config(obj.lipschitz)
    with pytest.raises(ValueError):
        npg_solve(obj, full_space(), 1, np.array([1.0, 1.0, 0.0]), config)
    with pytest.raises(ValueError, match="infeasible start: not in the constraint set"):
        npg_solve(obj, nonneg_simplex(1.0), 1, np.array([2.0, 0.0, 0.0]), config)


def test_trace_serializes_to_json():
    obj = quadratic([3.0, 1.0])
    trace = npg_solve(obj, full_space(), 1, np.array([0.0, 1.0]), small_config(obj.lipschitz))
    payload = json.dumps(trace.to_dict())
    back = json.loads(payload)
    assert list(back) == [
        "records", "f_initial", "x_final", "f_final", "iterations",
        "wall_time_seconds", "certificate", "stop_reason", "screened_steps",
    ]
    assert list(back["records"][0]) == [
        "k", "step_kind", "f_value", "stepsize", "support", "backtracks", "move_sq",
        "shape_gap", "nonneg_gap", "projstep_value", "projstep_dist_sq",
    ]
    assert back["x_final"] == trace.x_final.tolist()
    assert back["records"][0]["support"] == trace.records[0].support.tolist()
    assert back["iterations"] == trace.iterations
    assert back["records"][0]["step_kind"] in {
        "swap",
        "support_change_accept_hx",
        "support_change_accept_tx",
        "projected_gradient",
    }
    assert back["certificate"]["strong"] is True


@pytest.mark.parametrize("method", ["pg", "npg"])
@pytest.mark.parametrize("family", ["cs-least-squares", "logistic", "simplex-least-squares"])
def test_trace_columns_serialize_as_the_records_view_and_match_a_replay(family, method):
    # at this seed and s, PG changes support at least once on every family
    inst = gen_instance(family, 40, 120, 1, s=12)
    trace = solve_instance(inst, method, 50, 1e-6, f_tol=1e-8, max_iter=400)
    assert (trace.screened_steps > 0) == (method == "pg")
    records = trace.records
    assert len(records) == trace.iterations
    assert [r.k for r in records] == list(range(trace.iterations))
    expected = {
        "records": [r.to_dict() for r in records],
        "f_initial": trace.f_initial,
        "x_final": trace.x_final.tolist(),
        "f_final": trace.f_final,
        "iterations": trace.iterations,
        "wall_time_seconds": trace.wall_time_seconds,
        "certificate": trace.certificate.to_dict(),
        "stop_reason": trace.stop_reason,
        "screened_steps": trace.screened_steps,
    }
    assert list(trace.to_dict().items()) == list(expected.items())
    for r in records:  # the columns' NaN reads back as None, only where None was stored
        assert (r.stepsize is None) == (r.step_kind == "swap")
        hx = r.step_kind == "support_change_accept_hx"
        assert (r.projstep_value is None) == (r.projstep_dist_sq is None) == (not hx)

    # the store keeps one support per change, which every iterate until the next change has
    iterates = replay_iterates(inst.objective, inst.set_, inst.s, inst.x0, records)
    changes = trace._columns.supports
    assert changes[0][0] == 0
    ends = [first for first, _ in changes[1:]] + [trace.iterations]
    for (first, support), end, previous in zip(changes, ends, [None] + changes[:-1]):
        assert previous is None or not np.array_equal(previous[1], support)
        assert first < end
        for k in range(first, end):
            assert np.array_equal(support, np.flatnonzero(iterates[k]))
            assert records[k].support is support
    if method == "pg":  # every PG step, screened or dense, measures on supp(x) | supp(y)
        for rec, x, y in zip(records, [inst.x0] + iterates, iterates):
            union = np.union1d(np.flatnonzero(x), np.flatnonzero(y))
            move = y[union] - x[union]
            assert rec.move_sq == float(move @ move)
            assert (rec.shape_gap, rec.nonneg_gap) == inst.set_.constraint_gaps(y[union])
    assert np.array_equal(iterates[-1], trace.x_final)
    assert len(changes) >= 2


def test_max_backtracks_formula():
    # L=1, c2=1e-4, t_max=1e8, shrink=0.5: floor(log((1+1e-4)*1e8)/log 2 + 2)
    assert max_backtracks(1.0, 1e-4, 1e8, 0.5) == 28
    assert max_backtracks(1e-9, 1e-9, 1.0, 0.5) == 1  # formula floor goes negative


def test_npg_enforces_the_backtracking_bound():
    # f = 0.5 ||1e5 x - b||^2 has L = 1e10, but the objective reports L = 1:
    # from t = 1 the first trial needs 33 halvings, and the bound for L = 1 is 28
    class Understated(LeastSquares):
        lipschitz = 1.0

    obj = Understated(1e5 * np.eye(3), np.array([3e5, 1e5, 2e5]))
    config = benchmark_config(1.0, 4, 5, 3, max_iter=50)
    with pytest.raises(RuntimeError, match=r"iteration 0 .*max_backtracks = 28.*lipschitz"):
        npg_solve(obj, full_space(), 2, np.zeros(3), config)


class NanAwayFromStart:
    """A quadratic whose value is NaN everywhere except at ``start``."""

    def __init__(self, center, start):
        self._inner = quadratic(center)
        self._start = np.asarray(start, dtype=float)
        self.dim = self._inner.dim
        self.lipschitz = self._inner.lipschitz

    def value(self, x):
        return self._inner.value(x) if np.array_equal(x, self._start) else float("nan")

    def grad(self, x):
        return self._inner.grad(x)

    def value_and_grad(self, x):
        return self.value(x), self.grad(x)


def test_pg_fails_fast_on_nan_values():
    obj = NanAwayFromStart([3.0, 1.0], [0.0, 0.0])
    with pytest.raises(FloatingPointError, match="iteration 0, step phase"):
        pg_solve(obj, full_space(), 1, np.zeros(2), alpha=0.9)
    with pytest.raises(FloatingPointError, match="iteration 0, initial phase"):
        pg_solve(obj, full_space(), 1, np.array([1.0, 0.0]), alpha=0.9)


def test_npg_fails_fast_on_nan_values():
    obj = NanAwayFromStart([3.0, -2.0, 0.5], [0.0, 0.0, 0.0])
    config = small_config(obj.lipschitz)
    # a zero start skips the swap, so the first value off the start is a trial
    with pytest.raises(FloatingPointError, match="iteration 0, trial phase"):
        npg_solve(obj, full_space(), 2, np.zeros(3), config)
    with pytest.raises(FloatingPointError, match="iteration 0, initial phase"):
        npg_solve(obj, full_space(), 2, np.array([1.0, 0.0, 0.0]), config)


class PublicProtocol:
    """An objective seen only through the solvers' public protocol, so PG takes dense steps."""

    def __init__(self, inner):
        self._inner = inner
        self.dim = inner.dim
        self.lipschitz = inner.lipschitz

    def value(self, x):
        return self._inner.value(x)

    def grad(self, x):
        return self._inner.grad(x)

    def value_and_grad(self, x):
        return self._inner.value_and_grad(x)


@st.composite
def screening_problems(draw):
    """Small-integer data, so that ranking values tie often."""
    s = draw(st.integers(1, 3))
    n = draw(st.integers(s + 1, 10 * s + 12))
    m = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = make_rng(seed)
    a = rng.integers(-2, 3, size=(m, n)).astype(float)
    if not a.any():
        a[0, 0] = 1.0
    if draw(st.booleans()):
        obj = LeastSquares(a, rng.integers(-3, 4, size=m).astype(float))
    else:
        obj = Logistic(a, rng.choice([-1.0, 1.0], size=m))
    set_ = draw(st.sampled_from(catalog(float(draw(st.sampled_from([0.5, 1.0, 4.0]))))))
    x0 = np.zeros(n)
    if set_.variant == "simplex":
        x0[draw(st.integers(0, n - 1))] = set_.radius
    return obj, set_, s, x0


@settings(max_examples=120, deadline=None)
@given(screening_problems())
def test_screened_pg_matches_dense_pg(problem):
    obj, set_, s, x0 = problem
    alpha = default_stepsize(obj.lipschitz)
    screened = pg_solve(obj, set_, s, x0, alpha, max_iter=60, certify=False)
    dense = pg_solve(PublicProtocol(obj), set_, s, x0, alpha, max_iter=60, certify=False)
    assert dense.screened_steps == 0
    assert screened.iterations == dense.iterations
    assert screened.stop_reason == dense.stop_reason
    for ours, theirs in zip(screened.records, dense.records):
        assert np.array_equal(ours.support, theirs.support)
        assert ours.f_value == theirs.f_value
        assert ours.support.size <= s
        assert max(ours.shape_gap, ours.nonneg_gap) <= 1e-10
    assert np.array_equal(screened.x_final, dense.x_final)


def test_pg_screens_with_more_than_a_tenth_of_the_entries_nonzero():
    # s = n/4: almost every step stays on its support and screens, with the
    # bits of the dense steps
    inst = gen_instance("cs-least-squares", 120, 512, 1, s=128)
    obj = inst.objective
    alpha = default_stepsize(obj.lipschitz)
    screened = pg_solve(obj, inst.set_, inst.s, inst.x0, alpha, certify=False)
    dense = pg_solve(PublicProtocol(obj), inst.set_, inst.s, inst.x0, alpha, certify=False)
    assert screened.screened_steps >= 1800
    assert screened.iterations == dense.iterations
    assert screened.stop_reason == dense.stop_reason
    assert [r.to_dict() for r in screened.records] == [r.to_dict() for r in dense.records]
    assert np.array_equal(screened.x_final, dense.x_final)


@settings(max_examples=60, deadline=None)
@given(screening_problems())
def test_npg_trace_invariants_on_every_set_and_loss(problem):
    obj, set_, s, x0 = problem
    config = benchmark_config(obj.lipschitz, M=4, N=5, q=3, max_iter=60)
    trace = npg_solve(obj, set_, s, x0, config, certify=False)
    check_npg_trace_invariants(trace, obj, set_, s, config)


def test_screening_covers_table2_pg_after_the_first_steps(monkeypatch):
    # the n-wide scan for the support runs at the start and on dense steps only
    scans = []
    scan = _LinearModel._support_columns

    def counted(model, x):
        scans.append(x.size)
        return scan(model, x)

    monkeypatch.setattr(_LinearModel, "_support_columns", counted)
    inst = gen_instance("logistic", 500, 1000, 2000)
    alpha = default_stepsize(inst.objective.lipschitz)
    trace = pg_solve(inst.objective, inst.set_, inst.s, inst.x0, alpha, max_iter=250, certify=False)
    assert trace.iterations == 250
    assert trace.screened_steps >= 248
    assert scans == [1000] * (1 + trace.iterations - trace.screened_steps)
    dense = pg_solve(
        PublicProtocol(inst.objective), inst.set_, inst.s, inst.x0, alpha, max_iter=250,
        certify=False,
    )
    assert [r.to_dict() for r in trace.records] == [r.to_dict() for r in dense.records]
    assert np.array_equal(trace.x_final, dense.x_final)


def test_a_screened_step_that_zeroes_an_entry_of_the_support_keeps_the_dense_bits(monkeypatch):
    # the l1-ball soft threshold zeroes an entry of S on a screened step, the
    # one screened step after which the n-vector of the iterate is rebuilt
    zeroed = []
    step = _ScreenedSteps.screened_step

    def counted(steps, x_supp, alpha):
        y_supp = step(steps, x_supp, alpha)
        zeroed.append(y_supp is not None and np.count_nonzero(y_supp) < y_supp.size)
        return y_supp

    monkeypatch.setattr(_ScreenedSteps, "screened_step", counted)
    rng = make_rng(42)
    obj = LeastSquares(rng.standard_normal((8, 12)), rng.standard_normal(8))
    alpha = default_stepsize(obj.lipschitz)
    trace = pg_solve(obj, l1_ball(0.5), 3, np.zeros(12), alpha, certify=False)
    dense = pg_solve(PublicProtocol(obj), l1_ball(0.5), 3, np.zeros(12), alpha, certify=False)
    assert zeroed.count(True) == 1 and trace.screened_steps >= 10
    k = zeroed.index(True)
    assert trace.records[k].support.size < 3 <= trace.records[k - 1].support.size
    assert [r.to_dict() for r in trace.records] == [r.to_dict() for r in dense.records]
    assert np.array_equal(trace.x_final, dense.x_final)


@pytest.mark.parametrize("s", [3, _SCALAR_MAX + 2])
def test_a_non_finite_step_on_the_support_never_screens(s):
    # Python's min returns a number when a NaN is not the first entry, where
    # np.min returns NaN; without a check, such a step could pass the test.
    # At the minimizer of a least-squares fit on S, v = 0 and the screening
    # threshold is 0, so the finite step screens on every set.
    n = s + 5
    b = np.zeros(n)
    b[:s] = np.arange(s, 0, -1.0)
    obj = LeastSquares(np.eye(n), b)
    for set_ in catalog(1e3):
        steps = _ScreenedSteps(obj, set_, s)
        steps.evaluate(b)
        steps.gradient()
        x_supp = b[steps.supp]
        assert steps.screened_step(x_supp, 0.5) is not None
        for where in range(s):
            for bad in (math.nan, math.inf, -math.inf):
                z = x_supp.copy()
                z[where] = bad
                assert steps.screened_step(z, 0.5) is None, (set_, where, bad)


@pytest.mark.parametrize("size", [1, 5, _SCALAR_MAX, _SCALAR_MAX + 1])
def test_the_screening_minimum_is_np_min_of_finite_entries_and_nan_otherwise(size):
    rng = make_rng(size)
    for _ in range(20):
        values = rng.standard_normal(size)
        assert _finite_min(values) == float(values.min())
        for where in range(size):
            for bad in (math.nan, math.inf, -math.inf):
                spoiled = values.copy()
                spoiled[where] = bad
                assert math.isnan(_finite_min(spoiled))


def test_stop_reason():
    obj = quadratic([3.0, 1.0])
    capped = pg_solve(obj, full_space(), 1, np.zeros(2), alpha=0.5, max_iter=2)
    assert (capped.iterations, capped.stop_reason) == (2, "max_iter")
    done = pg_solve(obj, full_space(), 1, np.zeros(2), alpha=0.5)
    assert done.stop_reason == "converged" and done.iterations > 2
    # the last allowed iteration meets f_tol: converged, not capped
    last = pg_solve(obj, full_space(), 1, np.zeros(2), alpha=0.5, max_iter=done.iterations)
    assert (last.iterations, last.stop_reason) == (done.iterations, "converged")

    config = small_config(obj.lipschitz)
    done = npg_solve(obj, full_space(), 1, np.array([0.0, 1.0]), config)
    assert done.stop_reason == "converged" and done.iterations > 1
    assert done.screened_steps == 0
    capped = npg_solve(
        obj, full_space(), 1, np.array([0.0, 1.0]), small_config(obj.lipschitz, max_iter=1)
    )
    assert (capped.iterations, capped.stop_reason) == (1, "max_iter")
    last = npg_solve(
        obj, full_space(), 1, np.array([0.0, 1.0]),
        small_config(obj.lipschitz, max_iter=done.iterations),
    )
    assert (last.iterations, last.stop_reason) == (done.iterations, "converged")
