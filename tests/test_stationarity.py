import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparsepg import (
    DegenerateSupportError,
    LeastSquares,
    catalog,
    check_coordinatewise,
    check_general_stationary,
    check_strong_stationary,
    default_grid,
    full_space,
    l1_ball,
    make_rng,
    minimize_support_gap,
    nonneg_orthant,
    nonneg_simplex,
    project_sparse,
    support_gap,
)
from oracles import coordinatewise_by_enumeration, gap_on_grid, strong_stationary_on_grid

ALL_SETS = catalog()


def quadratic(center):
    """f(x) = 0.5*||x - center||^2, gradient x - center, lipschitz 1."""
    c = np.asarray(center, dtype=float)
    return LeastSquares(np.eye(c.size), c)


def random_supported(rng, set_, n, nnz):
    """Feasible-ish vector with exactly nnz nonzeros, for gap evaluations."""
    x = np.zeros(n)
    idx = rng.choice(n, size=nnz, replace=False)
    vals = rng.standard_normal(nnz)
    if set_.kind == "nonnegative":
        vals = np.abs(vals) + 0.1
    x[idx] = vals
    return x


def test_support_gap_examples():
    x = np.array([2.0, 0.0])
    g = np.array([1.0, -3.0])
    assert support_gap(nonneg_orthant(), x, g, 0.25) == pytest.approx(1.0)
    assert support_gap(full_space(), x, g, 1.0) == pytest.approx(-2.0)
    assert support_gap(full_space(), x, np.zeros(2), 7.0) == pytest.approx(2.0)


def test_support_gap_degenerate_inputs():
    with pytest.raises(DegenerateSupportError):
        support_gap(full_space(), np.zeros(2), np.ones(2), 1.0)
    with pytest.raises(DegenerateSupportError):
        support_gap(full_space(), np.ones(2), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        support_gap(full_space(), np.array([1.0, 0.0]), np.ones(2), -0.5)


def test_minimize_support_gap_endpoint_case():
    # gap is 2 - 4t on the orthant: decreasing, so the right endpoint wins
    gm = minimize_support_gap(nonneg_orthant(), np.array([2.0, 0.0]), np.array([1.0, -3.0]), 0.25)
    assert gm.step == 0.25
    assert gm.value == pytest.approx(1.0)


def test_minimize_support_gap_sign_free_case():
    # |2 - t| - 3t is decreasing on [0, 1]
    gm = minimize_support_gap(full_space(), np.array([2.0, 0.0]), np.array([1.0, -3.0]), 1.0)
    assert gm.step == 1.0
    assert gm.value == pytest.approx(-2.0)


def test_minimize_support_gap_degenerate_convention():
    gm = minimize_support_gap(full_space(), np.zeros(3), np.ones(3), 0.7)
    assert gm.step == 0.7
    assert gm.value == 0.0
    gm = minimize_support_gap(nonneg_orthant(), np.ones(3), np.ones(3), 0.7)
    assert gm.step == 0.7
    assert gm.value == 0.0


def test_minimize_support_gap_interior_kink():
    # support coordinate with dominant gradient: minimum sits at the kink t=0.5
    x = np.array([1.0, 0.0])
    g = np.array([2.0, 0.5])
    gm = minimize_support_gap(full_space(), x, g, 2.0)
    assert gm.step == pytest.approx(0.5)
    assert gm.value == pytest.approx(-0.25)


def test_minimize_support_gap_matches_grid_oracle():
    rng = make_rng(2024)
    for _ in range(60):
        set_ = ALL_SETS[int(rng.integers(0, len(ALL_SETS)))]
        n = int(rng.integers(3, 9))
        nnz = int(rng.integers(1, n))
        x = random_supported(rng, set_, n, nnz)
        grad = rng.standard_normal(n)
        t_max = float(rng.uniform(0.05, 2.0))
        gm = minimize_support_gap(set_, x, grad, t_max)
        ts, vals = gap_on_grid(set_, x, grad, t_max, base_points=2000)
        grid_min = float(vals.min())
        assert abs(gm.value - grid_min) <= 1e-8 * (1.0 + abs(gm.value))
        assert support_gap(set_, x, grad, gm.step) <= grid_min + 1e-8
        # largest-minimizer convention: no grid minimizer sits beyond the step
        beyond = ts[vals <= gm.value + 1e-12]
        assert beyond.max() <= gm.step + 1e-9


def test_gap_concavity_on_nonnegative_sets():
    rng = make_rng(9)
    for set_ in [nonneg_orthant(), *[s for s in ALL_SETS if s.kind == "nonnegative"]]:
        for _ in range(25):
            n = int(rng.integers(3, 8))
            x = random_supported(rng, set_, n, int(rng.integers(1, n)))
            grad = rng.standard_normal(n)
            t1, t2 = rng.uniform(0.0, 1.5, size=2)
            mid = support_gap(set_, x, grad, (t1 + t2) / 2.0)
            ends = 0.5 * (support_gap(set_, x, grad, t1) + support_gap(set_, x, grad, t2))
            assert mid >= ends - 1e-10


def test_check_general_zero_gradient():
    obj = quadratic([3.0, 0.0, 1.0])
    grid = default_grid(0.995, 50)
    assert check_general_stationary(obj, full_space(), 1, [3.0, 0.0, 0.0], grid, 1e-8)


def test_check_general_moving_projection():
    obj = quadratic([3.0, 0.0, 1.0])
    grid = default_grid(0.995, 50)
    # from (0,0,1) the shifted point (3t, 0, 1) ranks coordinate 0 on top
    # once t > 1/3, so the projection leaves the current support
    assert not check_general_stationary(obj, full_space(), 1, [0.0, 0.0, 1.0], grid, 1e-8)


def test_check_strong_at_global_minimizer():
    obj = quadratic([3.0, 1.0])
    grid = default_grid(0.995, 50)
    report = check_strong_stationary(obj, full_space(), 1, [3.0, 0.0], grid, 1e-8)
    assert report.strong and report.general
    assert report.witness is None
    assert report.worst_violation <= 1e-8


def test_check_strong_emits_improving_witness():
    obj = quadratic([3.0, 1.0])
    grid = default_grid(0.995, 50)
    x = np.array([0.0, 1.0])
    report = check_strong_stationary(obj, full_space(), 1, x, grid, 1e-8)
    assert not report.strong
    assert report.witness is not None
    assert obj.value(report.witness) < obj.value(x)
    assert report.worst_violation > 1.0


def test_check_strong_small_support_zero_gradient():
    obj = quadratic([3.0, 0.0, 0.0])
    grid = default_grid(0.9, 25)
    report = check_strong_stationary(obj, full_space(), 2, [3.0, 0.0, 0.0], grid, 1e-8)
    assert report.strong


def test_strong_implies_general():
    rng = make_rng(31)
    grid = default_grid(0.5, 20)
    for _ in range(40):
        set_ = ALL_SETS[int(rng.integers(0, len(ALL_SETS)))]
        n = int(rng.integers(3, 7))
        s = int(rng.integers(1, n))
        obj = quadratic(rng.standard_normal(n))
        x = project_sparse(set_, s, rng.standard_normal(n)).point
        report = check_strong_stationary(obj, set_, s, x, grid, 1e-6)
        if report.strong:
            assert report.general
            assert check_general_stationary(obj, set_, s, x, grid, 1e-6)


@given(
    st.sampled_from(ALL_SETS),
    st.integers(3, 7),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 8]),
    st.booleans(),
)
def test_general_check_matches_the_strong_reports_flag(set_, n, seed, decimals, from_center):
    # rounding the center makes ties likely; projecting the center itself
    # often lands on a stationary point
    rng = make_rng(seed)
    s = int(rng.integers(1, n))
    center = np.round(rng.standard_normal(n), decimals)
    obj = quadratic(center)
    x = project_sparse(set_, s, center if from_center else rng.standard_normal(n)).point
    grid = default_grid(0.9, 12)
    report = check_strong_stationary(obj, set_, s, x, grid, 1e-6)
    assert check_general_stationary(obj, set_, s, x, grid, 1e-6) == report.general


def assert_matches_certified_grid(obj, set_, s, x, grid):
    """The report of ``check_strong_stationary``, after comparing it with the reference."""
    report = check_strong_stationary(obj, set_, s, x, grid, 1e-6)
    expected = strong_stationary_on_grid(obj, set_, s, x, grid, 1e-6)
    assert report.general == expected.general
    assert report.strong == expected.strong
    assert report.worst_violation == expected.worst_violation
    assert report.coordinatewise is None
    if expected.witness is None:
        assert report.witness is None
    else:
        assert np.array_equal(report.witness, expected.witness)
    return report


@settings(deadline=None)
@given(
    st.sampled_from(ALL_SETS),
    st.integers(2, 12),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.5, 1.0, 2.0]),
)
# general but not strong: a tie that enumeration finds two projections for
@example(l1_ball(), 5, 309294, True, False, False, 0.5)
# general but not strong: a step moves to a second projection as near as x
@example(nonneg_orthant(), 6, 728916, True, True, False, 2.0)
# an enumeration confirms uniqueness, and a later step moves
@example(l1_ball(), 7, 527229, True, True, False, 2.0)
def test_strong_check_matches_the_certified_grid_reference(
    set_, n, seed, ties, from_center, short, t_max
):
    # small integers make ties likely, and the dyadic grid hits them exactly,
    # so uncertified steps occur and, at n <= 12, are confirmed by
    # enumeration; projecting the center itself often lands on a stationary
    # point, where every step reads the uniqueness flag; a start with fewer
    # than s nonzeros gives ||x||_0 < s on all but the simplex
    rng = make_rng(seed)
    s = int(rng.integers(1, n))

    def draw():
        return rng.integers(-2, 3, n).astype(float) if ties else rng.standard_normal(n)

    center = draw()
    start = center.copy() if from_center else draw()
    if short:
        start[rng.permutation(n)[s - 1:]] = 0.0
    x = project_sparse(set_, s, start).point
    assert_matches_certified_grid(quadratic(center), set_, s, x, default_grid(t_max, 9))


def test_strong_check_enumerates_where_the_certificate_fails():
    # x[1] = 1e-13 lies inside the certificate's margin, so no step is
    # certified, and enumeration finds no projection farther than 1e-12 from x
    x = np.array([1.0, 1e-13, 0.0])
    report = assert_matches_certified_grid(quadratic(x), full_space(), 2, x, default_grid(1.0, 9))
    assert report.strong


def test_witnesses_always_improve():
    rng = make_rng(37)
    grid = default_grid(0.9, 30)
    seen = 0
    for _ in range(60):
        set_ = ALL_SETS[int(rng.integers(0, len(ALL_SETS)))]
        n = int(rng.integers(3, 7))
        s = int(rng.integers(1, n))
        obj = quadratic(rng.standard_normal(n))
        x = project_sparse(set_, s, rng.standard_normal(n)).point
        report = check_strong_stationary(obj, set_, s, x, grid, 1e-6)
        if report.witness is not None:
            seen += 1
            assert obj.value(report.witness) < obj.value(x)
    assert seen > 0  # the sweep must actually exercise the witness path


def test_check_coordinatewise_at_optimum():
    obj = quadratic([3.0, 1.0])
    grid = default_grid(0.995, 50)
    assert check_coordinatewise(obj, full_space(), 1, [3.0, 0.0], grid, 1e-8)


def test_check_coordinatewise_rejects_swappable_point():
    obj = quadratic([3.0, 1.0])
    grid = default_grid(0.995, 50)
    assert not check_coordinatewise(obj, full_space(), 1, [0.0, 1.0], grid, 1e-8)


def test_check_coordinatewise_zero_gradient():
    obj = quadratic([0.5, 0.5, 0.0])
    grid = default_grid(0.995, 50)
    assert check_coordinatewise(obj, full_space(), 2, [0.5, 0.5, 0.0], grid, 1e-8)


class Linear:
    """f(x) = gradient . x, whose gradient is the same vector at every point."""

    def __init__(self, gradient):
        self.gradient = np.asarray(gradient, dtype=float)

    def value(self, x):
        return float(self.gradient @ x)

    def grad(self, x):
        return self.gradient.copy()


@settings(deadline=None)
@given(
    st.sampled_from(catalog(1.0) + catalog(2.0)),
    st.integers(2, 9),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.integers(2, 5),
)
# passing super supports whose off-support gradients tie the multiplier on S:
# g_j = lambda on the simplex, |g_j| = lambda on the l1 ball
@example(nonneg_simplex(2.0), 7, 4, 1.0, 3)
@example(l1_ball(1.0), 7, 13, 1.0, 3)
def test_check_coordinatewise_matches_the_enumeration(set_, n, seed, t_max, points):
    # a start with at most s nonzeros often gives ||x||_0 < s, so super
    # supports are added; small integer gradients, zero half the time, make
    # ties and exact fixed points likely, and a common multiplier on the
    # support often makes S itself a fixed point
    rng = make_rng(seed)
    s = int(rng.integers(1, n))
    start = rng.integers(-2, 3, n).astype(float)
    start[rng.permutation(n)[int(rng.integers(0, s + 1)):]] = 0.0
    x = project_sparse(set_, s, start).point
    g = rng.integers(-2, 3, n) * (rng.random(n) < 0.5)
    on = x != 0
    g[on] = -int(rng.integers(0, 3)) * (np.sign(x[on]) if set_.kind == "sign-free" else 1)
    obj = Linear(g.astype(float))
    grid = default_grid(t_max, points)
    expected = coordinatewise_by_enumeration(obj, set_, s, x, grid, 1e-8)
    assert check_coordinatewise(obj, set_, s, x, grid, 1e-8) == expected


class SeparableQuadratic:
    """f(x) = 0.5*||x - center||^2 evaluated entrywise, with no n x n matrix."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)

    def value(self, x):
        return 0.5 * float(((x - self.center) ** 2).sum())

    def grad(self, x):
        return x - self.center


def test_check_coordinatewise_finds_the_one_failing_coordinate_among_many():
    # x = e_0 has C(19999, 2), about 2e8, super supports of size 3; only those
    # holding coordinate 18 fail, by t * 1e-3 = 2e-5 at the smallest step
    n = 20_000
    x = np.zeros(n)
    x[0] = 1.0
    center = x.copy()
    center[18] = 1e-3
    obj = SeparableQuadratic(center)
    assert obj.value(center) < obj.value(x)  # center is feasible: ||center||_0 = 2 <= s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not check_coordinatewise(obj, full_space(), 3, x, default_grid(0.995, 50), 1e-8)


def test_default_grid_needs_a_positive_step():
    for t_max, points in [(0.9, 0), (0.9, 1), (0.0, 50), (-1.0, 50), (float("nan"), 50)]:
        with pytest.raises(ValueError):
            default_grid(t_max, points)


def test_checkers_reject_a_grid_without_a_positive_step():
    # without a positive step strong holds vacuously: nothing refutes it
    obj = LeastSquares(np.eye(3), [0.0, 0.0, 5.0])
    x = [1.0, 0.0, 0.0]
    for grid in [[], [0.0], [0.0, -0.5]]:
        for check in (check_general_stationary, check_strong_stationary, check_coordinatewise):
            with pytest.raises(ValueError, match="positive step"):
                check(obj, full_space(), 1, x, grid, 1e-8)


def test_checkers_reject_a_negative_step():
    # the global minimizer would fail the general check at t = -5
    obj = quadratic([3.0, 1.0, 0.0])
    for grid in [[-5.0, 0.9], [0.5, np.nan]]:
        for check in (check_general_stationary, check_strong_stationary, check_coordinatewise):
            with pytest.raises(ValueError, match="nonnegative"):
                check(obj, full_space(), 1, [3.0, 0.0, 0.0], grid, 1e-8)


class RecordingQuadratic:
    """A quadratic that records every point passed to ``value``."""

    def __init__(self, center):
        self._inner = quadratic(center)
        self.dim = self._inner.dim
        self.lipschitz = self._inner.lipschitz
        self.seen = []

    def value(self, x):
        self.seen.append(np.array(x, dtype=float))
        return self._inner.value(x)

    def grad(self, x):
        return self._inner.grad(x)

    def value_and_grad(self, x):
        return self.value(x), self.grad(x)


@pytest.mark.parametrize("set_", [full_space(), nonneg_orthant()], ids=str)
def test_check_coordinatewise_swaps_on_the_tolerant_support(set_):
    # x[1] = 1e-14 lies below the support threshold 1e-12 * (1 + max|x|), so
    # it counts as off-support: the weakest support entry is x[3] = 1, and
    # the off-support entry with the steepest descent is x[1] itself
    obj = RecordingQuadratic([2.0, 0.5, 0.3, 1.0])
    x = np.array([2.0, 1e-14, 0.0, 1.0])
    assert check_coordinatewise(obj, set_, 2, x, default_grid(0.995, 50), 1e-8)
    expected = [x, [2.0, 1.0, 0.0, 0.0]]
    if set_.kind == "sign-free":
        expected.append([2.0, -1.0, 0.0, 0.0])
    assert len(obj.seen) == len(expected)
    for seen, point in zip(obj.seen, expected):
        assert np.array_equal(seen, point)


def test_checkers_reject_infeasible_points():
    obj = quadratic([1.0, 1.0, 1.0])
    grid = default_grid(0.5, 10)
    with pytest.raises(ValueError):
        check_general_stationary(obj, full_space(), 1, [1.0, 1.0, 0.0], grid, 1e-8)
    with pytest.raises(ValueError):
        check_strong_stationary(obj, nonneg_orthant(), 2, [-1.0, 0.0, 0.0], grid, 1e-8)


def test_report_serializes():
    obj = quadratic([3.0, 1.0])
    report = check_strong_stationary(obj, full_space(), 1, [0.0, 1.0], default_grid(0.9, 10), 1e-8)
    d = report.to_dict()
    assert list(d) == ["general", "strong", "coordinatewise", "worst_violation", "witness"]
    assert isinstance(d["witness"], list)
