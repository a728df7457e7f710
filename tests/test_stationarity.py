import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparsepg import (
    DegenerateSupportError,
    LeastSquares,
    Logistic,
    catalog,
    certify_unique,
    check_coordinatewise,
    check_strong_stationary,
    default_grid,
    default_stepsize,
    full_space,
    l1_ball,
    make_rng,
    minimize_support_gap,
    nonneg_orthant,
    nonneg_simplex,
    project_sparse,
    support_gap,
)
from sparsepg import stationarity
from sparsepg.projection import _certified_unique
from sparsepg.sets import _SCALAR_MAX
from sparsepg.stationarity import _array_gap_minimum, _scalar_gap_minimum
from oracles import (PublicProtocol, brute_force_project, coordinatewise_by_enumeration,
                     gap_minimum_by_loop, gap_on_grid, strong_stationary_on_grid,
                     unique_by_support)

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
    for t in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError):
            support_gap(full_space(), np.array([1.0, 0.0]), np.ones(2), t)


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


def test_minimize_support_gap_needs_a_finite_positive_bound():
    # on [0, inf) the gap 1 - t has no minimum
    for t_max in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="t_max"):
            minimize_support_gap(full_space(), np.array([1.0, 0.0]), np.array([0.0, 1.0]), t_max)


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


def test_gap_minimum_and_gap_match_the_coordinate_loop_and_the_definition():
    # small integers tie values and steps; on all 7 sets the step and value
    # must equal the loop's bit for bit, the largest-step tie rule and the
    # sign of zero included, and the gap at 0, t_max and a random step must
    # equal its n-wide definition bit for bit
    rng = make_rng(2025)
    for draw in range(3500):
        set_ = ALL_SETS[draw % len(ALL_SETS)]
        n = int(rng.integers(2, 12))
        x = np.zeros(n)
        idx = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        if draw % 2:
            x[idx] = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], idx.size)
            grad = rng.integers(-3, 4, n).astype(float)
        else:
            x[idx] = rng.standard_normal(idx.size)
            grad = rng.standard_normal(n)
        t_max = float(rng.integers(1, 4)) if draw % 3 == 0 else float(10.0 ** rng.uniform(-3, 8))
        gm = minimize_support_gap(set_, x, grad, t_max)
        step, value = gap_minimum_by_loop(set_, x, grad, t_max)
        assert (gm.step, gm.value) == (step, value)
        assert (np.signbit(gm.step), np.signbit(gm.value)) == (np.signbit(step), np.signbit(value))
        on = x != 0
        for t in (0.0, t_max, float(rng.uniform(0.0, t_max))):
            shifted = x - t * grad
            ranked = np.abs(shifted) if set_.kind == "sign-free" else shifted
            want = float(ranked[on].min() - ranked[~on].max())
            gap = support_gap(set_, x, grad, t)
            assert (gap, np.signbit(gap)) == (want, np.signbit(want))
    # a subnormal gradient entry puts the kink beyond the largest float
    x, grad = np.array([1.0, 0.0, 0.0]), np.array([1e-309, 1.0, 0.5])
    gm = minimize_support_gap(full_space(), x, grad, 2.0)
    assert (gm.step, gm.value) == gap_minimum_by_loop(full_space(), x, grad, 2.0) == (2.0, -1.0)


# small values tie; 1e300 over a g_i of 1e-300 or below overflows to inf
GAP_X = (-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 1e300, -1e300, 1e-300)
GAP_G = (-3.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 1e-300, -1e-300, 1e-309)


@st.composite
def gap_cases(draw):
    """Support values, gradient entries, alpha and t_max of one gap minimization."""
    size = draw(st.integers(1, _SCALAR_MAX))
    finite = st.floats(-4.0, 4.0, allow_nan=False)
    xs = draw(st.lists(st.sampled_from(GAP_X) | finite.filter(bool), min_size=size, max_size=size))
    gs = draw(st.lists(st.sampled_from(GAP_G) | finite, min_size=size, max_size=size))
    alpha = draw(st.sampled_from((-2.0, 0.0, 0.5, 1.0, 3.0)) | finite)
    t_max = draw(st.sampled_from((0.25, 1.0, 2.0, 1e8)) | st.floats(1e-3, 1e8))
    return np.array(xs), np.array(gs), alpha, t_max


@settings(max_examples=400, deadline=None)
@given(gap_cases())
# kinks at 2 (past t_max = 1) and inf, g_i = 0 and -0.0, ties at the minimum
@example((np.array([2.0, 1e300, 1.0, -1.0, 3.0]), np.array([1.0, 1e-300, 0.0, -0.0, 1.0]), 1.0, 1.0))
def test_gap_minimum_in_python_floats_matches_the_numpy_path(case):
    xs, gs, alpha, t_max = case
    for set_ in ALL_SETS:
        ours = _scalar_gap_minimum(set_, xs, gs, alpha, t_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reference = _array_gap_minimum(set_, xs, gs, alpha, t_max)
        assert np.array(ours).tobytes() == np.array(reference).tobytes(), set_


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
    assert check_strong_stationary(obj, full_space(), 1, [3.0, 0.0, 0.0], grid, 1e-8).general


def test_check_general_moving_projection():
    obj = quadratic([3.0, 0.0, 1.0])
    grid = default_grid(0.995, 50)
    # from (0,0,1) the shifted point (3t, 0, 1) ranks coordinate 0 on top
    # once t > 1/3, so the projection leaves the current support
    assert not check_strong_stationary(obj, full_space(), 1, [0.0, 0.0, 1.0], grid, 1e-8).general


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


def assert_same_report(report, expected):
    """Equal verdicts and ``worst_violation``, and witnesses equal byte for byte."""
    assert (report.general, report.strong) == (expected.general, expected.strong)
    assert report.worst_violation == expected.worst_violation
    assert report.coordinatewise is expected.coordinatewise is None
    if expected.witness is None:
        assert report.witness is None
    else:
        assert report.witness.tobytes() == expected.witness.tobytes()


def assert_matches_certified_grid(obj, set_, s, x, grid):
    """The report of ``check_strong_stationary``, after comparing it with the reference."""
    report = check_strong_stationary(obj, set_, s, x, grid, 1e-6)
    assert_same_report(report, strong_stationary_on_grid(obj, set_, s, x, grid, 1e-6))
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
# general but not strong: the last step ties two projections, so it is not certified
@example(l1_ball(), 5, 309294, True, False, False, 0.5)
# general but not strong: a step moves to a second projection as near as x
@example(nonneg_orthant(), 6, 728916, True, True, False, 2.0)
# an uncertified step stays at x, and a later step moves
@example(l1_ball(), 7, 527229, True, True, False, 2.0)
# the largest step switches the support and projects n-wide, above steps on
# the support that move: the witness is the n-wide step's point
@example(full_space(), 2, 0, False, False, False, 1.0)
def test_strong_check_matches_the_certified_grid_reference(
    set_, n, seed, ties, from_center, short, t_max
):
    # small integers make ties likely, and the dyadic grid hits them exactly,
    # so uncertified steps occur; projecting the center itself often lands on
    # a stationary point, where every step reads the uniqueness flag; a start
    # with fewer than s nonzeros gives ||x||_0 < s on all but the simplex
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


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_SETS),
    st.integers(2, 12),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
)
def test_private_uniqueness_test_agrees_with_certify_unique_at_every_grid_step(
    set_, n, seed, ties, short
):
    # small integers and a dyadic grid put ties at the s-th ranking value; a
    # start with fewer than s nonzeros, or a nonnegative set clipping negative
    # entries, projects to fewer than s nonzeros
    rng = make_rng(seed)
    s = int(rng.integers(1, n))

    def draw():
        return rng.integers(-2, 3, n).astype(float) if ties else rng.standard_normal(n)

    start = draw()
    if short:
        start[rng.permutation(n)[s - 1:]] = 0.0
    x = project_sparse(set_, s, start).point
    grad = draw()
    for t in default_grid(2.0, 9):
        a = x - t * grad
        proj = project_sparse(set_, s, a)
        expected = unique_by_support(set_, s, a, proj)
        assert _certified_unique(set_, s, a, proj) == certify_unique(set_, s, a, proj) == expected
        # a tie gives other projections, on which the two rules agree too
        dist = float(np.sum((proj.point - a) ** 2))
        for other in brute_force_project(set_, s, a):
            if float(np.sum((other.point - a) ** 2)) == dist:
                assert certify_unique(set_, s, a, other) == unique_by_support(set_, s, a, other)


def test_private_uniqueness_test_keeps_the_strict_margin_of_certify_unique():
    # the s-th ranking value exactly 1e-10 * (1 + max|a|) above the next is not
    # certified, one ulp more is; the margin scales with max|a|, here a
    # negative entry that a nonnegative set ranks last
    w = 1.0
    for _ in range(3):
        w = 1.0 + 1e-10 * (1.0 + w)
    assert w == 1.0 + 1e-10 * (1.0 + w)
    cases = [
        (full_space(), np.array([w, 1.0, 0.0]), False),
        (full_space(), np.array([np.nextafter(w, 2.0), 1.0, 0.0]), True),
        (nonneg_orthant(), np.array([1.0 + 5e-8, 1.0, -1e3]), False),
        (nonneg_orthant(), np.array([1.0 + 5e-8, 1.0, -1.0]), True),
    ]
    for set_, a, certified in cases:
        proj = project_sparse(set_, 1, a)
        assert unique_by_support(set_, 1, a, proj) is certified
        assert certify_unique(set_, 1, a, proj) is certified
        assert _certified_unique(set_, 1, a, proj) is certified


def test_strong_check_reads_an_uncertified_step_as_not_strong():
    # x[1] = 1e-13 lies inside the certificate's margin, so no step is
    # certified: every step stays at x, which is general but not strong
    x = np.array([1.0, 1e-13, 0.0])
    report = assert_matches_certified_grid(quadratic(x), full_space(), 2, x, default_grid(1.0, 9))
    assert (report.general, report.strong) == (True, False)


def test_strong_verdict_does_not_depend_on_n():
    # the same uncertified point reads general and not strong at n = 12 and
    # at n = 13: one rule at every n
    for n in (12, 13):
        x = np.zeros(n)
        x[:2] = 1.0, 1e-13
        report = check_strong_stationary(quadratic(x), full_space(), 2, x, default_grid(1.0, 9), 1e-6)
        assert (report.general, report.strong) == (True, False)


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


class CountedValue:
    """``obj`` with its ``value`` calls counted."""

    def __init__(self, obj):
        self.obj = obj
        self.value_calls = 0

    def value(self, x):
        self.value_calls += 1
        return self.obj.value(x)

    def grad(self, x):
        return self.obj.grad(x)


@pytest.mark.parametrize("set_", ALL_SETS, ids=str)
@pytest.mark.parametrize("model", [LeastSquares, Logistic])
def test_witness_rule_evaluates_f_twice_on_the_solvers_grid(set_, model):
    # below 1/L every projection that moves the point lowers f, so the
    # largest moving step of the grid to 0.995/L is the witness: f is
    # evaluated at x and at that step only
    rng = make_rng(11)
    m, n, s = 8, 12, 3
    targets = rng.choice([-1.0, 1.0], m) if model is Logistic else rng.standard_normal(m)
    obj = model(rng.standard_normal((m, n)), targets)
    grid = default_grid(default_stepsize(obj.lipschitz), 50)
    for _ in range(5):
        x = project_sparse(set_, s, rng.standard_normal(n)).point
        counted = CountedValue(obj)
        report = check_strong_stationary(counted, set_, s, x, grid, 1e-6)
        assert not report.general
        assert report.witness is not None
        assert obj.value(report.witness) < obj.value(x)
        assert counted.value_calls == 2


def overshooting_quadratic():
    """x = (1, 0) and f = 0.5*||x - (0.6, 0.5)||^2 (L = 1) on the 1-sparse plane.

    The gradient step is ``(1 - 0.4*t, 0.5*t)``: its projection keeps the
    first entry below t = 1/0.9 and lowers f there, keeps the second from
    there on, lowers f at t = 1.25 and raises it at t = 1.5, 1.75 and 2.
    """
    return quadratic([0.6, 0.5]), np.array([1.0, 0.0])


def test_witness_rule_takes_the_largest_step_that_lowers_f():
    # past 1/L the largest moving steps raise f; the witness is the largest
    # step that lowers it, 1.25, not the largest drop, at t = 1
    obj, x = overshooting_quadratic()
    g = obj.grad(x)
    at = {t: project_sparse(full_space(), 1, x - t * g).point for t in (1.0, 1.25, 2.0)}
    assert obj.value(at[2.0]) > obj.value(x)
    assert obj.value(at[1.0]) < obj.value(at[1.25]) < obj.value(x)
    report = assert_matches_certified_grid(obj, full_space(), 1, x, default_grid(2.0, 9))
    assert np.array_equal(report.witness, at[1.25])


def test_witness_rule_evaluates_every_moving_step_when_none_lowers_f():
    obj, x = overshooting_quadratic()
    counted = CountedValue(obj)
    grid = [0.0, 1.5, 1.75, 2.0]  # the step 0 stays at x; the other three move and raise f
    report = check_strong_stationary(counted, full_space(), 1, x, grid, 1e-6)
    assert report.witness is None
    assert counted.value_calls == 1 + 3
    assert report == strong_stationary_on_grid(obj, full_space(), 1, x, grid, 1e-6)


def screened_case(set_, model, seed, short, t_max):
    """A linear model on small integers, a point of ``set_`` and a grid that starts at 0.

    Integer data and a dyadic grid to ``t_max`` make ties likely, and so do
    exact least-squares gradients; ``t_max`` None takes the solvers' grid,
    which ends below 1/L, and the dyadic grids run past it.  A start with
    fewer than s nonzeros gives ||x||_0 < s on all but the simplex, and
    about half of the zeros of x are ``-0.0``.
    """
    rng = make_rng(seed)
    n = int(rng.integers(3, 13))
    m = int(rng.integers(2, 9))
    s = int(rng.integers(1, n))
    a = rng.integers(-2, 3, (m, n)).astype(float)
    a[0, 0] = a[0, 0] or 1.0
    targets = rng.choice([-1.0, 1.0], m) if model is Logistic else rng.integers(-3, 4, m)
    obj = model(a, targets.astype(float))
    start = rng.integers(-2, 3, n).astype(float)
    if short:
        start[rng.permutation(n)[s - 1:]] = 0.0
    x = project_sparse(set_, s, start).point
    x[(x == 0) & (rng.random(n) < 0.5)] = -0.0
    if t_max is None:
        return obj, s, x, default_grid(default_stepsize(obj.lipschitz), 50)
    return obj, s, x, default_grid(t_max, 9)


@pytest.fixture
def wide_projections(monkeypatch):
    """The vectors that the certificate projects n-wide, in call order."""
    seen = []

    def counted(set_, s, a):
        seen.append(a)
        return project_sparse(set_, s, a)

    monkeypatch.setattr(stationarity, "project_sparse", counted)
    return seen


@settings(deadline=None)
@given(
    st.sampled_from(ALL_SETS),
    st.sampled_from([LeastSquares, Logistic]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([None, 0.5, 2.0, 8.0]),
)
# a step ties the smallest ranking value on S with the largest off it, at
# a lower index off S, and falls back to the n-wide projection, which
# takes that index
@example(full_space(), LeastSquares, 34, False, 0.5)
# an l1-ball sub-projection zeroes an entry of S at a screened step
@example(l1_ball(), LeastSquares, 48, False, 2.0)
# the simplex meets both
@example(nonneg_simplex(), LeastSquares, 56, False, 2.0)
def test_screened_certificate_matches_the_public_path_and_the_grid_reference(
    set_, model, seed, short, t_max
):
    obj, s, x, grid = screened_case(set_, model, seed, short, t_max)
    report = assert_matches_certified_grid(obj, set_, s, x, grid)
    public = check_strong_stationary(PublicProtocol(obj), set_, s, x, grid, 1e-6)
    assert_same_report(report, public)


@pytest.mark.parametrize("set_", ALL_SETS, ids=str)
def test_screened_certificate_sums_each_move_over_the_n_vector(set_):
    # from n = 16 on, BLAS can group the terms of a dot product differently
    # for the n-vector and its nonzeros alone, so only the n-vector gives the
    # public path's worst_violation; near a fit of x the gradient is small,
    # so every step keeps the top-s support, screens and moves
    rng = make_rng(23)
    m, n, s = 20, 40, 12
    a = rng.standard_normal((m, n))
    grid = default_grid(2.0 * default_stepsize(LeastSquares(a, np.zeros(m)).lipschitz), 50)
    for _ in range(5):
        x = project_sparse(set_, s, rng.standard_normal(n)).point
        obj = LeastSquares(a, a @ x + 1e-3 * rng.standard_normal(m))
        report = check_strong_stationary(obj, set_, s, x, grid, 1e-6)
        assert report.worst_violation > 1e-6
        public = check_strong_stationary(PublicProtocol(obj), set_, s, x, grid, 1e-6)
        assert_same_report(report, public)


def test_screened_certificate_projects_nothing_n_wide_when_every_step_screens(wide_projections):
    # x = (1 - 1e-10, 1e-10) on the 2-sparse l1 ball, and each step pushes
    # x_0 up by about 1.1e-6*t: the soft threshold zeroes x_1 and moves x by
    # about 1.4e-10, within tol.  x_1 lies within the uniqueness margin, so
    # each step is certified only because its projection has fewer than s
    # nonzeros
    x = np.array([1.0 - 1e-10, 1e-10, 0.0, -0.0])
    obj = quadratic([1.0 + 1e-6, 1e-10, 0.0, 0.0])
    grid = [0.25, 0.5, 0.75, 1.0]
    report = check_strong_stationary(obj, l1_ball(), 2, x, grid, 1e-6)
    assert wide_projections == []
    assert (report.general, report.strong, report.witness) == (True, True, None)
    assert 0 < report.worst_violation <= 1e-6
    assert_same_report(report, strong_stationary_on_grid(obj, l1_ball(), 2, x, grid, 1e-6))


def test_screened_certificate_falls_back_at_a_tied_step_only(wide_projections):
    # g = (-1, 0), so x - t*g = (t, 1) ties its two entries at t = 1: that step
    # alone projects n-wide, and takes index 0, which moves the point to a
    # second projection as near as x, so x is general but not strong
    x = np.array([-0.0, 1.0, 0.0])
    obj = quadratic([1.0, 1.0, 0.0])
    grid = default_grid(1.0, 5)
    report = check_strong_stationary(obj, full_space(), 1, x, grid, 1e-6)
    assert len(wide_projections) == 1 and wide_projections[0].tolist() == [1.0, 1.0, 0.0]
    assert (report.general, report.strong, report.witness) == (True, False, None)
    assert report.worst_violation == math.sqrt(2.0)
    public = check_strong_stationary(PublicProtocol(obj), full_space(), 1, x, grid, 1e-6)
    assert_same_report(report, public)


@pytest.mark.parametrize("set_", ALL_SETS, ids=str)
@pytest.mark.parametrize("model", [LeastSquares, Logistic])
def test_screened_certificate_decides_general_on_the_support_clear_of_its_band(
    set_, model, monkeypatch
):
    # one small step on S that moves x; tol is set to the difference U - V of
    # the general sums on S, where the n-wide sums must decide, and 4 bands
    # below and above it, where S alone decides; the band is 8 gamma_{n+2}
    # (U + V + 2 t^2 |g_off|^2 + tol), gamma_k = k u / (1 - k u)
    verdicts = []
    general = stationarity._SupportGrid.general

    def recorded(self, i, values):
        verdicts.append(general(self, i, values))
        return verdicts[-1]

    monkeypatch.setattr(stationarity._SupportGrid, "general", recorded)
    rng = make_rng(41)
    m, n, s = 12, 24, 4
    targets = rng.choice([-1.0, 1.0], m) if model is Logistic else rng.standard_normal(m)
    obj = model(rng.standard_normal((m, n)), targets)
    for _ in range(5):
        start = np.zeros(n)
        signs = 1.0 if set_.kind == "nonnegative" else rng.choice([-1.0, 1.0], s)
        start[rng.choice(n, s, replace=False)] = signs * rng.uniform(1.0, 1.2, s)
        x = project_sparse(set_, s, start).point
        assert np.count_nonzero(x) == s
        g = obj.grad(x)
        t = 0.01 * default_stepsize(obj.lipschitz)
        a = x - t * g
        supp = x.nonzero()[0]
        p = project_sparse(set_, s, a).point
        assert np.array_equal(project_sparse(set_, s, a).chosen_support, supp)
        u = float(np.sum((x - a)[supp] ** 2))
        v = float(np.sum((p - a)[supp] ** 2))
        g_off = np.delete(g, supp)
        gamma = (n + 2) * 2.0**-53 / (1 - (n + 2) * 2.0**-53)
        band = 8 * gamma * (u + v + 2 * t * t * float(g_off @ g_off) + (u - v))
        assert 0 < 4 * band < u - v < np.linalg.norm(p - x)
        for tol, verdict in [(u - v, None), (u - v + 4 * band, True), (u - v - 4 * band, False)]:
            verdicts.clear()
            report = check_strong_stationary(obj, set_, s, x, [t], tol)
            assert verdicts == [verdict]
            if verdict is not None:
                assert report.general is verdict
            assert_same_report(report, strong_stationary_on_grid(obj, set_, s, x, [t], tol))
            public = check_strong_stationary(PublicProtocol(obj), set_, s, x, [t], tol)
            assert_same_report(report, public)


@pytest.mark.parametrize("t", [1e-160, 1e-162, 1e-163])
def test_screened_certificate_bounds_the_off_support_sum_at_a_tiny_step(t):
    # t*t is subnormal or 0 here, while t*g_j is about 1e-10 off S, so the
    # off-support sum W is about 2e-20 and U on S, about 2e-38, lies far
    # below the last bit of W: the n-wide sums tie and general holds.  The
    # bound on W must not underflow with t*t, or the band misses W and S
    # alone says general fails
    x = np.array([1e-4, 1e-4, 0.0, 0.0])
    obj = quadratic([1e-4 - 1e144, 1e-4 - 1e144, -1e153, -1e153])
    report = check_strong_stationary(obj, full_space(), 2, x, [t], 0.0)
    assert report.general and report.worst_violation > 0.0
    assert_same_report(report, strong_stationary_on_grid(obj, full_space(), 2, x, [t], 0.0))
    public = check_strong_stationary(PublicProtocol(obj), full_space(), 2, x, [t], 0.0)
    assert_same_report(report, public)


@pytest.mark.parametrize(
    "set_, center",
    [
        # the step on S overflows: |1 - 1e308 * (1 + 1e10)| is inf
        (full_space(), [-1e10, 0.0, 0.0]),
        # the step off S overflows to -inf, below every entry on S, so the
        # nonnegative set still ranks S on top
        (nonneg_orthant(), [2.0, -1e10, 0.0]),
    ],
)
def test_screened_certificate_raises_at_an_overflowing_step(wide_projections, set_, center):
    x = np.array([1.0, 0.0, 0.0])
    obj = quadratic(center)
    grid = [0.0, 1.0, 1e308]
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            check_strong_stationary(obj, set_, 1, x, grid, 1e-6)
        # the largest step is walked first, and it projects n-wide
        assert len(wide_projections) == 1
        with pytest.raises(ValueError, match="finite"):
            check_strong_stationary(PublicProtocol(obj), set_, 1, x, grid, 1e-6)


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
    for t_max, points in [(0.9, 0), (0.9, 1), (0.0, 50), (-1.0, 50), (float("nan"), 50),
                          (float("inf"), 2), (float("inf"), 50)]:
        with pytest.raises(ValueError):
            default_grid(t_max, points)


def test_checkers_reject_a_grid_without_a_positive_step():
    # without a positive step strong holds vacuously: nothing refutes it
    obj = LeastSquares(np.eye(3), [0.0, 0.0, 5.0])
    x = [1.0, 0.0, 0.0]
    for grid in [[], [0.0], [0.0, -0.5]]:
        for check in (check_strong_stationary, check_coordinatewise):
            with pytest.raises(ValueError, match="positive step"):
                check(obj, full_space(), 1, x, grid, 1e-8)


def test_checkers_reject_a_negative_step():
    # the global minimizer would fail the general check at t = -5
    obj = quadratic([3.0, 1.0, 0.0])
    for grid in [[-5.0, 0.9], [0.5, np.nan]]:
        for check in (check_strong_stationary, check_coordinatewise):
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
        check_strong_stationary(obj, full_space(), 1, [1.0, 1.0, 0.0], grid, 1e-8)
    with pytest.raises(ValueError):
        check_strong_stationary(obj, nonneg_orthant(), 2, [-1.0, 0.0, 0.0], grid, 1e-8)
    # a bad tolerance is named as such, not taken for an infeasible point
    for tol in (-1e-8, np.nan, np.inf):
        for check in (check_strong_stationary, check_coordinatewise):
            with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
                check(obj, full_space(), 1, [1.0, 0.0, 0.0], grid, tol)


def test_report_serializes():
    obj = quadratic([3.0, 1.0])
    report = check_strong_stationary(obj, full_space(), 1, [0.0, 1.0], default_grid(0.9, 10), 1e-8)
    d = report.to_dict()
    assert list(d) == ["general", "strong", "coordinatewise", "worst_violation", "witness"]
    assert isinstance(d["witness"], list)
