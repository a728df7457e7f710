import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsepg import (
    LeastSquares,
    Logistic,
    benchmark_config,
    default_stepsize,
    full_space,
    gen_instance,
    make_rng,
    npg_solve,
    pg_solve,
)
from sparsepg.objectives import _top_singular_value_sq
from sparsepg.solvers import _ScreenedSteps


def central_diff(obj, x, h_scale=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        h = h_scale * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
    return g


def random_objective(rng):
    m = int(rng.integers(2, 8))
    n = int(rng.integers(2, 8))
    if rng.integers(0, 2) == 0:
        return LeastSquares(rng.standard_normal((m, n)), rng.standard_normal(m)), n
    labels = rng.integers(0, 2, size=m) * 2.0 - 1.0
    return Logistic(rng.standard_normal((m, n)), labels), n


def test_least_squares_values():
    obj = LeastSquares(np.eye(2), [1.0, 0.0])
    assert obj.value([1.0, 0.0]) == 0.0
    assert obj.value([0.0, 0.0]) == 0.5
    assert np.array_equal(obj.grad([1.0, 0.0]), [0.0, 0.0])
    assert np.array_equal(obj.grad([0.0, 0.0]), [-1.0, 0.0])


def test_logistic_values():
    obj = Logistic(np.zeros((1, 3)), [1.0])
    assert obj.value([5.0, -2.0, 0.0]) == pytest.approx(np.log(2.0))
    one = Logistic(np.array([[1.0, 0.0]]), [1.0])
    np.testing.assert_allclose(one.grad([0.0, 0.0]), [-0.5, 0.0], atol=1e-15)


def test_logistic_is_stable_at_huge_margins():
    obj = Logistic(np.array([[1.0], [-1.0]]), [1.0, -1.0])
    for x in ([1e4], [-1e4]):
        assert np.isfinite(obj.value(x))
        assert np.all(np.isfinite(obj.grad(x)))
    # far on the correct side the loss vanishes, far on the wrong side it is linear
    assert obj.value([1e4]) == pytest.approx(0.0, abs=1e-12)
    assert obj.value([-1e4]) == pytest.approx(2e4, rel=1e-12)


def test_lipschitz_orthonormal_rows_is_one():
    rng = make_rng(8)
    w = rng.standard_normal((64, 16))
    q, _ = np.linalg.qr(w)
    obj = LeastSquares(q.T, rng.standard_normal(16))
    assert obj.lipschitz == pytest.approx(1.0, abs=1e-10)


def test_lipschitz_diagonal():
    obj = LeastSquares(2.0 * np.eye(3), np.zeros(3))
    assert obj.lipschitz == pytest.approx(4.0, rel=1e-10)


def test_lanczos_stops_within_the_krylov_bound():
    # a relative spectral gap of 5e-4, but the Krylov space fills R^2 in two steps
    class Counted:
        def __init__(self, a):
            self.a, self.shape, self.T, self.products = a, a.shape, a.T, 0

        def __matmul__(self, v):
            self.products += 1
            return self.a @ v

    mat = Counted(np.diag([1.0, np.sqrt(0.999)]))
    lam = _top_singular_value_sq(mat)
    assert mat.products <= min(mat.shape) + 1
    assert abs(lam - 1.0) <= 4 * np.finfo(float).eps


def test_lipschitz_logistic_rank_one():
    obj = Logistic(np.array([[3.0, 4.0]]), [-1.0])
    assert obj.lipschitz == pytest.approx(25.0, rel=1e-10)


def test_lipschitz_matches_svd():
    rng = make_rng(12)
    for _ in range(10):
        a = rng.standard_normal((int(rng.integers(2, 10)), int(rng.integers(2, 10))))
        obj = LeastSquares(a, np.zeros(a.shape[0]))
        exact = np.linalg.norm(a, 2) ** 2
        assert obj.lipschitz >= exact * (1.0 - 1e-8)
        assert obj.lipschitz <= exact * (1.0 + 1e-8)


def assert_lipschitz_matches_svd(obj):
    exact = np.linalg.norm(obj.A, 2) ** 2
    assert abs(obj.lipschitz - exact) <= 1e-13 * exact


@st.composite
def small_integer_models(draw):
    """Tall, wide, one-row and rank-deficient small-integer matrices, some rows and columns zero."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 40))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
    else:
        rank = draw(st.integers(1, min(m, n)))
        a = rng.integers(-2, 3, size=(m, rank)) @ rng.integers(-2, 3, size=(rank, n)).astype(float)
    a[rng.random(m) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    a[:, rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    if draw(st.booleans()):
        return LeastSquares(a, rng.integers(-3, 4, size=m).astype(float))
    return Logistic(a, rng.choice([-1.0, 1.0], size=m))


@settings(max_examples=300, deadline=None)
@given(small_integer_models())
def test_lipschitz_matches_svd_on_small_integer_matrices(obj):
    assert_lipschitz_matches_svd(obj)


def test_lipschitz_matches_svd_on_hard_cases():
    # a structured start such as ones + linspace lies in the null space of
    # [1, -2, 1], and adding the row (1, 1, 1) makes its Krylov space invariant:
    # it holds the eigenvalue 3 of A.T A, never the top one, 6
    assert_lipschitz_matches_svd(LeastSquares([[1.0, -2.0, 1.0]], [1.0]))
    assert_lipschitz_matches_svd(LeastSquares([[1.0, -2.0, 1.0], [1.0, 1.0, 1.0]], [0.0, 0.0]))
    # Table 3's top two eigenvalues of A.T A lie only 4% apart
    assert_lipschitz_matches_svd(gen_instance("simplex-least-squares", 100, 500, 3000).objective)
    # a centered Gaussian's clustered top spectrum takes 36 steps, past the
    # first 32 kept vectors
    a = make_rng(1).standard_normal((100, 200))
    assert_lipschitz_matches_svd(LeastSquares(a - a.mean(axis=0), np.zeros(100)))


def test_gradients_match_finite_differences():
    rng = make_rng(99)
    for _ in range(100):
        obj, n = random_objective(rng)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            obj.grad(x), central_diff(obj, x), rtol=1e-5, atol=1e-7
        )


def test_gradient_lipschitz_inequality():
    rng = make_rng(100)
    for _ in range(50):
        obj, n = random_objective(rng)
        lip = obj.lipschitz
        x = rng.standard_normal(n) * 2.0
        y = rng.standard_normal(n) * 2.0
        lhs = np.linalg.norm(obj.grad(x) - obj.grad(y))
        assert lhs <= lip * np.linalg.norm(x - y) * (1.0 + 1e-8) + 1e-12


def test_convexity_midpoint():
    rng = make_rng(101)
    for _ in range(50):
        obj, n = random_objective(rng)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        mid = obj.value((x + y) / 2.0)
        assert mid <= 0.5 * (obj.value(x) + obj.value(y)) + 1e-10


def test_value_and_grad_consistency():
    rng = make_rng(102)
    for _ in range(20):
        obj, n = random_objective(rng)
        x = rng.standard_normal(n)
        v, g = obj.value_and_grad(x)
        assert v == obj.value(x)
        assert np.array_equal(g, obj.grad(x))


def dense_value_and_grad(obj, x):
    """Both objectives straight from their formulas with a dense ``A @ x``."""
    ax = obj.A @ x
    if isinstance(obj, LeastSquares):
        r = ax - obj.b
        return 0.5 * float(r @ r), obj.A.T @ r
    z = obj.labels * ax
    return float(np.sum(np.logaddexp(0.0, -z))), -(obj.A.T @ (obj.labels / (1.0 + np.exp(z))))


def seeded_objectives():
    rng = make_rng(103)
    a = rng.standard_normal((40, 60))
    labels = rng.integers(0, 2, size=40) * 2.0 - 1.0
    return [LeastSquares(a, rng.standard_normal(40)), Logistic(a, labels)], rng


@pytest.mark.parametrize("nonzeros", [0, 1, 6, 7, 30, 60])
def test_support_aware_evaluation_matches_dense_formula(nonzeros):
    # every point, up to all 60 entries nonzero, is evaluated on its support columns
    objectives, rng = seeded_objectives()
    for obj in objectives:
        for _ in range(5):
            x = np.zeros(obj.dim)
            x[rng.choice(obj.dim, size=nonzeros, replace=False)] = rng.standard_normal(nonzeros)
            value, grad = obj.value_and_grad(x)
            want_value, want_grad = dense_value_and_grad(obj, x)
            assert abs(value - want_value) <= 1e-12 * abs(want_value)
            assert np.linalg.norm(grad - want_grad) <= 1e-12 * np.linalg.norm(want_grad)
            assert value == obj.value(x)
            assert np.array_equal(grad, obj.grad(x))


def test_support_product_never_reads_an_off_support_column():
    # a NaN column off the support shows which product was formed: the
    # support-column one never reads it, a dense A @ x would propagate it.
    # The models reject a non-finite A and keep it read-only, so the NaN goes
    # in after construction, through a cleared flag.
    a = np.ones((4, 20))
    for obj in (LeastSquares(a, np.ones(4)), Logistic(a, [1.0, -1.0, 1.0, -1.0])):
        obj.A.flags.writeable = True
        obj.A[:, 19] = np.nan
        for nonzeros in range(20):
            x = np.zeros(20)
            x[:nonzeros] = 0.5
            assert not np.isnan(obj.value(x))
            value, grad = obj.value_and_grad(x)
            assert not np.isnan(value)
            # only the off-support entries come from the dense A.T @ v
            assert not np.isnan(grad[:19]).any() and np.isnan(grad[19])
            assert np.array_equal(obj.grad(x), grad, equal_nan=True)


@pytest.mark.parametrize("nonzeros", [0, 1, 3, 6, 7, 30, 59, 60])
def test_gradient_entries_on_the_support_come_from_the_support_columns(nonzeros):
    # at every nonzero count, the gradient on S is A[:, S].T @ v bit for bit,
    # v the loss derivative at A[:, S] @ x[S], and off S it is A.T @ v
    objectives, rng = seeded_objectives()
    for obj in objectives:
        for _ in range(20):
            x = np.zeros(obj.dim)
            supp = np.sort(rng.choice(obj.dim, size=nonzeros, replace=False))
            x[supp] = rng.standard_normal(nonzeros)
            grad = obj.grad(x)
            cols = obj.A[:, supp]
            v = obj._loss_and_dloss(cols @ x[supp])[1]
            assert np.array_equal(grad[supp], cols.T @ v)
            off = np.setdiff1d(np.arange(obj.dim), supp)
            assert np.array_equal(grad[off], (obj.A.T @ v)[off])
            value, both_grad = obj.value_and_grad(x)
            assert value == obj.value(x)
            assert np.array_equal(both_grad, grad)


MEMO_KINDS = ["least_squares", "logistic"]


def memo_objective(kind):
    """A seeded model, an identical one built separately, and the seeded generator."""
    objectives, rng = seeded_objectives()
    index = MEMO_KINDS.index(kind)
    return objectives[index], seeded_objectives()[0][index], rng


def products_of(obj, products):
    return sum(model is obj for model in products)


def point_on(n, supp, values):
    x = np.zeros(n)
    x[supp] = values
    return x


def kept_steps(obj):
    """The solvers' step object on ``obj``, which keeps the support and its columns."""
    return _ScreenedSteps(obj, full_space(), 3)


# the linear models keep nothing: every grad forms one product, in a new
# array, with an identical model's bits; the solvers' step object keeps the
# support and its columns, and gathers them again only when the support moves


@pytest.mark.parametrize("kind", MEMO_KINDS)
def test_memo_returns_the_kept_bits_in_a_new_writeable_array(kind, products):
    obj, twin, rng = memo_objective(kind)
    steps = kept_steps(obj)
    x = point_on(obj.dim, [3, 17, 42], rng.standard_normal(3))
    first = obj.grad(x)
    assert steps.evaluate(x) == twin.value(x)
    cols = steps.cols
    second = obj.grad(x.copy())
    assert steps.evaluate(x.copy()) == twin.value(x)
    assert products_of(obj, products) == 2 and steps.cols is cols
    assert second.flags.writeable and not np.shares_memory(first, second)
    assert np.array_equal(first, second) and np.array_equal(second, twin.grad(x))
    want = second.copy()
    first[:] = np.nan
    second[:] = np.nan
    assert np.array_equal(obj.grad(x), want)
    assert steps.evaluate(x) == twin.value(x)
    assert products_of(obj, products) == 3 and steps.cols is cols


@pytest.mark.parametrize("kind", MEMO_KINDS)
def test_memo_recomputes_on_another_support_or_another_value(kind, products):
    obj, twin, rng = memo_objective(kind)
    values = rng.standard_normal(3)
    x = point_on(obj.dim, [3, 17, 42], values)
    moved = point_on(obj.dim, [3, 17, 43], values)
    nudged = x.copy()
    nudged[17] = np.nextafter(nudged[17], np.inf)
    steps = kept_steps(obj)
    obj.grad(x)
    steps.evaluate(x)
    for k, y in enumerate((moved, nudged, x), start=2):
        assert np.array_equal(obj.grad(y), twin.grad(y))
        assert products_of(obj, products) == k
        assert steps.evaluate(y) == twin.value(y)
        assert np.array_equal(steps.supp, y.nonzero()[0])
        assert np.array_equal(steps.cols, obj.A[:, steps.supp])


@pytest.mark.parametrize("kind", MEMO_KINDS)
def test_memo_takes_a_negative_zero_as_off_the_support(kind, products):
    # the gradient depends on x only through x[S], and -0.0 is not in S
    obj, twin, rng = memo_objective(kind)
    x = point_on(obj.dim, [3, 17, 42], rng.standard_normal(3))
    signed = x.copy()
    signed[[0, 18, 59]] = -0.0
    steps = kept_steps(obj)
    g = obj.grad(x)
    steps.evaluate(x)
    cols = steps.cols
    f, h = obj.value_and_grad(signed)
    assert steps.evaluate(signed) == f
    assert products_of(obj, products) == 2 and steps.cols is cols
    assert np.array_equal(g, h) and np.array_equal(h, twin.grad(signed))
    assert f == twin.value(signed)


@pytest.mark.parametrize("kind", MEMO_KINDS)
def test_memo_value_and_grad_after_grad_gives_the_bits_of_value_and_grad(kind, products):
    # value forms no product, and a value elsewhere changes no later bits
    obj, twin, rng = memo_objective(kind)
    x = point_on(obj.dim, [3, 17, 42], rng.standard_normal(3))
    elsewhere = point_on(obj.dim, [5], [1.0])
    g = obj.grad(x)
    assert obj.value(elsewhere) == twin.value(elsewhere)
    assert products_of(obj, products) == 1
    f, h = obj.value_and_grad(x)
    assert products_of(obj, products) == 2
    assert f == obj.value(x) == twin.value(x)
    assert np.array_equal(h, g) and np.array_equal(h, obj.grad(x))
    assert np.array_equal(h, twin.grad(x))


@pytest.mark.parametrize("kind", MEMO_KINDS)
def test_memo_models_keep_no_state_between_calls(kind):
    # the Lipschitz estimate is the one thing a model computes after it is
    # built; past it, neither its calls nor a solve add, drop or replace
    # anything the model holds
    obj, _, rng = memo_objective(kind)
    alpha = default_stepsize(obj.lipschitz)
    before = dict(vars(obj))

    def unchanged():
        after = vars(obj)
        return after.keys() == before.keys() and all(after[k] is before[k] for k in before)

    for supp in ([3, 17, 42], [5], [], [3, 17, 43], [3, 17, 43]):
        x = point_on(obj.dim, supp, rng.standard_normal(len(supp)))
        obj.value(x)
        assert unchanged()
        obj.grad(x)
        assert unchanged()
        obj.value_and_grad(x)
        assert unchanged()
    x0 = np.zeros(obj.dim)
    pg_solve(obj, full_space(), 3, x0, alpha, max_iter=40)
    assert unchanged()
    npg_solve(obj, full_space(), 3, x0, benchmark_config(obj.lipschitz, M=4, N=5, q=3, max_iter=40))
    assert unchanged()


@st.composite
def support_walks(draw):
    """A linear model and points whose supports repeat, alternate and change size.

    Supports hold up to a fifth of n entries.
    """
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 8)), draw(st.integers(10, 40))
    a = rng.standard_normal((m, n))
    if draw(st.booleans()):
        data = (a, rng.choice([-1.0, 1.0], size=m))
        model = Logistic
    else:
        data = (a, rng.standard_normal(m))
        model = LeastSquares
    support = st.lists(st.integers(0, n - 1), max_size=n // 5, unique=True)
    supports = draw(st.lists(support, min_size=1, max_size=4))
    methods = st.permutations(["value", "grad", "value_and_grad"])
    steps = draw(st.lists(st.tuples(st.sampled_from(supports), methods), min_size=1, max_size=12))
    points = []
    for supp, order in steps:
        x = np.zeros(n)
        x[supp] = rng.standard_normal(len(supp))
        points.append((x, order))
    return model, data, points


@settings(max_examples=150, deadline=None)
@given(support_walks())
def test_kept_support_columns_give_the_bits_of_a_fresh_objective(walk):
    # the step object keeps the support array, the same one while it stays put
    model, data, points = walk
    obj = model(*data)
    steps = _ScreenedSteps(obj, full_space(), 1)
    last = None  # the support array of the last evaluation
    for x, order in points:
        fresh = model(*data)
        for method in order:
            got, want = getattr(obj, method)(x), getattr(fresh, method)(x)
            if method == "value_and_grad":
                assert got[0] == want[0] and np.array_equal(got[1], want[1])
            else:
                assert np.array_equal(got, want)
        assert steps.evaluate(x) == fresh.value(x)
        assert np.array_equal(steps.gradient_at(x), fresh.grad(x))
        supp = steps.supp
        assert (supp is last) == (last is not None and np.array_equal(supp, last))
        assert np.array_equal(supp, x.nonzero()[0])
        last = supp


def test_one_pass_logistic_derivative_matches_the_two_pass_sigmoid_form():
    # v = -labels * exp(-l - u) with l = logaddexp(0, -u) stays within
    # 2 eps (1 + |u|) relative of -labels * sigmoid(-u) taken in a second
    # logaddexp pass, up to one subnormal; the loss keeps its bits
    rng = make_rng(11)
    mag = np.concatenate([
        rng.uniform(0.0, 1e3, 20_000),
        10.0 ** rng.uniform(-300.0, 3.0, 20_000),
        [0.0, 1e-320, 1.0, 36.0, 37.0, 709.0, 740.0, 745.0, 746.0, 1e3],
    ])
    u = mag * rng.choice([-1.0, 1.0], mag.size)
    labels = rng.choice([-1.0, 1.0], mag.size)
    obj = Logistic(np.ones((u.size, 1)), labels)
    p = labels * u  # labels * p == u exactly
    f, v = obj._loss_and_dloss(p)
    two_pass = -(labels * np.exp(-np.logaddexp(0.0, u)))
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    assert np.all(np.abs(v - two_pass) <= 2 * eps * (1 + np.abs(u)) * np.abs(two_pass) + tiny)
    assert f == float(np.logaddexp(0.0, -u).sum())


def test_logistic_lipschitz_equals_label_scaled_estimate():
    # flipping row signs is exact, so skipping the scaled copy changes no bit
    obj = gen_instance("logistic", 100, 200, 2000).objective
    scaled = LeastSquares(obj.A * obj.labels[:, None], np.zeros(100))
    assert obj.lipschitz == scaled.lipschitz


def test_dimension_mismatch():
    obj = LeastSquares(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        obj.value(np.zeros(2))
    with pytest.raises(ValueError):
        obj.grad(np.zeros(4))
    with pytest.raises(ValueError):
        Logistic(np.eye(2), [1.0, 2.0])  # labels must be +-1
    for a in (np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="A must be a matrix"):
            LeastSquares(a, np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_is_rejected_at_construction(bad):
    a = np.ones((2, 3))
    a[1, 2] = bad
    for model, target in ((LeastSquares, [1.0, 0.0]), (Logistic, [1.0, -1.0])):
        with pytest.raises(ValueError, match="A must be finite"):
            model(a, target)


def test_models_own_read_only_copies_of_their_arrays():
    # a later write to the caller's arrays reaches neither the model's values
    # nor its kept support columns, and the model's own arrays refuse writes
    a, b, labels = np.ones((4, 20)), np.ones(4), np.array([1.0, -1.0, 1.0, -1.0])
    x = np.zeros(20)
    x[:3] = 0.5
    for model, target in ((LeastSquares, b), (Logistic, labels)):
        obj, fresh = model(a, target), model(a.copy(), target.copy())
        a[:, :3], target[:] = np.nan, -target
        assert obj.value(x) == fresh.value(x)
        a[:, :3], target[:] = 1.0, -target  # the originals again, for the next model
        for name in ("A", "b" if model is LeastSquares else "labels"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(obj, name)[0] = 0.0


def test_generated_models_hold_an_owned_read_only_matrix():
    for family in ("cs-least-squares", "logistic", "simplex-least-squares"):
        a = gen_instance(family, 20, 64, 1, s=3).objective.A
        assert a.flags.owndata and not a.flags.writeable


def test_models_adopt_a_read_only_owned_matrix_and_copy_any_other():
    # a read-only float64 array that owns its data is taken as is; a writeable
    # array, a view or another dtype is copied into the model's own read-only
    # array, in the memory layout it came in
    owned = make_rng(0).standard_normal((4, 6))
    owned.flags.writeable = False
    assert LeastSquares(owned, np.ones(4)).A is owned
    assert Logistic(owned, [1.0, -1.0, 1.0, -1.0]).A is owned
    fortran = np.asfortranarray(make_rng(1).standard_normal((4, 6)))
    for given in (fortran, owned[:, :5], owned.astype(np.float32)):
        a = LeastSquares(given, np.ones(4)).A
        assert not np.shares_memory(a, given)
        assert a.dtype == np.float64 and a.flags.owndata and not a.flags.writeable
        assert np.array_equal(a, given)
    assert LeastSquares(fortran, np.ones(4)).A.flags.f_contiguous
    assert fortran.flags.writeable  # the caller's array is left as it was
