import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import simplex_threshold_reference
from scipy.optimize import minimize

from sparsepg import (
    SymmetricSet,
    catalog,
    full_space,
    l1_ball,
    l2_ball,
    make_rng,
    nonneg_l1_ball,
    nonneg_l2_ball,
    nonneg_orthant,
    nonneg_simplex,
    parse_set,
)
from sparsepg import sets
from sparsepg.sets import _SCALAR_MAX

ALL_SETS = catalog()
THRESHOLD_SETS = [nonneg_simplex(1.0), l1_ball(1.0), nonneg_l1_ball(1.0)]


def qp_project(set_, x):
    """Independent projection oracle: solve min 0.5||z-x||^2 by SLSQP from a cold start.

    The sign-free l1 ball is handled with split variables z = u - v, u,v >= 0,
    sum(u+v) <= r, which keeps every constraint smooth.
    """
    n = x.size
    r = set_.radius
    if set_.variant == "l1ball":
        res = minimize(
            lambda uv: 0.5 * np.sum((uv[:n] - uv[n:] - x) ** 2),
            x0=np.zeros(2 * n),
            jac=lambda uv: np.concatenate([uv[:n] - uv[n:] - x, -(uv[:n] - uv[n:] - x)]),
            bounds=[(0.0, None)] * (2 * n),
            constraints=[{"type": "ineq", "fun": lambda uv: r - np.sum(uv)}],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        return res.x[:n] - res.x[n:]
    constraints = []
    bounds = None
    if set_.kind == "nonnegative":
        bounds = [(0.0, None)] * n
    if set_.variant == "simplex":
        constraints.append({"type": "eq", "fun": lambda z: np.sum(z) - r})
        start = np.full(n, r / n)
    elif set_.variant == "nonneg-l1ball":
        constraints.append({"type": "ineq", "fun": lambda z: r - np.sum(z)})
        start = np.zeros(n)
    elif set_.variant in ("l2ball", "nonneg-l2ball"):
        constraints.append({"type": "ineq", "fun": lambda z: r**2 - np.sum(z**2)})
        start = np.zeros(n)
    else:
        start = np.zeros(n)
    res = minimize(
        lambda z: 0.5 * np.sum((z - x) ** 2),
        x0=start,
        jac=lambda z: z - x,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    return res.x


def test_kind_flags():
    assert full_space().kind == "sign-free"
    assert l1_ball(2.0).kind == "sign-free"
    assert l2_ball().kind == "sign-free"
    assert nonneg_orthant().kind == "nonnegative"
    assert nonneg_simplex().kind == "nonnegative"
    assert nonneg_l1_ball().kind == "nonnegative"
    assert nonneg_l2_ball().kind == "nonnegative"


def test_ranking_values_branches():
    x = np.array([1.0, -2.0])
    assert np.array_equal(nonneg_orthant().ranking_values(x), x)
    assert np.array_equal(full_space().ranking_values(x), np.array([1.0, 2.0]))
    assert np.array_equal(l1_ball(1.0).ranking_values(np.zeros(2)), np.zeros(2))


def test_project_examples():
    assert np.array_equal(nonneg_orthant().project([-1.0, 2.0]), [0.0, 2.0])
    # KKT of the simplex projection: z = x - lam, sum(z) = 1 -> lam = (1.5-1)/3
    np.testing.assert_allclose(
        nonneg_simplex(1.0).project([0.5, 0.5, 0.5]), np.full(3, 1.0 / 3.0), atol=1e-15
    )
    np.testing.assert_allclose(l2_ball(1.0).project([3.0, 4.0]), [0.6, 0.8], atol=1e-15)


def test_project_sub_examples():
    assert np.array_equal(nonneg_simplex(1.0).project_sub([0.3]), [1.0])
    assert np.array_equal(full_space().project_sub([5.0, -7.0]), [5.0, -7.0])
    # KKT of projection onto {z >= 0, z1+z2 <= 1}: symmetric, binding sum
    np.testing.assert_allclose(
        nonneg_l1_ball(1.0).project_sub([0.9, 0.9]), [0.5, 0.5], atol=1e-15
    )


def test_project_sub_rejects_empty():
    with pytest.raises(ValueError):
        nonneg_simplex(1.0).project_sub(np.array([]))


@pytest.mark.parametrize("set_", ALL_SETS, ids=str)
def test_projection_matches_qp_oracle(set_):
    rng = make_rng(101)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        x = rng.standard_normal(n) * rng.uniform(0.3, 3.0)
        ours = set_.project(x)
        ref = qp_project(set_, x)
        d_ours = 0.5 * np.sum((ours - x) ** 2)
        d_ref = 0.5 * np.sum((ref - x) ** 2)
        # SLSQP meets constraints only to ~1e-8, so compare at oracle precision
        assert abs(d_ours - d_ref) <= 1e-6
        assert set_.contains(ours, 1e-9)


@pytest.mark.parametrize("set_", ALL_SETS, ids=str)
def test_order_preservation(set_):
    # ranking values of the projection never invert the input ordering
    rng = make_rng(7)
    for _ in range(50):
        x = rng.standard_normal(6) * 2.0
        y = set_.project(x)
        px = set_.ranking_values(x)
        py = set_.ranking_values(y)
        prod = np.subtract.outer(py, py) * np.subtract.outer(px, px)
        assert prod.min() >= -1e-12


@pytest.mark.parametrize(
    "set_,nonneg_twin",
    [
        (full_space(), nonneg_orthant()),
        (l1_ball(1.0), nonneg_l1_ball(1.0)),
        (l2_ball(1.5), nonneg_l2_ball(1.5)),
    ],
    ids=lambda v: str(v),
)
def test_sign_relation(set_, nonneg_twin):
    # for sign-free sets: sign(x) * proj over the nonnegative slice of |x|
    # attains the projection distance
    rng = make_rng(21)
    for _ in range(50):
        x = rng.standard_normal(5) * 1.5
        sign = np.where(x >= 0, 1.0, -1.0)
        composed = sign * nonneg_twin.project(np.abs(x))
        direct = set_.project(x)
        d_composed = np.sum((composed - x) ** 2)
        d_direct = np.sum((direct - x) ** 2)
        assert abs(d_composed - d_direct) <= 1e-12
        assert set_.contains(composed, 1e-10)


@pytest.mark.parametrize("set_", ALL_SETS, ids=str)
def test_idempotence(set_):
    rng = make_rng(33)
    for _ in range(50):
        x = rng.standard_normal(6) * 3.0
        y = set_.project(x)
        again = set_.project(y)
        assert np.linalg.norm(again - y) <= 1e-12


@pytest.mark.parametrize("set_", ALL_SETS, ids=str)
def test_feasible_points_are_exact_fixed_points(set_):
    rng = make_rng(34)
    for _ in range(25):
        y = set_.project(rng.standard_normal(6) * 2.0)
        assert np.array_equal(set_.project(y), y)


@pytest.mark.parametrize("set_", ALL_SETS, ids=str)
def test_nonexpansive(set_):
    rng = make_rng(55)
    for _ in range(50):
        x = rng.standard_normal(6) * 2.0
        y = rng.standard_normal(6) * 2.0
        lhs = np.linalg.norm(set_.project(x) - set_.project(y))
        assert lhs <= np.linalg.norm(x - y) + 1e-12


@pytest.mark.parametrize("set_", ALL_SETS, ids=str)
def test_membership_is_permutation_invariant(set_):
    rng = make_rng(77)
    for _ in range(25):
        x = set_.project(rng.standard_normal(7) * 2.0)
        perm = rng.permutation(7)
        assert set_.contains(x[perm], 1e-10)


def test_parse_round_trip():
    for set_ in ALL_SETS + [l1_ball(2.5), nonneg_simplex(3.0)]:
        assert parse_set(str(set_)) == set_
    assert parse_set("l1ball:2.5").radius == 2.5
    assert parse_set("l1ball") == l1_ball(1.0)  # the radius defaults to 1
    for text in ("cube", "full:2", "l1ball:-1", "simplex:inf", "l2ball:nan"):
        with pytest.raises(ValueError):
            parse_set(text)
    with pytest.raises(ValueError, match="finite"):
        SymmetricSet("nonneg-l2ball", np.inf)


def test_constraint_gaps():
    shape, nonneg = nonneg_simplex(1.0).constraint_gaps([0.6, 0.6, -0.1])
    assert shape == pytest.approx(0.1)
    assert nonneg == pytest.approx(0.1)
    shape, nonneg = l2_ball(1.0).constraint_gaps([3.0, 4.0])
    assert shape == pytest.approx(4.0)
    assert nonneg == 0.0
    assert full_space().constraint_gaps([9.0, -9.0]) == (0.0, 0.0)


def test_constraint_gaps_of_checked_vectors_match_the_public_method():
    rng = make_rng(7)
    for set_ in catalog(1.5):
        for _ in range(20):
            x = rng.standard_normal(int(rng.integers(1, 9))) * rng.uniform(0.1, 3.0)
            assert set_._constraint_gaps(x) == set_.constraint_gaps(x.tolist())


@st.composite
def threshold_cases(draw):
    """Vectors on both sides of the scalar cutoff: heavy ties, zeros of both signs, 1e-8..1e8."""
    n = draw(st.integers(1, 2 * _SCALAR_MAX))
    tie_prone = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0])
    spread = st.floats(-1.0, 1.0, allow_subnormal=False)
    entries = draw(st.sampled_from([tie_prone, spread, st.one_of(tie_prone, spread)]))
    scale = 10.0 ** draw(st.integers(-8, 8))
    x = np.array(draw(st.lists(entries, min_size=n, max_size=n))) * scale
    r = draw(st.sampled_from([1e-3, 0.1, 0.5, 1.0, 3.0, 10.0]))
    shape = draw(st.sampled_from(["free", "threshold boundary", "set boundary"]))
    if shape == "threshold boundary":
        # entries r below the largest sit on the boundary of the threshold test,
        # where rounding can fail it at one prefix length and pass it at the next
        x[1 : draw(st.integers(1, n))] = x.max() - r
    elif shape == "set boundary" and abs(x).sum() > r / np.finfo(float).max:
        # |x| sums to r up to rounding, where the feasibility tests of the
        # simplex and the l1 balls decide by the last bits of the sum; a sum
        # too small for r / sum to be finite (subnormal entries at scale
        # 1e-8) cannot be rescaled and stays as drawn
        x = (abs(x) if draw(st.booleans()) else x) * (r / abs(x).sum())
    return x, r


# the test passes, fails, then passes again along the sorted prefixes
NONMONOTONE = (np.array([7.603646726300525] + [7.503646726300525] * 3), 0.1)


@settings(max_examples=300, deadline=None)
@given(threshold_cases())
@example(NONMONOTONE)
def test_simplex_threshold_matches_the_numpy_reference_bit_for_bit(case):
    x, r = case
    assert sets._simplex_threshold(x, r).tobytes() == simplex_threshold_reference(x, r).tobytes()


@settings(max_examples=150, deadline=None)
@given(threshold_cases())
@example(NONMONOTONE)
def test_threshold_projections_match_the_numpy_reference_bit_for_bit(case):
    x, r = case
    balls = [SymmetricSet(set_.variant, r) for set_ in THRESHOLD_SETS]
    ours = [(b.project(x), b.project_sub(x)) for b in balls]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sets, "_simplex_threshold", simplex_threshold_reference)
        reference = [(b.project(x), b.project_sub(x)) for b in balls]
    for (p, p_sub), (q, q_sub) in zip(ours, reference):
        assert p.tobytes() == q.tobytes()
        assert p_sub.tobytes() == q_sub.tobytes()


@settings(max_examples=300, deadline=None)
@given(threshold_cases())
@example(NONMONOTONE)
def test_scalar_kernels_match_the_numpy_path_bit_for_bit(case):
    # the cutoffs select Python floats or NumPy for the feasibility tests, the
    # constraint gaps and the threshold; cutoffs of 0 take NumPy everywhere
    x, r = case
    sets_ = catalog(r)
    ours = [(s._project(x), s._constraint_gaps(x)) for s in sets_]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sets, "_NP_SERIAL_SUM", 0)
        mp.setattr(sets, "_SCALAR_MAX", 0)
        reference = [(s._project(x), s._constraint_gaps(x)) for s in sets_]
    for (p, gaps), (q, ref_gaps) in zip(ours, reference):
        assert p.tobytes() == q.tobytes()
        assert np.array(gaps).tobytes() == np.array(ref_gaps).tobytes()


@st.composite
def sum_cases(draw):
    """Vectors of 0 to 2 * _SCALAR_MAX entries at 1e-8..1e8, some strided views.

    Magnitudes spread over up to 16 decades within a vector, and some entries
    are +-0.0, subnormal or equal, so that rounding and signed zeros decide.
    """
    n = draw(st.integers(0, 2 * _SCALAR_MAX))
    step = draw(st.integers(1, 3))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.integers(0, 16))
    values = rng.standard_normal(n * step) * 10.0 ** rng.uniform(-decades / 2, decades / 2, n * step)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-315, 1.0, -1.0])
    odd = rng.random(n * step) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    values[odd] = rng.choice(special, odd.sum())
    return (values * 10.0 ** draw(st.integers(-8, 8)))[::step]


@settings(max_examples=500, deadline=None)
@given(sum_cases())
@example(np.array([-0.0] * 9))  # 8 running sums of -0.0, then the final add to 0.0
@example(np.array([-0.0] * 3))
@example(np.arange(1.0, 17.0)[::2] * 0.1)
def test_sum_matches_np_sum_bit_for_bit(v):
    # below _NP_SERIAL_SUM entries this checks that NumPy still adds one entry
    # after another from 0.0; from there on _total calls NumPy itself
    assert sets._total(v).hex() == float(np.sum(v)).hex()


@settings(max_examples=150, deadline=None)
@given(threshold_cases())
@example(NONMONOTONE)
def test_nonneg_l1_ball_projection_is_the_threshold_of_the_unclipped_vector(case):
    # clipping to the orthant before the l1 threshold leaves its bits unchanged
    x, r = case
    x = np.concatenate([x, [-1.0 - abs(x).max(), 2.0 * r]])  # a negative entry, mass above r
    assert nonneg_l1_ball(r).project(x).tobytes() == simplex_threshold_reference(x, r).tobytes()


@pytest.mark.parametrize("size, array_calls", [(_SCALAR_MAX, 0), (_SCALAR_MAX + 1, 1)])
def test_threshold_switches_to_numpy_above_the_scalar_cutoff(size, array_calls, monkeypatch):
    calls = []
    array_shift = sets._array_shift

    def counted(x, r):
        calls.append(x.size)
        return array_shift(x, r)

    monkeypatch.setattr(sets, "_array_shift", counted)
    x = make_rng(size).standard_normal(size)
    assert nonneg_simplex(1.0).project(x).tobytes() == simplex_threshold_reference(x, 1.0).tobytes()
    assert calls == [size] * array_calls


@pytest.mark.parametrize("size", [1, 2, _SCALAR_MAX + 1], ids=lambda n: f"n{n}")
@pytest.mark.parametrize("huge", [3e16, 1e17, 1e20, 1e300])
def test_an_entry_that_dwarfs_the_radius_keeps_all_the_mass(size, huge):
    x = np.ones(size)
    x[0] = huge
    e0 = np.zeros(size)
    e0[0] = 1.0
    with pytest.raises(IndexError):
        simplex_threshold_reference(x, 1.0)  # rounding loses r against the huge entry
    for set_ in THRESHOLD_SETS:
        assert np.array_equal(set_.project(x), e0)
        assert np.array_equal(set_.project_sub(x), e0)
    assert np.array_equal(l1_ball(1.0).project(-x), -e0)


@st.composite
def huge_threshold_cases(draw):
    """Entries at 1e14..1e18, near-equal (a few ulp apart) or independent, so r is a few ulp of them."""
    n = draw(st.integers(1, 2 * _SCALAR_MAX))
    base = 10.0 ** draw(st.floats(14.0, 18.0))
    if draw(st.booleans()):
        offsets = draw(st.lists(st.integers(-20, 0), min_size=n, max_size=n))
        x = base + np.spacing(base) * np.array(offsets, dtype=float)
    else:
        x = 10.0 ** np.array(draw(st.lists(st.floats(14.0, 18.0), min_size=n, max_size=n)))
    r = draw(st.sampled_from([1e-3, 0.1, 0.5, 1.0, 3.0, 10.0]))
    return x, r


FOUND_NEAR_EQUAL = (
    np.array([6329326021217657.0, 6329326021217656.0, 6329326021217648.0,
              6329326021217657.0, 6329326021217645.0]),
    1.0,
)


@settings(max_examples=200, deadline=None)
@given(huge_threshold_cases())
@example(FOUND_NEAR_EQUAL)
def test_threshold_projections_of_huge_entries_are_members(case):
    # a result whose sum misses r by more than min(r/2, 1e-3 * (1 + r)) is
    # recomputed on shifted entries; before that, such inputs summed to 2r or 4r
    x, r = case
    tol = min(0.5 * r, 1e-3 * (1.0 + r))
    for set_ in (nonneg_simplex(r), l1_ball(r), nonneg_l1_ball(r)):
        for point in (set_.project(x), set_.project_sub(x)):
            assert set_.contains(point, tol)
            assert abs(float(np.abs(point).sum()) - r) <= tol
    assert l1_ball(r).contains(l1_ball(r).project(-x), tol)


def test_near_equal_huge_entries_split_the_radius():
    x, r = FOUND_NEAR_EQUAL
    for set_ in (nonneg_simplex(r), nonneg_l1_ball(r), l1_ball(r)):
        assert np.array_equal(set_.project(x), [0.5, 0.0, 0.0, 0.5, 0.0])
    assert np.array_equal(l1_ball(r).project(-x), [-0.5, 0.0, 0.0, -0.5, 0.0])
