import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sparsepg import (
    DegenerateSupportError,
    LeastSquares,
    Logistic,
    catalog,
    change_support,
    coordinate_swap,
    full_space,
    make_rng,
    nonneg_orthant,
    project_sparse,
    support_of,
)
from sparsepg.subroutines import _change_support, _coordinate_swap

ALL_SETS = catalog()


def quadratic(center):
    c = np.asarray(center, dtype=float)
    return LeastSquares(np.eye(c.size), c)


def gradient_probe(x, grad):
    """Least-squares objective whose gradient at x is exactly grad."""
    x = np.asarray(x, dtype=float)
    return LeastSquares(np.eye(x.size), x - np.asarray(grad, dtype=float))


def test_swap_improves_orthant_case():
    # moving the weakest coordinate onto the target drops f from 15 to 10
    obj = quadratic([0.0, 0.0, 5.0])
    out = coordinate_swap(obj, nonneg_orthant(), np.array([1.0, 2.0, 0.0]))
    assert np.array_equal(out, [0.0, 2.0, 1.0])
    assert obj.value(out) == pytest.approx(10.0)


def test_swap_keeps_unconstrained_minimizer():
    obj = quadratic([1.0, 2.0, 0.0])
    x = np.array([1.0, 2.0, 0.0])
    out = coordinate_swap(obj, nonneg_orthant(), x)
    assert np.array_equal(out, x)


def test_swap_sign_free_prefers_negative_transplant():
    # candidates (0,2,1) and (0,2,-1) cost 20 and 10 against f(x)=15
    obj = quadratic([0.0, 0.0, -5.0])
    out = coordinate_swap(obj, full_space(), np.array([1.0, 2.0, 0.0]))
    assert np.array_equal(out, [0.0, 2.0, -1.0])
    assert obj.value(out) == pytest.approx(10.0)
    assert obj.value([0.0, 2.0, 1.0]) == pytest.approx(20.0)


def test_swap_sign_free_tie_keeps_positive_transplant():
    # candidates (0,2,1) and (0,2,-1) both cost 1 against f(x)=2
    obj = quadratic([-1.0, 2.0, 0.0])
    out = coordinate_swap(obj, full_space(), np.array([1.0, 2.0, 0.0]))
    assert np.array_equal(out, [0.0, 2.0, 1.0])
    assert obj.value([0.0, 2.0, -1.0]) == obj.value(out) == 1.0


def test_swap_degenerate_inputs():
    obj = quadratic([1.0, 1.0])
    with pytest.raises(DegenerateSupportError):
        coordinate_swap(obj, full_space(), np.zeros(2))
    with pytest.raises(DegenerateSupportError):
        coordinate_swap(obj, full_space(), np.ones(2))


def test_swap_never_increases_objective():
    rng = make_rng(3)
    for set_ in ALL_SETS:
        for _ in range(30):
            n = int(rng.integers(3, 8))
            s = int(rng.integers(1, n))
            x = project_sparse(set_, s, rng.standard_normal(n)).point
            if not 0 < support_of(x).size < n:
                continue
            obj = quadratic(rng.standard_normal(n))
            out = coordinate_swap(obj, set_, x)
            assert obj.value(out) <= obj.value(x)
            assert np.sum(out != x) <= 2
            assert support_of(out).size <= s
            assert set_.contains(out, 1e-12)


def test_change_support_moves_to_gradient_target():
    obj = gradient_probe([2.0, 0.0], [1.0, -3.0])
    out = change_support(obj, full_space(), 1, np.array([2.0, 0.0]), 1.0)
    assert np.array_equal(out, [0.0, 3.0])


def test_change_support_zero_gradient_clips():
    obj = gradient_probe([2.0, 0.0], [0.0, 0.0])
    out = change_support(obj, nonneg_orthant(), 1, np.array([2.0, 0.0]), 1.0)
    assert np.array_equal(out, [0.0, 0.0])


def test_change_support_tie_breaking_at_zero_step():
    # t=0 leaves all off-support ranking values tied at zero, so the swap
    # brings in the lowest-index empty coordinates
    obj = gradient_probe([0.0, 4.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])
    out = change_support(obj, full_space(), 1, np.array([0.0, 4.0, 0.0, 0.0]), 0.0)
    assert support_of(out).size <= 1
    assert set(support_of(out).tolist()) <= {0}
    assert not np.array_equal(support_of(out), np.array([1]))


def test_change_support_always_changes_support():
    rng = make_rng(41)
    for set_ in ALL_SETS:
        for _ in range(30):
            n = int(rng.integers(3, 8))
            s = int(rng.integers(1, n))
            x = project_sparse(set_, s, rng.standard_normal(n)).point
            if not 0 < support_of(x).size < n:
                continue
            obj = quadratic(rng.standard_normal(n))
            t = float(rng.uniform(0.0, 1.5))
            out = change_support(obj, set_, s, x, t)
            assert not np.array_equal(support_of(out), support_of(x))
            assert support_of(out).size <= s
            assert set_.contains(out, 1e-12)


def test_change_support_degenerate_inputs():
    obj = quadratic([1.0, 1.0])
    with pytest.raises(DegenerateSupportError):
        change_support(obj, full_space(), 1, np.zeros(2), 0.5)
    with pytest.raises(DegenerateSupportError):
        change_support(obj, full_space(), 1, np.ones(2), 0.5)
    with pytest.raises(ValueError):
        change_support(obj, full_space(), 1, np.array([1.0, 0.0]), -1.0)
    with pytest.raises(ValueError, match="2 nonzeros, exceeds sparsity level 1"):
        change_support(quadratic([1.0, 1.0, 1.0]), full_space(), 1, np.array([1.0, 1.0, 0.0]), 0.5)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_SETS), st.booleans(), st.integers(0, 2**32 - 1))
def test_private_moves_give_the_public_bits(set_, logistic, seed):
    # small-integer data, so that ranking values tie often
    rng = make_rng(seed)
    n = int(rng.integers(3, 12))
    s, m = int(rng.integers(1, n)), int(rng.integers(2, 8))
    a = rng.integers(-2, 3, size=(m, n)).astype(float)
    if logistic:
        obj = Logistic(a, rng.choice([-1.0, 1.0], size=m))
    else:
        obj = LeastSquares(a, rng.integers(-3, 4, size=m).astype(float))
    x = project_sparse(set_, s, rng.integers(-3, 4, size=n).astype(float)).point
    supp = support_of(x)
    assume(0 < supp.size < n)
    t = float(rng.uniform(0.0, 1.5))
    g, fx = obj.grad(x), obj.value(x)
    swapped = _coordinate_swap(obj.value, set_, x, supp, g, fx)
    assert swapped.tobytes() == coordinate_swap(obj, set_, x).tobytes()
    changed = _change_support(set_, x, supp, g, t)
    assert changed.tobytes() == change_support(obj, set_, s, x, t).tobytes()
