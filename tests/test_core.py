import numpy as np
import pytest
from hypothesis import given, strategies as st

from sparsepg import make_rng, sorting_permutation, support_of
from sparsepg.core import as_vector

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_support_of_basic():
    assert support_of(np.array([3.0, 0.0, 2.0])).tolist() == [0, 2]
    assert support_of(np.zeros(3)).tolist() == []
    assert support_of(np.array([1e-13, 1.0]), tol=1e-12).tolist() == [1]


def test_support_of_rejects_negative_tol():
    # NaN compares false both ways, so it would read as an empty support
    for tol in (-1e-3, float("nan")):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            support_of(np.array([1.0]), tol=tol)


def test_sorting_permutation_examples():
    assert sorting_permutation(np.array([1.0, 3.0, 2.0])).tolist() == [1, 2, 0]
    assert sorting_permutation(np.array([2.0, 2.0, 2.0])).tolist() == [0, 1, 2]
    assert sorting_permutation(np.array([0.0, 5.0, 5.0, -1.0])).tolist() == [1, 2, 0, 3]


@given(st.lists(finite_floats, min_size=1, max_size=30))
def test_sorting_permutation_is_permutation(entries):
    v = np.array(entries)
    sigma = sorting_permutation(v)
    assert sorted(sigma.tolist()) == list(range(v.size))
    sorted_vals = v[sigma]
    assert np.all(sorted_vals[:-1] >= sorted_vals[1:])


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=12))
def test_sorting_permutation_stable_on_ties(entries):
    v = np.array(entries, dtype=float)
    sigma = sorting_permutation(v)
    for a, b in zip(sigma[:-1], sigma[1:]):
        if v[a] == v[b]:
            assert a < b


@given(st.lists(finite_floats, min_size=0, max_size=30))
def test_support_count_matches_nonzeros(entries):
    v = np.array(entries)
    assert support_of(v).size == np.count_nonzero(v)


def test_rng_streams_are_reproducible():
    a = make_rng(42).standard_normal(8)
    b = make_rng(42).standard_normal(8)
    c = make_rng(43).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_as_vector_validation():
    with pytest.raises(ValueError):
        as_vector(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, 2.0]), n=3)
    # the sum of these is not finite, so the entries are tested one by one;
    # only the first vector's are all finite
    with np.errstate(over="ignore", invalid="ignore"):
        assert as_vector([1e308, 1e308]).tolist() == [1e308, 1e308]
        with pytest.raises(ValueError):
            as_vector([np.inf, -np.inf])
        with pytest.raises(ValueError):
            as_vector([np.nan, 1.0])
