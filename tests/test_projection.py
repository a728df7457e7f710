import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sparsepg import (
    catalog,
    certify_unique,
    full_space,
    make_rng,
    nonneg_orthant,
    nonneg_simplex,
    project_sparse,
    sorting_permutation,
    support_of,
)
from sparsepg.projection import _top_support
from oracles import brute_force_project

ALL_SETS = catalog()


def test_project_sparse_full_space_example():
    # brute force over the three 2-element supports: keeping {0,2} drops only
    # the -1 entry, squared distance 1; the alternatives cost 4 and 9
    res = project_sparse(full_space(), 2, np.array([3.0, -1.0, 2.0]))
    assert np.array_equal(res.point, [3.0, 0.0, 2.0])
    assert res.chosen_support.tolist() == [0, 2]


def test_project_sparse_simplex_example():
    # one-element supports of the unit simplex pin the value to 1; distances
    # 0.25+0.16+0.01 (support {0}) beat the other two placements
    res = project_sparse(nonneg_simplex(1.0), 1, np.array([0.5, 0.4, 0.1]))
    assert np.array_equal(res.point, [1.0, 0.0, 0.0])


def test_project_sparse_fixed_point():
    x = np.array([0.0, 1.0, 0.5])
    res = project_sparse(nonneg_orthant(), 2, x)
    assert np.array_equal(res.point, x)


def test_project_sparse_bad_sparsity_level():
    for s in (0, 3, 4):
        with pytest.raises(ValueError):
            project_sparse(full_space(), s, np.array([1.0, 2.0, 3.0]))


def test_certify_unique_gap_example():
    x = np.array([3.0, -1.0, 2.0])
    res = project_sparse(full_space(), 2, x)
    # ranking values (3, 1, 2): min on-support 2 beats off-support 1 by 1
    assert certify_unique(full_space(), 2, x, res) is True


def test_certify_unique_tie_on_support_boundary():
    x = np.array([1.0, 1.0, 0.0])
    res = project_sparse(full_space(), 2, x)
    assert certify_unique(full_space(), 2, x, res) is True


def test_certify_unique_ambiguous_case():
    x = np.array([1.0, 1.0])
    res = project_sparse(full_space(), 1, x)
    assert np.array_equal(res.point, [1.0, 0.0])
    assert certify_unique(full_space(), 1, x, res) is False


def test_brute_force_two_minimizers():
    winners = brute_force_project(full_space(), 1, np.array([1.0, 1.0]))
    points = sorted(w.point.tolist() for w in winners)
    assert points == [[0.0, 1.0], [1.0, 0.0]]


def test_brute_force_feasible_point_has_zero_distance():
    x = np.array([0.5, 0.0, -0.25, 0.0])
    winners = brute_force_project(full_space(), 3, x)
    assert any(np.array_equal(w.point, x) for w in winners)


def test_brute_force_clipping_collapses_supports():
    winners = brute_force_project(nonneg_orthant(), 1, np.array([-5.0, -3.0]))
    assert len(winners) == 1
    assert np.array_equal(winners[0].point, [0.0, 0.0])


def test_brute_force_guards():
    with pytest.raises(ValueError):
        brute_force_project(full_space(), 2, np.zeros(21))


def test_oracle_equivalence_sample():
    # small slice of the exhaustive acceptance sweep
    rng = make_rng(5)
    for set_ in ALL_SETS:
        for n, s in [(4, 1), (5, 2), (6, 3)]:
            for _ in range(20):
                x = rng.standard_normal(n)
                res = project_sparse(set_, s, x)
                best = min(
                    float(np.sum((w.point - x) ** 2)) for w in brute_force_project(set_, s, x)
                )
                assert float(np.sum((res.point - x) ** 2)) <= best + 1e-10


@pytest.mark.parametrize("set_", ALL_SETS, ids=str)
def test_restriction_property(set_):
    # on every s-super support of the result, re-projecting reproduces it
    rng = make_rng(11)
    n, s = 6, 3
    for _ in range(10):
        x = rng.standard_normal(n)
        res = project_sparse(set_, s, x)
        supp = set(support_of(res.point).tolist())
        for size in range(len(supp), s + 1):
            for extra in itertools.combinations(sorted(set(range(n)) - supp), size - len(supp)):
                T = np.array(sorted(supp | set(extra)), dtype=int)
                np.testing.assert_allclose(
                    res.point[T], set_.project_sub(x[T]), atol=1e-12
                )


def test_certified_unique_implies_singleton():
    rng = make_rng(13)
    for set_ in ALL_SETS:
        for _ in range(40):
            n = int(rng.integers(3, 7))
            s = int(rng.integers(1, n))
            x = rng.standard_normal(n)
            res = project_sparse(set_, s, x)
            if certify_unique(set_, s, x, res):
                assert len(brute_force_project(set_, s, x)) == 1


def test_feasible_sparse_points_project_to_themselves():
    rng = make_rng(17)
    for set_ in ALL_SETS:
        for _ in range(20):
            n = int(rng.integers(3, 8))
            s = int(rng.integers(1, n))
            raw = project_sparse(set_, s, rng.standard_normal(n)).point
            again = project_sparse(set_, s, raw)
            assert np.array_equal(again.point, raw)


def stable_sort_support(set_, s, x):
    """The support a full stable sort of the ranking values picks."""
    return np.sort(sorting_permutation(set_.ranking_values(x))[:s])


# a small pool of values makes heavy ties likely, and mixes 0.0 with -0.0
tie_prone_entries = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])


@st.composite
def selection_cases(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    entries = st.one_of(tie_prone_entries, st.floats(-3.0, 3.0, allow_subnormal=False))
    x = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    s = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    set_ = draw(st.sampled_from(ALL_SETS))
    return set_, s, x


@given(selection_cases())
def test_top_s_selection_matches_stable_sort(case):
    set_, s, x = case
    res = project_sparse(set_, s, x)
    assert np.array_equal(res.chosen_support, stable_sort_support(set_, s, x))


@pytest.mark.parametrize("set_", [full_space(), nonneg_orthant()], ids=str)
def test_top_s_selection_all_ties(set_):
    # every ranking value equal (signed zeros included): the lowest indices win
    for x in (np.full(7, 1.5), np.array([0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0])):
        for s in (1, 3, 6):
            res = project_sparse(set_, s, x)
            assert res.chosen_support.tolist() == list(range(s))
            assert np.array_equal(res.chosen_support, stable_sort_support(set_, s, x))


@st.composite
def straddling_ties(draw):
    """Ranking values where ties at the s-th largest run past it: some above, more tied, the rest below."""
    n = draw(st.integers(2, 30))
    s = draw(st.integers(1, n - 1))
    above = draw(st.integers(0, s - 1))
    tied = draw(st.integers(s - above + 1, n - above))
    level = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    values = ([level + 1.0 + i for i in range(above)] + [level] * tied
              + [level - 1.0 - i for i in range(n - above - tied)])
    return np.array(draw(st.permutations(values))), s


@given(straddling_ties())
def test_top_support_fills_straddling_ties_by_index(case):
    ranked, s = case
    assert np.array_equal(_top_support(ranked, s), np.sort(sorting_permutation(ranked)[:s]))


def test_top_s_selection_fills_ties_after_strict_winners():
    # ranking (sign-free) 3, 1, 2, 1, 2, 1: 3 wins, then the two 2s, then the first 1
    x = np.array([3.0, -1.0, 2.0, 1.0, -2.0, 1.0])
    res = project_sparse(full_space(), 4, x)
    assert res.chosen_support.tolist() == [0, 1, 2, 4]
