"""Euclidean projection onto the intersection of a sparsity level with a symmetric set.

The projection picks the ``s`` coordinates with the largest ranking values,
sub-projects onto the restricted set there, and zeros the rest.  The result is
always a member of the (possibly multi-valued) projection; two sufficient
conditions, checked by ``certify_unique``, certify when it is the unique one.
The test suite checks both against an enumerator of every support, which
lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _scatter, as_vector
from .sets import SymmetricSet

__all__ = ["SparseProjection", "project_sparse", "certify_unique"]


@dataclass(frozen=True)
class SparseProjection:
    """A projection result: the point and the support it was built on."""

    point: np.ndarray
    chosen_support: np.ndarray


def _check_sparsity_level(s: int, n: int) -> None:
    if not (isinstance(s, (int, np.integer)) and 1 <= s <= n - 1):
        raise ValueError(f"sparsity level must be an integer in 1..n-1, got s={s!r}, n={n}")


def _top_support(ranked: np.ndarray, s: int) -> np.ndarray:
    """Ascending indices of the ``s`` largest values, ties to the lowest indices.

    Equals ``np.sort(sorting_permutation(ranked)[:s])`` at the cost of a
    partition instead of a full sort.  When exactly ``s`` values reach the
    ``s``-th largest, they are the answer; when more tie with it, the values
    above it are joined by the lowest-index ones equal to it.
    """
    n = ranked.size
    threshold = np.partition(ranked, n - s)[n - s]
    top = (ranked >= threshold).nonzero()[0]
    if top.size == s:
        return top
    chosen = ranked > threshold
    # at most s - 1 values exceed the s-th largest, so missing >= 1
    missing = s - int(np.count_nonzero(chosen))
    chosen[(ranked == threshold).nonzero()[0][:missing]] = True
    return chosen.nonzero()[0]


def project_sparse(set_: SymmetricSet, s: int, x) -> SparseProjection:
    """Project ``x`` onto {cardinality <= s} intersected with ``set_``.

    The chosen support is the first ``s`` indices of the stable non-ascending
    sort of the ranking values (``sorting_permutation``), found by partition;
    any sorting permutation yields a valid projection, the stable one makes
    the choice deterministic.  ``certify_unique`` tells whether the result is
    the only projection.
    """
    x = as_vector(x)
    _check_sparsity_level(s, x.size)
    support = _top_support(set_.ranking_values(x), s)
    return SparseProjection(_scatter(x.size, support, set_.project_sub(x[support])), support)


def _project_sparse(
    set_: SymmetricSet, s: int, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`project_sparse` of a finite vector and a valid ``s``, unchecked.

    Returns the point, its support and its values there.  The support is the
    chosen one less the entries that the sub-projection leaves zero (an
    l1-ball soft threshold can zero one, and a chosen ``-0.0`` stays one), so
    it equals ``point.nonzero()[0]`` with no n-wide scan.
    """
    chosen = _top_support(set_.ranking_values(x), s)
    values = set_._project(x[chosen])
    point = _scatter(x.size, chosen, values)
    kept = values.nonzero()[0]
    if kept.size < chosen.size:
        chosen, values = chosen[kept], values[kept]
    return point, chosen, values


def certify_unique(set_: SymmetricSet, s: int, x, proj: SparseProjection) -> bool:
    """True if ``proj``, a projection of ``x``, is certifiably the only one.

    Certifies when the projected point has fewer than ``s`` nonzeros, or when
    the smallest ranking value of ``x`` on its support beats the largest one off
    it by more than ``1e-10 * (1 + max|x|)``.  False means "not certified", not
    "non-unique".
    """
    x = as_vector(x)
    _check_sparsity_level(s, x.size)
    return _certified_unique(set_, s, x, proj)


def _certified_unique(set_: SymmetricSet, s: int, a: np.ndarray, proj: SparseProjection) -> bool:
    """:func:`certify_unique` of a checked vector ``a``.

    A projection with s nonzeros holds s largest ranking values of ``a`` (a
    swap would otherwise bring it closer to ``a``), so the smallest ranking
    value on its support and the largest off it are the s-th and (s+1)-th
    largest, which one partition finds.
    """
    if np.count_nonzero(proj.point[proj.chosen_support]) < s:
        return True
    ranked = set_.ranking_values(a)
    n = ranked.size
    part = np.partition(ranked, (n - s - 1, n - s))
    return _clears_margin(float(part[n - s]), float(part[n - s - 1]), float(abs(a).max()))


def _clears_margin(low: float, high: float, a_max: float) -> bool:
    """The uniqueness test: ``low`` beats ``high`` by more than ``1e-10 * (1 + a_max)``.

    ``low`` is the smallest ranking value on the support, ``high`` the
    largest off it, and ``a_max`` the largest absolute entry of the vector
    projected.
    """
    return low > high + 1e-10 * (1.0 + a_max)
