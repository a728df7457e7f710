"""Euclidean projection onto the intersection of a sparsity level with a symmetric set.

The projection picks the ``s`` coordinates with the largest ranking values,
sub-projects onto the restricted set there, and zeros the rest.  The result is
always a member of the (possibly multi-valued) projection; two sufficient
conditions, checked by ``certify_unique``, certify when it is the unique one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import _complement, as_vector, support_of
from .sets import SymmetricSet

__all__ = ["SparseProjection", "project_sparse", "certify_unique", "brute_force_project"]

_BRUTE_MAX_N = 20


@dataclass(frozen=True)
class SparseProjection:
    """A projection result: the point and the support it was built on."""

    point: np.ndarray
    chosen_support: np.ndarray


def _check_sparsity_level(s: int, n: int) -> None:
    if not (isinstance(s, (int, np.integer)) and 1 <= s <= n - 1):
        raise ValueError(f"sparsity level must be an integer in 1..n-1, got s={s!r}, n={n}")


def _on_support(set_: SymmetricSet, n: int, support: np.ndarray, a_sub: np.ndarray) -> np.ndarray:
    """The n-vector holding ``set_.project_sub(a_sub)`` on ``support`` and zeros elsewhere."""
    point = np.zeros(n)
    point[support] = set_.project_sub(a_sub)
    return point


def _top_support(ranked: np.ndarray, s: int) -> np.ndarray:
    """Ascending indices of the ``s`` largest values, ties to the lowest indices.

    Equals ``np.sort(sorting_permutation(ranked)[:s])`` at the cost of a
    partition instead of a full sort.
    """
    n = ranked.size
    threshold = ranked[ranked.argpartition(n - s)[n - s]]
    chosen = ranked > threshold
    missing = s - int(np.count_nonzero(chosen))
    if missing:
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
    return SparseProjection(_on_support(set_, x.size, support, x[support]), support)


def certify_unique(set_: SymmetricSet, s: int, x, proj: SparseProjection) -> bool:
    """True if ``proj`` is certifiably the only projection of ``x``.

    Certifies when the projected point has fewer than ``s`` nonzeros, or when
    the smallest ranking value of ``x`` on its support beats the largest one off
    it by more than ``1e-10 * (1 + max|x|)``.  False means "not certified", not
    "non-unique".
    """
    x = as_vector(x)
    _check_sparsity_level(s, x.size)
    supp = support_of(proj.point)
    if supp.size < s:
        return True
    tol = 1e-10 * (1.0 + float(abs(x).max()))
    ranked = set_.ranking_values(x)
    return float(ranked[supp].min()) > float(ranked[_complement(supp, x.size)].max()) + tol


def brute_force_project(set_: SymmetricSet, s: int, x) -> list[SparseProjection]:
    """Testing oracle: enumerate every size-``s`` support and keep all minimizers.

    Returns the distinct points attaining the minimal squared distance within
    relative tolerance 1e-10.  Guarded to small instances.
    """
    x = as_vector(x)
    n = x.size
    _check_sparsity_level(s, n)
    if n > _BRUTE_MAX_N:
        raise ValueError(f"brute force limited to n <= {_BRUTE_MAX_N}, got n={n}")

    candidates: list[tuple[float, np.ndarray, np.ndarray]] = []
    best = np.inf
    for combo in itertools.combinations(range(n), s):
        support = np.array(combo, dtype=np.intp)
        point = _on_support(set_, n, support, x[support])
        dist = float(np.sum((point - x) ** 2))
        candidates.append((dist, point, support))
        best = min(best, dist)

    cutoff = best + 1e-10 * (1.0 + best)
    winners: list[SparseProjection] = []
    for dist, point, support in candidates:
        if dist <= cutoff and not any(
            np.allclose(point, w.point, rtol=0.0, atol=1e-12) for w in winners
        ):
            winners.append(SparseProjection(point, support))
    return winners
