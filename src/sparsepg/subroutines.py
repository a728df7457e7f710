"""Support-editing moves: swap one coordinate, or exchange a block of the support.

Both moves keep the point inside the sparse symmetric feasible set: swapping
transplants a single coordinate value (a coordinate permutation, plus a sign
flip for sign-free sets), and the support change rebuilds the point by
sub-projecting a gradient step on the edited support.  Each public move checks
its input, asks the objective for the gradient (and the swap for f) at the
point, and calls its private form, which takes them as arguments; the private
swap values its candidates through the callable it is given, ``obj.value``
on the public path.
"""

from __future__ import annotations

import numpy as np

from .core import _complement, _proper_support, _scatter, as_vector
from .sets import SymmetricSet

__all__ = ["coordinate_swap", "change_support"]


def _swap_candidates(set_: SymmetricSet, x: np.ndarray, grad: np.ndarray,
                     supp: np.ndarray) -> list[np.ndarray]:
    """The points :func:`coordinate_swap` tries at ``x``, taking ``supp`` as the support.

    ``x[i]`` moved to ``j``, and for sign-free sets also ``-x[i]`` moved to
    ``j``, for the pair (i, j) that :func:`coordinate_swap` describes.
    """
    ranked_x = set_.ranking_values(x)
    ranked_neg_grad = set_.ranking_values(-grad)
    on_vals = ranked_x[supp]
    level = supp[on_vals == on_vals.min()]
    i = int(level[ranked_neg_grad[level].argmin()])
    comp = _complement(supp, x.size)
    j = int(comp[ranked_neg_grad[comp].argmax()])

    plus = x.copy()
    plus[j] = x[i]
    plus[i] = 0.0
    if set_.kind == "nonnegative":
        return [plus]
    minus = plus.copy()
    minus[j] = -x[i]
    return [plus, minus]


def coordinate_swap(obj, set_: SymmetricSet, x) -> np.ndarray:
    """Move the weakest support coordinate to the most promising empty one.

    Among the support coordinates with the smallest ranking value, picks the
    one whose negative-gradient ranking is smallest, and transplants its value
    to the off-support coordinate with the largest negative-gradient ranking
    (trying both signs for sign-free sets, the positive one first).  Returns
    the better swapped point only on a strict objective decrease, otherwise
    ``x`` unchanged.  All ties break toward the lowest index.
    """
    x = as_vector(x)
    supp = _proper_support(x)
    return _coordinate_swap(obj.value, set_, x, supp, obj.grad(x), obj.value(x))


def _coordinate_swap(value, set_: SymmetricSet, x: np.ndarray, supp: np.ndarray,
                     grad: np.ndarray, fx: float) -> np.ndarray:
    """:func:`coordinate_swap` at ``x``, given its support, its gradient and f(x).

    Values only the swapped points, each by one call ``value(y)``.
    """
    candidates = _swap_candidates(set_, x, grad, supp)
    f = [value(y) for y in candidates]
    if fx > min(f):
        return candidates[0] if f[0] <= f[-1] else candidates[-1]
    return x


def change_support(obj, set_: SymmetricSet, s: int, x, t: float) -> np.ndarray:
    """Exchange the weakest support block for the strongest off-support block.

    Takes the gradient step ``a = x - t*grad``, drops the support coordinates
    where the ranking of ``a`` is minimal, brings in the off-support ones where
    it is maximal (equally many, lowest indices first), and rebuilds the point
    by sub-projecting ``a`` on the edited support.  The output support always
    differs from ``supp(x)`` and has at most as many elements.
    """
    x = as_vector(x)
    if t < 0:
        raise ValueError("t must be nonnegative")
    supp = _proper_support(x)
    if supp.size > s:
        raise ValueError(f"input has {supp.size} nonzeros, exceeds sparsity level {s}")
    return _change_support(set_, x, supp, obj.grad(x), t)


def _change_support(set_: SymmetricSet, x: np.ndarray, supp: np.ndarray,
                    grad: np.ndarray, t: float) -> np.ndarray:
    """:func:`change_support` at ``x``, given its support and its gradient."""
    a = x - t * grad
    ranked = set_.ranking_values(a)

    on_vals = ranked[supp]
    drop_pool = supp[on_vals == on_vals.min()]
    comp = _complement(supp, x.size)
    off_vals = ranked[comp]
    add_pool = comp[off_vals == off_vals.max()]
    k = min(drop_pool.size, add_pool.size)

    edited = np.zeros(x.size, dtype=bool)
    edited[supp] = True
    edited[drop_pool[:k]] = False
    edited[add_pool[:k]] = True
    new_support = edited.nonzero()[0]
    return _scatter(x.size, new_support, set_.project_sub(a[new_support]))
