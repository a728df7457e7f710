"""Stationarity certificates and the support-gap stepsize machinery.

Three nested optimality conditions are checked numerically on a grid of trial
stepsizes: *general* (the point is a projection of its own gradient step),
*strong* (it is the certified unique projection), and *coordinatewise* (a
fixed point on every size-s super support of its support, decided exactly by
the one super support that fails first, plus a one-coordinate swap test).  The
support gap of a gradient step, smallest on-support minus largest off-support
ranking value, has one closed form for both set kinds, minimized in O(|S|)
evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _complement, _norm, _proper_support, _Record, as_vector, support_of
from .projection import _check_sparsity_level, _top_support, certify_unique, project_sparse
from .sets import SymmetricSet
from .subroutines import _swap_candidates

__all__ = [
    "GapMinimum",
    "StationarityReport",
    "support_gap",
    "minimize_support_gap",
    "default_grid",
    "check_general_stationary",
    "check_strong_stationary",
    "check_coordinatewise",
]

@dataclass(frozen=True)
class GapMinimum:
    """Minimum of the support gap over a stepsize interval.

    ``step`` is the largest minimizer among the evaluated candidates and
    ``value`` the minimum gap.
    """

    step: float
    value: float


@dataclass(frozen=True)
class StationarityReport(_Record):
    """Outcome of the stationarity checks at a given point.

    ``coordinatewise`` is None when that condition was not evaluated.
    ``worst_violation`` is the largest distance between the point and the
    projection of any gradient step on the grid.  ``witness``, when present,
    is a feasible point with a strictly smaller objective value.
    """

    general: bool
    strong: bool
    coordinatewise: bool | None
    worst_violation: float
    witness: np.ndarray | None


def default_grid(t_max: float, points: int = 50) -> np.ndarray:
    """Uniform stepsize grid over [0, t_max] including both endpoints."""
    if not (t_max > 0 and points >= 2):
        raise ValueError("a stepsize grid needs t_max > 0 and at least 2 points")
    if not math.isfinite(t_max):
        raise ValueError("t_max must be finite")
    return np.linspace(0.0, t_max, points)


def _grid_steps(t_grid) -> np.ndarray:
    """``t_grid`` as float64 steps, checked to be nonnegative with one of them positive."""
    ts = np.asarray(t_grid, dtype=np.float64)
    if not ((ts > 0).any() and (ts >= 0).all()):
        raise ValueError("t_grid needs nonnegative steps, at least one positive step")
    return ts


def _off_support_slope(set_: SymmetricSet, grad: np.ndarray, supp: np.ndarray) -> float:
    """``alpha``, the largest ranking value of ``-grad`` off ``supp``: the gap falls by alpha*t."""
    # -grad is a new array, and masking S in it costs half a gather of the rest
    ranked = set_.ranking_values(-grad)
    ranked[supp] = -np.inf
    return float(ranked.max())


def support_gap(set_: SymmetricSet, x, grad, t: float) -> float:
    """Smallest on-support minus largest off-support ranking value of ``x - t*grad``."""
    x = as_vector(x)
    grad = as_vector(grad, x.size)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    supp = _proper_support(x)
    alpha = _off_support_slope(set_, grad, supp)
    return float(set_.ranking_values(x[supp] - t * grad[supp]).min() - alpha * t)


def minimize_support_gap(set_: SymmetricSet, x, grad, t_max: float) -> GapMinimum:
    """Minimize the support gap over [0, t_max] in O(||x||_0) evaluations.

    Empty or full support returns the convention ``(step=t_max, value=0)``.
    x is zero off its support S, so for both set kinds the gap is
    ``min ranking(x_S - t*g_S) - alpha*t``, alpha the largest off-support
    ranking value of ``-g``.  Each on-support curve is linear on nonnegative
    sets, with candidates 0 and ``t_max``; sign-free sets add its clipped kink
    ``x_i/g_i``.  Ties in the minimizer resolve to the largest step.
    """
    x = as_vector(x)
    grad = as_vector(grad, x.size)
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if not math.isfinite(t_max):
        raise ValueError("t_max must be finite")
    supp = support_of(x)
    if supp.size == 0 or supp.size == x.size:
        return GapMinimum(step=t_max, value=0.0)

    alpha = _off_support_slope(set_, grad, supp)
    xs, gs = x[supp], grad[supp]
    rows = [np.zeros(supp.size), np.full(supp.size, float(t_max))]
    if set_.kind == "sign-free":
        with np.errstate(over="ignore"):  # x_i / g_i may overflow to inf, which clips to t_max
            kink = np.divide(xs, gs, out=np.zeros(supp.size), where=gs != 0)
        # a kink at or below 0 (or none, where g_i = 0) is the candidate 0 again
        rows.append(np.where(kink > 0, np.minimum(kink, t_max), 0.0))
    steps = np.stack(rows)
    vals = set_.ranking_values(xs - steps * gs) - alpha * steps
    best = vals.min()
    return GapMinimum(step=float(steps[vals == best].max()), value=float(best))


def _require_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _require_feasible(set_: SymmetricSet, s: int, x: np.ndarray, tol: float) -> np.ndarray:
    """The support of ``x`` counted with a tiny tolerance; a ValueError unless s and x are valid."""
    _require_tol(tol)
    _check_sparsity_level(s, x.size)
    supp_tol = 1e-12 * (1.0 + float(np.max(np.abs(x))))
    supp = support_of(x, supp_tol)
    if supp.size > s:
        raise ValueError(f"point has {supp.size} nonzeros, exceeds sparsity level {s}")
    if not set_.contains(x, tol):
        raise ValueError("point is not in the constraint set within tolerance")
    return supp


def check_general_stationary(obj, set_: SymmetricSet, s: int, x, t_grid, tol: float) -> bool:
    """True if x stays in the projection set of its own gradient step on the whole grid."""
    return check_strong_stationary(obj, set_, s, x, t_grid, tol).general


def check_strong_stationary(
    obj, set_: SymmetricSet, s: int, x, t_grid, tol: float
) -> StationarityReport:
    """Check the unique-projection condition on the grid.

    Strong requires, at every grid step, that the projection returns the point
    itself and that :func:`certify_unique` certifies it, by one rule at every
    n.  Uniqueness is certified only at the steps whose projection stays
    within ``tol`` of the point, the only ones that read it.
    When some gradient step projects to a different point, the one with the
    largest objective drop is reported as witness.
    """
    x = as_vector(x)
    _require_feasible(set_, s, x, tol)
    grad = obj.grad(x)
    fx = obj.value(x)
    general = True
    strong = True
    worst = 0.0
    witness = None
    best_drop = 0.0
    for t in _grid_steps(t_grid):
        a = x - t * grad
        proj = project_sparse(set_, s, a)
        move = _norm(proj.point - x)
        worst = max(worst, move)
        if move <= tol:
            if not certify_unique(set_, s, a, proj):
                strong = False
            continue
        strong = False
        if general and float(((x - a) ** 2).sum()) > float(((proj.point - a) ** 2).sum()) + tol:
            general = False
        drop = fx - obj.value(proj.point)
        if drop > best_drop:
            best_drop = drop
            witness = proj.point
    return StationarityReport(
        general=general,
        strong=strong,
        coordinatewise=None,
        worst_violation=worst,
        witness=witness,
    )


def check_coordinatewise(obj, set_: SymmetricSet, s: int, x, t_grid, tol: float) -> bool:
    """Per-support fixed-point condition plus the one-coordinate swap inequality.

    Part one asks that every size-``s`` super support T of the support S of x
    satisfy ``||x_T - P(x_T - t*g_T)|| <= tol``.  On every catalog set this
    splits into a condition on S and one inequality per off-support j on the
    ranking value of ``-g_j`` (``full``: g_j = 0; ``simplex``: g_j >= lambda),
    so only T = S plus the ``s - |S|`` largest of those values is checked, and
    only at the smallest positive grid step, since ``||x - P(x - t*d)||`` does
    not decrease in t.  Part two tries the swap of :func:`coordinate_swap` on
    the support counted with the feasibility tolerance, and requires no
    objective improvement beyond ``tol``.
    """
    x = as_vector(x)
    supp = _require_feasible(set_, s, x, tol)
    ts = _grid_steps(t_grid)
    t = float(ts[ts > 0].min())
    grad = obj.grad(x)

    worst = supp
    if supp.size < s:
        off = _complement(supp, x.size)
        extra = off[_top_support(set_.ranking_values(-grad[off]), s - supp.size)]
        worst = np.union1d(supp, extra)
    if _norm(x[worst] - set_.project_sub(x[worst] - t * grad[worst])) > tol:
        return False

    if supp.size == 0:
        return True
    candidates = _swap_candidates(set_, x, grad, supp)
    fx = obj.value(x)
    return fx <= min(obj.value(y) for y in candidates) + tol
