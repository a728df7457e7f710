"""Stationarity certificates and the support-gap stepsize machinery.

Three nested optimality conditions are checked numerically on a grid of trial
stepsizes: *general* (the point is a projection of its own gradient step),
*strong* (it is the unique projection), and *coordinatewise* (a fixed point on
every size-s super support of its support, decided exactly by the one super
support that fails first, plus a one-coordinate swap test).  The support gap
of a gradient step is the smallest on-support ranking value minus the largest
off-support one; its minimum over a stepsize interval has a closed form
costing only the support size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DegenerateSupportError, _as_dict, _complement, _norm, as_vector, support_of
from .projection import (_check_sparsity_level, _top_support, brute_force_project,
                         certify_unique, project_sparse)
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

# brute-force uniqueness confirmation is attempted only at this size or below
_BRUTE_N_LIMIT = 12


@dataclass(frozen=True)
class GapMinimum:
    """Minimum of the support gap over a stepsize interval.

    ``step`` is the largest minimizer among the evaluated candidates and
    ``value`` the minimum gap.
    """

    step: float
    value: float


@dataclass(frozen=True)
class StationarityReport:
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

    def to_dict(self) -> dict:
        return _as_dict(self)


def default_grid(t_max: float, points: int = 50) -> np.ndarray:
    """Uniform stepsize grid over [0, t_max] including both endpoints."""
    if not (t_max > 0 and points >= 2):
        raise ValueError("a stepsize grid needs t_max > 0 and at least 2 points")
    return np.linspace(0.0, t_max, points)


def _grid_steps(t_grid) -> np.ndarray:
    """``t_grid`` as float64 steps, checked to be nonnegative with one of them positive."""
    ts = np.asarray(t_grid, dtype=np.float64)
    if not ((ts > 0).any() and (ts >= 0).all()):
        raise ValueError("t_grid needs nonnegative steps, at least one positive step")
    return ts


def support_gap(set_: SymmetricSet, x, grad, t: float) -> float:
    """Smallest on-support minus largest off-support ranking value of ``x - t*grad``."""
    x = as_vector(x)
    grad = as_vector(grad, x.size)
    if t < 0:
        raise ValueError("t must be nonnegative")
    supp = support_of(x)
    if supp.size == 0 or supp.size == x.size:
        raise DegenerateSupportError("support gap needs 0 < ||x||_0 < n")
    return _support_gap(set_, x, grad, supp, _complement(supp, x.size), t)


def _support_gap(set_: SymmetricSet, x: np.ndarray, grad: np.ndarray, supp: np.ndarray,
                 off: np.ndarray, t: float) -> float:
    """:func:`support_gap` of checked vectors, with the support and its complement."""
    ranked = set_.ranking_values(x - t * grad)
    return float(ranked[supp].min() - ranked[off].max())


def minimize_support_gap(set_: SymmetricSet, x, grad, t_max: float) -> GapMinimum:
    """Minimize the support gap over [0, t_max] in O(||x||_0) evaluations.

    Empty or full support returns the convention ``(step=t_max, value=0)``.
    For nonnegative sets the gap is concave in t, so the endpoints suffice; for
    sign-free sets each on-support coordinate contributes a convex
    piecewise-linear curve minimized over {0, kink, t_max}.  Ties in the
    minimizer resolve to the largest step.
    """
    x = as_vector(x)
    grad = as_vector(grad, x.size)
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    supp = support_of(x)
    if supp.size == 0 or supp.size == x.size:
        return GapMinimum(step=t_max, value=0.0)

    off = _complement(supp, x.size)
    if set_.kind == "nonnegative":
        g0 = _support_gap(set_, x, grad, supp, off, 0.0)
        g1 = _support_gap(set_, x, grad, supp, off, float(t_max))
        if g1 <= g0:
            return GapMinimum(step=float(t_max), value=g1)
        return GapMinimum(step=0.0, value=g0)

    alpha = float(abs(grad[off]).max())
    best_val = math.inf
    best_step = 0.0
    for i in supp:
        xi = float(x[i])
        gi = float(grad[i])
        cands = [0.0, float(t_max)]
        if gi != 0.0:
            cands.append(min(max(xi / gi, 0.0), float(t_max)))
        for t in cands:
            val = abs(xi - t * gi) - alpha * t
            if val < best_val or (val == best_val and t > best_step):
                best_val = val
                best_step = t
    return GapMinimum(step=best_step, value=best_val)


def _require_feasible(set_: SymmetricSet, s: int, x: np.ndarray, tol: float) -> np.ndarray:
    supp_tol = 1e-12 * (1.0 + float(np.max(np.abs(x))) if x.size else 1.0)
    supp = support_of(x, supp_tol)
    if supp.size > s:
        raise ValueError(f"point has {supp.size} nonzeros, exceeds sparsity level {s}")
    if not set_.contains(x, tol):
        raise ValueError("point is not in the constraint set within tolerance")
    return supp


def check_general_stationary(obj, set_: SymmetricSet, s: int, x, t_grid, tol: float) -> bool:
    """True if x stays in the projection set of its own gradient step on the whole grid."""
    return check_strong_stationary(obj, set_, s, x, t_grid, tol).general


def _confirmed_singleton(set_: SymmetricSet, s: int, a: np.ndarray) -> bool:
    if a.size > _BRUTE_N_LIMIT:
        return False
    return len(brute_force_project(set_, s, a)) == 1


def check_strong_stationary(
    obj, set_: SymmetricSet, s: int, x, t_grid, tol: float
) -> StationarityReport:
    """Check the unique-projection condition on the grid.

    Strong requires, at every grid step, that the projection returns the point
    itself and that uniqueness is certified (or confirmed exhaustively at very
    small dimension).  Uniqueness is certified only at the steps whose
    projection stays within ``tol`` of the point, the only ones that read it.
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
        proj = project_sparse(set_, s, a, certify_uniqueness=False)
        move = _norm(proj.point - x)
        worst = max(worst, move)
        if move <= tol:
            if not (certify_unique(set_, s, a, proj) or _confirmed_singleton(set_, s, a)):
                strong = False
            continue
        strong = False
        if float(((x - a) ** 2).sum()) > float(((proj.point - a) ** 2).sum()) + tol:
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
    _check_sparsity_level(s, x.size)
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
