"""Stationarity certificates and the support-gap stepsize machinery.

Three nested optimality conditions are checked numerically on a grid of trial
stepsizes: *general* (the point is a projection of its own gradient step),
*strong* (it is the certified unique projection), and *coordinatewise* (a
fixed point on every size-s super support of its support, decided exactly by
the one super support that fails first, plus a one-coordinate swap test).  The
support gap of a gradient step, smallest on-support minus largest off-support
ranking value, has one closed form for both set kinds, minimized in O(|S|)
evaluations.

The grid check steps on the support when it can.  At a point x with s
nonzeros on S, the entries of ``x - t*g`` off S are exactly ``-fl(t*g_j)``,
and rounding is monotone and sign-symmetric, so their largest ranking value
is exactly ``t*alpha``, alpha the largest off-support ranking value of
``-g``.  A step whose every ranking value on S beats ``t*alpha`` has S as
its strict top-s support, and its projection, distance to x and uniqueness
test follow from the s entries on S with the bits of the n-wide step; a tie,
an entry that is not finite or a point with fewer than s nonzeros takes the
n-wide projection.  Only the linear models take this path: any other
objective sees one ``project_sparse`` per grid step, the calls that a
wrapper counting or timing them expects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _complement, _norm, _proper_support, _Record, _scatter, as_vector, support_of
from .objectives import _LinearModel
from .projection import _certified_unique, _check_sparsity_level, _top_support, project_sparse
from .sets import _SCALAR_MAX, SymmetricSet, _finite_least
from .subroutines import _swap_candidates

__all__ = [
    "GapMinimum",
    "StationarityReport",
    "support_gap",
    "minimize_support_gap",
    "default_grid",
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
    is a feasible point with a strictly smaller objective value: the
    projection at the largest grid step that moves the point and lowers f.
    Below ``1/L`` every projection that moves the point lowers f, so on a
    grid below ``1/L`` that step is the largest one that moves the point.
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
    ``x_i/g_i``.  Ties in the minimizer resolve to the largest step.  A
    support of at most ``_SCALAR_MAX`` entries takes the candidates in Python
    floats, with the bits of the NumPy path.
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
    minimum = _scalar_gap_minimum if supp.size <= _SCALAR_MAX else _array_gap_minimum
    step, value = minimum(set_, x[supp], grad[supp], alpha, float(t_max))
    return GapMinimum(step=step, value=value)


def _array_gap_minimum(
    set_: SymmetricSet, xs: np.ndarray, gs: np.ndarray, alpha: float, t_max: float
) -> tuple[float, float]:
    """The largest minimizing step and the minimum of the gap at the candidate steps.

    The candidates are those of :func:`minimize_support_gap`, each kink
    clipped to [0, t_max].
    """
    rows = [np.zeros(xs.size), np.full(xs.size, t_max)]
    if set_.kind == "sign-free":
        with np.errstate(over="ignore"):  # x_i / g_i may overflow to inf, which clips to t_max
            kink = np.divide(xs, gs, out=np.zeros(xs.size), where=gs != 0)
        # a kink at or below 0 (or none, where g_i = 0) is the candidate 0 again
        rows.append(np.where(kink > 0, np.minimum(kink, t_max), 0.0))
    steps = np.stack(rows)
    vals = set_.ranking_values(xs - steps * gs) - alpha * steps
    best = vals.min()
    return float(steps[vals == best].max()), float(best)


def _scalar_gap_minimum(
    set_: SymmetricSet, xs: np.ndarray, gs: np.ndarray, alpha: float, t_max: float
) -> tuple[float, float]:
    """:func:`_array_gap_minimum` in Python floats, bit for bit, for short vectors.

    Each candidate takes the same operations in the same order: ``x_i - t*g_i``,
    the ranking value, then ``- alpha*t``.  Python's float division, like
    NumPy's, overflows to inf, which clips to ``t_max``.
    """
    sign_free = set_.kind == "sign-free"
    steps, vals = [], []
    for x_i, g_i in zip(xs.tolist(), gs.tolist()):
        candidates = (0.0, t_max)
        if sign_free:
            kink = x_i / g_i if g_i else 0.0
            candidates = (0.0, t_max, min(kink, t_max) if kink > 0 else 0.0)
        for t in candidates:
            z = x_i - t * g_i
            steps.append(t)
            vals.append((abs(z) if sign_free else z) - alpha * t)
    best = min(vals)
    return max(t for t, v in zip(steps, vals) if v == best), best


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


def check_strong_stationary(
    obj, set_: SymmetricSet, s: int, x, t_grid, tol: float
) -> StationarityReport:
    """Check the unique-projection condition on the grid.

    Strong requires, at every grid step, that the projection returns the point
    itself and that the rule of :func:`certify_unique` certifies it, one rule
    at every n.  Uniqueness is certified only at the steps whose projection
    stays within ``tol`` of the point, the only ones that read it.

    The grid is walked from its largest step down; the verdicts and
    ``worst_violation`` do not depend on the order.  The witness is the
    projection at the largest step that moves the point and strictly lowers
    f, so f is evaluated at x and then only until that step is met.  Below
    ``1/L`` the sparse projection of a gradient step strictly lowers f
    whenever it moves the point (the descent property behind L-stationarity),
    so on the solvers' grid, which ends at ``0.995/L``, one evaluation past f
    at x finds the witness.

    On a linear model, a point with s nonzeros on S takes f and g from one
    ``value_and_grad`` and steps on S.  Off S a step's largest ranking value
    is exactly ``t*alpha`` (the module docstring says why), so a step whose
    ranking values on S all beat it has S as its top-s support with no tie,
    and :func:`_screened_step` decides it from the s entries on S with no
    n-wide selection; it builds the projected n-vector alone.  A step that
    moves still forms its distance to x, the ``general`` sums and the
    witness's value over the n-vector.  A tie, an entry that is not finite
    and a point with fewer than s nonzeros take the n-wide step, which
    raises the same error at the same step.  Any other objective takes the
    n-wide step throughout, through one ``grad``, one ``value`` and one
    ``project_sparse`` per grid step, so that a wrapper counting or timing
    its calls sees each of them.
    """
    x = as_vector(x)
    _require_feasible(set_, s, x, tol)
    supp = x.nonzero()[0]
    screen = isinstance(obj, _LinearModel) and supp.size == s
    if screen:
        fx, grad = obj.value_and_grad(x)
        x_supp, g_supp = x[supp], grad[supp]
        alpha = _off_support_slope(set_, grad, supp)
        g_max = float(np.delete(np.abs(grad), supp).max())
    else:
        grad = obj.grad(x)
        fx = obj.value(x)
    general = True
    strong = True
    worst = 0.0
    witness = None
    for t in np.sort(_grid_steps(t_grid))[::-1].tolist():
        a = step = None
        if screen:
            step = _screened_step(set_, s, x, supp, x_supp, g_supp, t, alpha, g_max, tol)
        if step is None:
            a = x - t * grad
            proj = project_sparse(set_, s, a)
            move = _norm(proj.point - x)
            step = proj.point, move, move <= tol and _certified_unique(set_, s, a, proj)
        point, move, certified = step
        worst = max(worst, move)
        if move <= tol:
            strong = strong and certified
            continue
        strong = False
        if general:
            a = x - t * grad if a is None else a
            if float(((x - a) ** 2).sum()) > float(((point - a) ** 2).sum()) + tol:
                general = False
        if witness is None and obj.value(point) < fx:
            witness = point
    return StationarityReport(
        general=general,
        strong=strong,
        coordinatewise=None,
        worst_violation=worst,
        witness=witness,
    )


def _screened_step(
    set_: SymmetricSet, s: int, x: np.ndarray, supp: np.ndarray, x_supp: np.ndarray,
    g_supp: np.ndarray, t: float, alpha: float, g_max: float, tol: float,
) -> tuple[np.ndarray, float, bool] | None:
    """The projection of ``x - t*g``, its distance to x and its certificate, from S alone.

    ``x`` holds ``x_supp`` on its s nonzeros S; ``alpha`` is the largest
    off-support ranking value of ``-g`` and ``g_max`` the largest ``|g_j|``
    off S, so ``t*alpha`` and ``t*g_max`` are exactly the step's largest
    ranking value and absolute entry off S.  The certificate is the test of
    :func:`certify_unique`, run only when the step stays within ``tol``.
    None, for the n-wide step, on a tie or an entry that is not finite.
    """
    a_supp = x_supp - t * g_supp
    lo = _finite_least(set_.ranking_values(a_supp))
    off = t * alpha
    # lo is NaN unless every entry on S is finite; t*g_max bounds those off S
    if not (lo > off and math.isfinite(t * g_max)):
        return None
    values = set_._project(a_supp)
    point = _scatter(x.size, supp, values)
    # equal values move by an exact 0; ddot groups its terms by position, so
    # any other move is summed over the n-vector
    move = 0.0 if values.tobytes() == x_supp.tobytes() else _norm(point - x)
    if move > tol:
        return point, move, False
    margin = 1e-10 * (1.0 + max(float(abs(a_supp).max()), t * g_max))
    return point, move, bool(np.count_nonzero(values) < s or lo > off + margin)


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
