"""Stationarity certificates and the support-gap stepsize machinery.

Three nested optimality conditions are checked numerically on a grid of trial
stepsizes: *general* (the point is a projection of its own gradient step),
*strong* (it is the certified unique projection), and *coordinatewise* (a
fixed point on every size-s super support of its support, decided exactly by
the one super support that fails first, plus a one-coordinate swap test).  The
support gap of a gradient step, smallest on-support minus largest off-support
ranking value, has one closed form for both set kinds, minimized in O(|S|)
evaluations.

The grid check walks the support when it can.  At a point x with s
nonzeros on S, the entries of ``x - t*g`` off S are exactly ``-fl(t*g_j)``,
and rounding is monotone and sign-symmetric, so their largest ranking value
is exactly ``t*alpha``, alpha the largest off-support ranking value of
``-g``.  Every grid step's entries on S are formed in one pass, as one
k-by-s array.  A row whose every ranking value beats ``t*alpha`` has S as
its strict top-s support, and its projection and uniqueness test follow
from its s entries with the bits of the n-wide step.  Off S both ``general``
sums add the same computed terms ``fl(fl(t*g_j)^2)``, so they differ only on
S, and the classical bound on floating-point sums (each within gamma_{n-1}
of its exact value; Higham 2002, section 4.2) decides ``general`` from S
wherever the difference lies outside a band around ``tol``; one n-wide
``g_off . g_off`` bounds the part off S.  A moving step still sums its
distance to x over the n-vector, which the bits of ``worst_violation``
need.  A step inside the band, a tie, an entry that is not finite or a
point with fewer than s nonzeros takes the n-wide code, at its place in the
descending walk.  Only the linear models take this path: any other
objective sees one ``project_sparse`` per grid step, the calls that a
wrapper counting or timing them expects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _complement, _norm, _proper_support, _Record, _scatter, as_vector, support_of
from .objectives import _LinearModel
from .projection import (
    _certified_unique, _check_sparsity_level, _clears_margin, _top_support, project_sparse,
)
from .sets import _SCALAR_MAX, SymmetricSet
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
    ``value_and_grad`` and forms every step on S in one pass, as one k-by-s
    array (:class:`_SupportGrid`).  Off S a step's largest ranking value is
    exactly ``t*alpha`` (the module docstring says why), so a step whose
    ranking values on S all beat it has S as its top-s support with no tie,
    and is projected and certified from its row alone.  A step that moves
    still sums its distance to x over the n-vector, in one reused buffer,
    and decides ``general`` from S wherever the rounding band of the two
    n-wide sums lies clear of ``tol``; the projected n-vector is built only
    while the witness is sought or inside that band, where the n-wide sums
    decide.  A tie, an entry that is not finite and a point with fewer than
    s nonzeros take the n-wide step at its place in the walk, which raises
    the same error at the same step.  Any other objective takes the n-wide
    step throughout, through one ``grad``, one ``value`` and one
    ``project_sparse`` per grid step, so that a wrapper counting or timing
    its calls sees each of them.
    """
    x = as_vector(x)
    _require_feasible(set_, s, x, tol)
    ts = np.sort(_grid_steps(t_grid))[::-1]
    supp = x.nonzero()[0]
    grid = None
    if isinstance(obj, _LinearModel) and supp.size == s:
        fx, grad = obj.value_and_grad(x)
        grid = _SupportGrid(set_, s, x, supp, grad, ts, tol)
    else:
        grad = obj.grad(x)
        fx = obj.value(x)
    general = True
    strong = True
    worst = 0.0
    witness = None
    for i, t in enumerate(ts.tolist()):
        step = None if grid is None else grid.step(i, t)
        if step is None:
            a = x - t * grad
            proj = project_sparse(set_, s, a)
            point = proj.point
            move = _norm(point - x)
            certified = move <= tol and _certified_unique(set_, s, a, proj)
        else:
            values, move, certified = step
            a = point = None
        worst = max(worst, move)
        if move <= tol:
            strong = strong and certified
            continue
        strong = False
        if general:
            holds = None if step is None else grid.general(i, values)
            if holds is None:
                point = _scatter(x.size, supp, values) if point is None else point
                a = x - t * grad if a is None else a
                holds = not float(((x - a) ** 2).sum()) > float(((point - a) ** 2).sum()) + tol
            general = holds
        if witness is None:
            point = _scatter(x.size, supp, values) if point is None else point
            if obj.value(point) < fx:
                witness = point
    return StationarityReport(
        general=general,
        strong=strong,
        coordinatewise=None,
        worst_violation=worst,
        witness=witness,
    )


# the unit roundoff of float64, and its smallest subnormal, which bounds the
# absolute error of an operation that underflows
_UNIT = 2.0**-53
_TINY = 2.0**-1074


class _SupportGrid:
    """Every grid step of a point with s nonzeros on S, formed on S in one pass.

    Row i of ``a`` is ``x_S - t_i*g_S`` for the i-th step of the descending
    grid ``ts``, with the bits of the n-wide step on S.  ``alpha`` is the
    largest off-support ranking value of ``-g`` and ``g_max`` the largest
    ``|g_j|`` off S, so ``t*alpha`` and ``t*g_max`` are exactly the step's
    largest ranking value and absolute entry off S.  The screen, the bounds
    and the sums on S are taken for all rows at once with floating-point
    warnings off: a row they cannot decide (an entry that is not finite, a
    sum that overflows) goes to the n-wide code, which warns or raises as
    it always did.  A row is projected when the walk reaches it.
    """

    def __init__(self, set_: SymmetricSet, s: int, x: np.ndarray, supp: np.ndarray,
                 grad: np.ndarray, ts: np.ndarray, tol: float):
        n = x.size
        self.set_, self.s, self.supp, self.tol = set_, s, supp, tol
        self.x_supp = x[supp]
        self.x_bytes = self.x_supp.tobytes()
        rest = np.delete(grad, supp)
        alpha = _off_support_slope(set_, grad, supp)
        self.g_max = g_max = float(abs(rest).max())
        # the n-wide sums each lie within gamma_{n-1} of their exact values
        # (Higham 2002, section 4.2); the band below is 8 gamma_{n+2} wide,
        # which also covers the sums on S, the bound on the sum off S and
        # the rounding of the test itself
        gamma = (n + 2) * _UNIT / (1.0 - (n + 2) * _UNIT)
        with np.errstate(over="ignore", invalid="ignore"):
            self.a = a = self.x_supp - ts[:, None] * grad[supp]
            ranked = set_.ranking_values(a)
            lo = ranked.min(axis=1)
            off = ts * alpha
            self.screened = (np.isfinite(a).all(axis=1) & (lo > off)
                             & np.isfinite(ts * g_max)).tolist()
            self.lo, self.off = lo.tolist(), off.tolist()
            self.a_max = abs(a).max(axis=1).tolist()
            # off S both n-wide sums hold the same terms fl(fl(t*g_j)^2), at
            # most (1 + u)^3 t^2 g_j^2 each, plus a few smallest subnormals
            # where a product underflows; one product g_off . g_off bounds
            # their sum for every row.  t*t underflows below 1e-154, where
            # t^2 g_off may still be large, so a step below 1 takes t*(t*g_off):
            # an underflow there, scaled by t < 1, adds at most a subnormal
            g_off = float(rest.dot(rest)) + n * _TINY
            t2g = np.where(ts < 1.0, ts * (ts * g_off), ts * ts * g_off)
            w_hi = t2g * (1.0 + 8.0 * gamma) + 4 * n * _TINY
            d = self.x_supp - a
            self.u = (d * d).sum(axis=1).tolist()
        self.scale, self.slack = 8.0 * gamma, (2.0 * w_hi + tol).tolist()
        self.diff = np.zeros(n)

    def step(self, i: int, t: float) -> tuple[np.ndarray, float, bool] | None:
        """Row i's projected values on S, its distance to x and its certificate.

        None, for the n-wide step, on a tie or an entry that is not finite.
        The certificate is the test of :func:`certify_unique`, run only when
        the step stays within ``tol``.
        """
        if not self.screened[i]:
            return None
        values = self.set_._project(self.a[i])
        # equal values move by an exact 0; ddot groups its terms by position,
        # so any other move is summed over the n-vector
        if values.tobytes() == self.x_bytes:
            move = 0.0
        else:
            self.diff[self.supp] = values - self.x_supp
            move = _norm(self.diff)
        if move > self.tol:
            return values, move, False
        a_max = max(self.a_max[i], t * self.g_max)
        certified = np.count_nonzero(values) < self.s or _clears_margin(self.lo[i], self.off[i], a_max)
        return values, move, bool(certified)

    def general(self, i: int, values: np.ndarray) -> bool | None:
        """The ``general`` test of a moving row, decided from S, or None inside its band.

        The n-wide test compares ``X = sum (x - a)^2`` with ``P = sum (p -
        a)^2 + tol``.  Off S, x and p vanish, so both sums add the same terms
        there, and ``X - P`` is ``U - V`` on S up to the rounding of the two
        n-wide sums.  Where ``U - V`` lies farther from ``tol`` than the
        band, the n-wide comparison must say the same.
        """
        if values.base is self.a:
            # the projection returned its row, so p - a is an exact 0 on S
            v = 0.0
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                d = values - self.a[i]
                v = float(d.dot(d))
        u = self.u[i]
        band = self.scale * (u + v + self.slack[i])
        if u - v > self.tol + band:
            return False
        if u - v < self.tol - band:
            return True
        return None


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
