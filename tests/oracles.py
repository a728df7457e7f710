"""Independent reference computations used by both unit and acceptance tests.

``brute_force_project``, the enumerator of every support that checks the
sparse projection and its uniqueness certificate, lives here rather than in
the package, since no solve calls it.
"""

import itertools
import math

import numpy as np

from sparsepg import SparseProjection, StationarityReport, project_sparse, support_of
from sparsepg.core import _scatter, as_vector
from sparsepg.projection import _check_sparsity_level
from sparsepg.subroutines import _swap_candidates, change_support, coordinate_swap

BRUTE_MAX_N = 20


class PublicProtocol:
    """An objective seen only through its public calls.

    The solvers take their dense steps and the certificate its n-wide grid
    steps for it, the reference paths of the linear models' private ones.
    """

    def __init__(self, inner):
        self._inner = inner
        self.dim = inner.dim
        self.lipschitz = inner.lipschitz

    def value(self, x):
        return self._inner.value(x)

    def grad(self, x):
        return self._inner.grad(x)

    def value_and_grad(self, x):
        return self._inner.value_and_grad(x)


def brute_force_project(set_, s, x):
    """Testing oracle: enumerate every size-``s`` support and keep all minimizers.

    Returns the distinct points attaining the minimal squared distance within
    relative tolerance 1e-10.  Guarded to small instances.  A support T scores
    ``||P(x_T) - x_T||^2 + ||x off T||^2``, the squared distance of its point
    from ``x``.  The supports are visited in ascending order of a lower bound
    on the score, ``||x off T||^2`` plus, on nonnegative sets, the squared
    negative part of ``x_T`` (up to rounding, far below the tolerance), and
    the visit stops once the bound passes the tolerance of the best score so
    far.  Points are built only for the supports within the tolerance.
    """
    x = as_vector(x)
    n = x.size
    _check_sparsity_level(s, n)
    if n > BRUTE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTE_MAX_N}, got n={n}")

    count = math.comb(n, s)
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), s))
    supports = np.fromiter(combos, dtype=np.intp, count=count * s).reshape(count, s)
    off = np.ones((count, n), dtype=bool)
    off[np.arange(count)[:, None], supports] = False
    sq = x * x
    off_sq = (off * sq).sum(axis=1)
    floors = off_sq
    if set_.kind == "nonnegative":  # P(x_T) >= 0 moves each negative entry to 0 or beyond
        floors = np.where(off, sq, np.minimum(x, 0.0) ** 2).sum(axis=1)
    order = np.argsort(floors, kind="stable").tolist()
    floors, off_sq = floors.tolist(), off_sq.tolist()
    on = x[supports]  # row i holds x on support i
    scores = [math.inf] * count
    points = {}
    best = math.inf
    for i in order:
        if floors[i] > best + 1e-10 * (1.0 + best):
            break
        points[i] = set_._project(on[i])
        moved = points[i] - on[i]
        scores[i] = float(moved @ moved) + off_sq[i]
        best = min(best, scores[i])

    cutoff = best + 1e-10 * (1.0 + best)
    winners = []
    for i in sorted(i for i in points if scores[i] <= cutoff):
        point = _scatter(n, supports[i], points[i])
        if not any(np.allclose(point, w.point, rtol=0.0, atol=1e-12) for w in winners):
            winners.append(SparseProjection(point, supports[i]))
    return winners


def gap_on_grid(set_, x, grad, t_max, base_points=10_000):
    """Dense evaluation of the support gap straight from its definition.

    Uses ``base_points`` uniform steps plus the breakpoints of the piecewise
    linear gap (the per-coordinate kinks x_i/g_i of a sign-free set), so the
    true minimum is attained on the grid.  Returns (steps, values).
    """
    ts = np.linspace(0.0, t_max, base_points)
    supp = support_of(x)
    if set_.kind == "sign-free":
        g_supp = grad[supp]
        x_supp = x[supp]
        nz = g_supp != 0
        kinks = np.clip(x_supp[nz] / g_supp[nz], 0.0, t_max)
        ts = np.concatenate([ts, kinks])
    shifted = x[None, :] - ts[:, None] * grad[None, :]
    ranked = np.abs(shifted) if set_.kind == "sign-free" else shifted
    mask = np.zeros(x.size, dtype=bool)
    mask[supp] = True
    vals = ranked[:, mask].min(axis=1) - ranked[:, ~mask].max(axis=1)
    return ts, vals


def gap_minimum_by_loop(set_, x, grad, t_max):
    """Reference for ``minimize_support_gap``, as (step, value).

    Scans the support in index order, each coordinate's steps 0 and
    ``t_max``, plus its clipped kink on a sign-free set, and keeps a step on a
    strictly smaller value or on an equal value at a larger step.  A
    coordinate's value at t is its ranking value of ``x_i - t*g_i`` (the
    absolute value on a sign-free set) minus ``alpha*t``, with ``alpha`` the
    largest off-support ranking value of ``-g``.  ``x`` needs 0 < ||x||_0 < n.
    """
    supp = support_of(x)
    sign_free = set_.kind == "sign-free"
    off = -np.delete(grad, supp)
    alpha = float((abs(off) if sign_free else off).max())
    best_val, best_step = np.inf, 0.0
    for i in supp:
        xi, gi = float(x[i]), float(grad[i])
        cands = [0.0, float(t_max)]
        if sign_free and gi != 0.0:
            cands.append(min(max(xi / gi, 0.0), float(t_max)))
        for t in cands:
            shifted = xi - t * gi
            val = (abs(shifted) if sign_free else shifted) - alpha * t
            if val < best_val or (val == best_val and t > best_step):
                best_val, best_step = val, t
    return best_step, best_val


def unique_by_support(set_, s, x, proj):
    """Reference for ``certify_unique``, straight from the support of ``proj.point``.

    Certified when the point has fewer than ``s`` nonzeros, or when the
    smallest ranking value of ``x`` on its support beats the largest one off
    it by more than ``1e-10 * (1 + max|x|)``.
    """
    supp = support_of(proj.point)
    if supp.size < s:
        return True
    ranked = set_.ranking_values(x)
    off = np.delete(ranked, supp)
    return float(ranked[supp].min()) > float(off.max()) + 1e-10 * (1.0 + float(abs(x).max()))


def strong_stationary_on_grid(obj, set_, s, x, t_grid, tol):
    """Reference for ``check_strong_stationary``: a certified projection at every grid step.

    Each step certifies the uniqueness of its projection, whether or not the
    step reads the certificate; a step that stays at ``x`` counts toward
    strong only when certified, at every n.  The witness is the projection at
    the largest grid step that moves the point and strictly lowers f, found by
    evaluating f at every moving step.  ``x`` must be feasible (not checked).
    """
    x = np.asarray(x, dtype=np.float64)
    grad = obj.grad(x)
    fx = obj.value(x)
    general = strong = True
    worst = 0.0
    witness = None
    witness_step = -np.inf
    for t in np.asarray(t_grid, dtype=np.float64):
        a = x - t * grad
        proj = project_sparse(set_, s, a)
        unique = unique_by_support(set_, s, a, proj)
        move = float(np.linalg.norm(proj.point - x))
        worst = max(worst, move)
        if move <= tol:
            if not unique:
                strong = False
            continue
        strong = False
        if float(np.sum((x - a) ** 2)) > float(np.sum((proj.point - a) ** 2)) + tol:
            general = False
        if obj.value(proj.point) < fx and t > witness_step:
            witness_step = t
            witness = proj.point
    return StationarityReport(general, strong, None, worst, witness)


def coordinatewise_by_enumeration(obj, set_, s, x, t_grid, tol):
    """Reference for ``check_coordinatewise``: every super support at every positive step.

    The fixed-point half passes when, at some positive grid step, every
    size-``s`` super support T of the support of ``x`` (counted with the
    feasibility tolerance) satisfies ``||x_T - P(x_T - t*g_T)|| <= tol``; the
    swap half is that of ``check_coordinatewise``.  ``x`` must be feasible
    (not checked).
    """
    x = np.asarray(x, dtype=np.float64)
    grad = obj.grad(x)
    supp = support_of(x, 1e-12 * (1.0 + float(np.abs(x).max())))
    free = np.setdiff1d(np.arange(x.size), supp)
    supports = [
        np.sort(np.concatenate([supp, np.array(extra, dtype=np.intp)]))
        for extra in itertools.combinations(free, s - supp.size)
    ]

    def fixed_at(t):
        return all(
            np.linalg.norm(x[T] - set_.project_sub(x[T] - t * grad[T])) <= tol for T in supports
        )

    if not any(fixed_at(t) for t in np.asarray(t_grid, dtype=np.float64) if t > 0):
        return False
    if supp.size == 0:
        return True
    fx = obj.value(x)
    return fx <= min(obj.value(y) for y in _swap_candidates(set_, x, grad, supp)) + tol


def simplex_threshold_reference(x, r):
    """Projection of ``x`` onto {z >= 0, sum(z) = r} by NumPy sort-and-threshold.

    The sparsepg implementation before short vectors moved to Python floats;
    it raises ``IndexError`` when an entry is so large that ``r`` is lost in
    rounding.
    """
    u = np.sort(x)[::-1]
    css = u.cumsum()
    k = np.arange(1, x.size + 1)
    rho = (u * k > css - r).nonzero()[0][-1]
    lam = (css[rho] - r) / (rho + 1.0)
    return np.maximum(x - lam, 0.0)


def replay_iterates(obj, set_, s, x0, records):
    """The iterates x_1, x_2, ... of a PG or NPG trace, rebuilt from its step kinds and stepsizes.

    Each step repeats its move from the previous iterate with the public
    functions: a swap is ``coordinate_swap``, a support change accepting the
    edited point is ``change_support`` of the projection at the record's
    stepsize, and every other step is that projection of a dense gradient
    step.
    """
    x = np.asarray(x0, dtype=np.float64)
    iterates = []
    for rec in records:
        if rec.step_kind == "swap":
            x = coordinate_swap(obj, set_, x)
        else:
            x = project_sparse(set_, s, x - rec.stepsize * obj.grad(x)).point
            if rec.step_kind == "support_change_accept_hx":
                x = change_support(obj, set_, s, x, rec.stepsize)
        iterates.append(x)
    return iterates
