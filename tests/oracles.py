"""Independent reference computations used by both unit and acceptance tests."""

import itertools

import numpy as np

from sparsepg import StationarityReport, brute_force_project, project_sparse, support_of
from sparsepg.subroutines import _swap_candidates


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


def strong_stationary_on_grid(obj, set_, s, x, t_grid, tol):
    """Reference for ``check_strong_stationary``: a certified projection at every grid step.

    Each step's projection certifies its own uniqueness, whether or not the
    step reads the flag.  At a step that stays at ``x`` and is not
    certified, every size-``s`` support is enumerated when n <= 12.  ``x``
    must be feasible (not checked).
    """
    x = np.asarray(x, dtype=np.float64)
    grad = obj.grad(x)
    fx = obj.value(x)
    general = strong = True
    worst = 0.0
    witness = None
    best_drop = 0.0
    for t in np.asarray(t_grid, dtype=np.float64):
        a = x - t * grad
        proj = project_sparse(set_, s, a, certify_uniqueness=True)
        move = float(np.linalg.norm(proj.point - x))
        worst = max(worst, move)
        if move <= tol:
            singleton = a.size <= 12 and len(brute_force_project(set_, s, a)) == 1
            if not (proj.certified_unique or singleton):
                strong = False
            continue
        strong = False
        if float(np.sum((x - a) ** 2)) > float(np.sum((proj.point - a) ** 2)) + tol:
            general = False
        drop = fx - obj.value(proj.point)
        if drop > best_drop:
            best_drop = drop
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
