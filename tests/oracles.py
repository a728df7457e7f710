"""Independent reference computations used by both unit and acceptance tests."""

import numpy as np

from sparsepg import StationarityReport, brute_force_project, project_sparse, support_of


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
