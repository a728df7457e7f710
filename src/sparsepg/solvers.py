"""Projected-gradient solvers for sparsity-constrained problems.

``pg_solve`` is the constant-stepsize baseline.  ``npg_solve`` interleaves
three moves on a fixed schedule: a coordinate swap every ``N`` iterations, a
support change when the minimized support gap is small, and otherwise a
spectral-stepsize projected gradient step accepted by a nonmonotone
backtracking test against the worst of the last ``M+1`` objective values.

On the package's linear-model objectives with ``s`` at most a tenth of n,
``pg_solve`` screens each step.  Once the iterate has ``s`` nonzeros on a
support S, the gradient entries off S move by at most ``||a_j|| * ||v -
v_ref||`` from those of the last dense gradient, where ``v`` is the loss
derivative in ``A @ x``.  When that bound proves that the top-s support of
``x - t * g`` is S, with no ties, the step projects on S alone: it needs only
the gradient entries on S and costs O(m * s), where a dense step costs one
``A.T @ v`` and an n-wide selection.  Screened and dense steps give the same
bits, because the objectives take the gradient entries on the support from
the support columns on every path.  Any other objective takes the dense step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import _as_dict, _norm, as_vector, support_of
from .objectives import _DENSE_SHARE, _LinearModel
from .projection import project_sparse
from .sets import SymmetricSet
from .stationarity import (
    StationarityReport,
    check_strong_stationary,
    default_grid,
    minimize_support_gap,
)
from .subroutines import change_support, coordinate_swap

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "IterateTrace",
    "bb_initial_stepsize",
    "max_backtracks",
    "pg_solve",
    "npg_solve",
    "benchmark_config",
    "default_stepsize",
]


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the nonmonotone solver.

    ``tbar`` bounds the support-gap stepsize search and must stay below the
    inverse Lipschitz constant; ``c1``/``c2`` are the sufficient-decrease
    coefficients of the support-change and backtracking tests; ``eta`` gates
    the support-change step; ``N``/``M``/``q`` set the move schedule and the
    nonmonotone window; ``tau_shrink`` is the backtracking shrink factor.
    """

    t_min: float
    t_max: float
    tbar: float
    c1: float
    c2: float
    eta: float
    N: int
    M: int
    q: int
    tau_shrink: float = 0.5
    f_tol: float = 1e-8
    max_iter: int = 100_000

    def __post_init__(self):
        if not 0 < self.t_min < self.t_max:
            raise ValueError("need 0 < t_min < t_max")
        if not 0 < self.tau_shrink < 1:
            raise ValueError("tau_shrink must be in (0, 1)")
        if not self.tbar > 0:
            raise ValueError("tbar must be positive")
        if not self.c1 > 0:
            raise ValueError("c1 must be positive")
        if not self.c2 > 0:
            raise ValueError("c2 must be positive")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if not (isinstance(self.N, int) and self.N >= 3):
            raise ValueError("N must be an integer >= 3")
        if not (isinstance(self.M, int) and 0 <= self.M < self.N):
            raise ValueError("M must be an integer in [0, N)")
        if not (isinstance(self.q, int) and 0 < self.q < self.N):
            raise ValueError("q must be an integer in (0, N)")
        if self.f_tol < 0:
            raise ValueError("f_tol must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")

    def validate_for(self, lipschitz: float) -> None:
        """Check the constraints that depend on the objective's Lipschitz constant."""
        if not (lipschitz > 0 and self.tbar < 1.0 / lipschitz):
            raise ValueError("tbar must be below 1/lipschitz for a lipschitz > 0")
        if not self.c1 < 1.0 / self.tbar - lipschitz:
            raise ValueError("c1 must be below 1/tbar - lipschitz")


def default_stepsize(lipschitz: float) -> float:
    """The standard stepsize 0.995/L, just below the 1/L the convergence theory allows."""
    if not lipschitz > 0:
        raise ValueError(f"lipschitz must be positive, got {lipschitz}")
    return 0.995 / lipschitz


def benchmark_config(
    lipschitz: float,
    M: int,
    N: int,
    q: int,
    f_tol: float = 1e-8,
    max_iter: int = 100_000,
) -> SolverConfig:
    """Standard parameterization: tbar = default_stepsize(L), t_min = tbar, t_max = 1e8."""
    tbar = default_stepsize(lipschitz)
    c1 = min(0.995 * (1.0 / tbar - lipschitz), 1e-8)
    return SolverConfig(
        t_min=tbar,
        t_max=1e8,
        tbar=tbar,
        c1=c1,
        c2=1e-4,
        eta=1e3,
        N=N,
        M=M,
        q=q,
        tau_shrink=0.5,
        f_tol=f_tol,
        max_iter=max_iter,
    )


@dataclass(frozen=True)
class IterationRecord:
    """One accepted outer iteration.

    ``step_kind`` is one of ``swap``, ``support_change_accept_hx``,
    ``support_change_accept_tx``, ``projected_gradient``.  ``move_sq`` is the
    squared distance from the previous iterate.  For support-change steps that
    accept the edited point, ``projstep_value``/``projstep_dist_sq`` hold the
    objective at the plain projection iterate and the squared distance of the
    accepted point from it.
    """

    k: int
    step_kind: str
    f_value: float
    stepsize: float | None
    support: np.ndarray
    backtracks: int
    move_sq: float
    shape_gap: float
    nonneg_gap: float
    projstep_value: float | None = None
    projstep_dist_sq: float | None = None

    def to_dict(self) -> dict:
        return _as_dict(self)


@dataclass
class IterateTrace:
    """Per-iteration records plus the final state and optional certificate.

    ``stop_reason`` is ``"converged"`` when the last iteration met the
    ``f_tol`` test and ``"max_iter"`` when the iteration cap ended the run.
    ``screened_steps`` counts the PG steps that skipped the dense gradient; it
    is 0 for NPG and for objectives other than the package's linear models.
    """

    records: list[IterationRecord]
    f_initial: float
    x_final: np.ndarray
    f_final: float
    iterations: int
    wall_time_seconds: float
    certificate: StationarityReport | None = None
    stop_reason: str = "max_iter"
    screened_steps: int = 0

    @property
    def f_values(self) -> np.ndarray:
        """Objective values of all iterates, starting point first."""
        return np.array([self.f_initial] + [r.f_value for r in self.records])

    def to_dict(self) -> dict:
        return _as_dict(self)


def bb_initial_stepsize(x_cur, x_prev, g_cur, g_prev, t_min: float, t_max: float) -> float:
    """Spectral trial stepsize ||dx||^2 / |dx.dg|, clamped to [t_min, t_max].

    Returns ``t_max`` when the curvature product vanishes.
    """
    if t_min > t_max:
        raise ValueError("need t_min <= t_max")
    return _bb_stepsize(
        as_vector(x_cur), as_vector(x_prev), as_vector(g_cur), as_vector(g_prev), t_min, t_max
    )


def _bb_stepsize(x_cur, x_prev, g_cur, g_prev, t_min: float, t_max: float) -> float:
    """:func:`bb_initial_stepsize` of checked vectors and ``t_min <= t_max``."""
    dx = x_cur - x_prev
    dg = g_cur - g_prev
    denom = abs(float(dx @ dg))
    if denom == 0.0:
        return float(t_max)
    return float(min(t_max, max(t_min, float(dx @ dx) / denom)))


def max_backtracks(lipschitz: float, c2: float, t_max: float, tau_shrink: float) -> int:
    """Worst-case number of stepsize shrinks before the nonmonotone test passes."""
    raw = -(math.log(lipschitz + c2) + math.log(t_max)) / math.log(tau_shrink) + 2.0
    return max(math.floor(raw), 1)


def _require_start(set_: SymmetricSet, s: int, x0: np.ndarray) -> None:
    if support_of(x0).size > s:
        raise ValueError("infeasible start: too many nonzeros")
    if not set_.contains(x0, 1e-10):
        raise ValueError("infeasible start: not in the constraint set")


def _require_finite(value: float, k: int, phase: str) -> None:
    if not math.isfinite(value):
        raise FloatingPointError(f"objective value {value} at iteration {k}, {phase} phase")


def _record(
    k: int,
    kind: str,
    f_value: float,
    stepsize: float | None,
    x_new: np.ndarray,
    x_old: np.ndarray,
    set_: SymmetricSet,
    backtracks: int = 0,
    projstep_value: float | None = None,
    projstep_dist_sq: float | None = None,
) -> IterationRecord:
    shape_gap, nonneg_gap = set_._constraint_gaps(x_new)
    return IterationRecord(
        k=k,
        step_kind=kind,
        f_value=f_value,
        stepsize=stepsize,
        support=x_new.nonzero()[0],
        backtracks=backtracks,
        move_sq=float(((x_new - x_old) ** 2).sum()),
        shape_gap=shape_gap,
        nonneg_gap=nonneg_gap,
        projstep_value=projstep_value,
        projstep_dist_sq=projstep_dist_sq,
    )


_EPS = float(np.finfo(np.float64).eps)


class _DenseSteps:
    """PG gradients of any objective: one ``value_and_grad`` per iterate."""

    screened = 0

    def __init__(self, obj):
        self.obj = obj

    def evaluate(self, x: np.ndarray) -> float:
        f, self.g = self.obj.value_and_grad(x)
        return f

    def screened_step(self, x: np.ndarray, alpha: float) -> None:
        return None

    def gradient(self) -> np.ndarray:
        return self.g


class _ScreenedSteps:
    """PG gradients of a linear model, with steps on the support where a bound allows.

    ``evaluate`` keeps the loss derivative ``v`` at the iterate and the
    support columns ``A[:, S]`` (gathered again only when S changes).
    ``gradient`` forms the dense gradient and makes it the reference of the
    bound: ``v_ref``, the largest off-support ranking value ``G`` of
    ``-g_ref`` and the largest off-support column norm ``C``, both refreshed
    when S changes.  The column norms are computed once per solve, not kept
    on the objective: kept on each objective, they raised the peak RSS of a
    one-pass pg-logistic benchmark run (32 objectives) by 4 MB, against
    0.4 MB when computed per solve.
    """

    def __init__(self, model: _LinearModel, set_: SymmetricSet, s: int):
        self.model, self.set_, self.s = model, set_, s
        self.screened = 0
        self.supp = np.empty(0, dtype=np.intp)
        self.cols = model.A[:, self.supp]
        self.g_ref: np.ndarray | None = None
        self.norms: np.ndarray | None = None
        self.bound_supp: np.ndarray | None = None  # the support that G and C hold for

    def evaluate(self, x: np.ndarray) -> float:
        supp = x.nonzero()[0]
        if not np.array_equal(supp, self.supp):
            self.supp, self.cols = supp, self.model.A[:, supp]
        p = self.cols @ x[supp]
        self.v = self.model._dloss(p)
        return self.model._loss(p)

    def screened_step(self, x: np.ndarray, alpha: float) -> np.ndarray | None:
        """The PG step projected on S alone, or None unless the bound proves S is the top-s support."""
        supp = self.supp
        if self.g_ref is None or supp.size != self.s:
            return None
        if self.bound_supp is not supp:
            if self.norms is None:  # column norms of A, without an m x n temporary
                self.norms = np.sqrt(np.einsum("ij,ij->j", self.model.A, self.model.A))
            off = np.ones(x.size, dtype=bool)
            off[supp] = False
            self.G = float(self.set_.ranking_values(-self.g_ref[off]).max())
            self.C = float(self.norms[off].max())
            self.bound_supp = supp
        z = x[supp] - alpha * (self.cols.T @ self.v)
        # Off S, x_j = 0 and the dense step ranks fl(-t*g_j) (its absolute
        # value on sign-free sets), g_j the computed (A.T @ v)_j.  Exactly,
        # g_j - g_ref_j = a_j.(v - v_ref), at most c_j*||v - v_ref||, so every
        # off-support ranking value is at most t*(G + C*delta) up to rounding.
        # With u = eps/2:
        # - an m-term dot product, in any summation order and with or without
        #   FMA, is off by at most m*u*|a_j|.|w| <= m*u*c_j*||w||: the stored
        #   g_ref_j by m*u*c_j*||v_ref||, the dense g_j it stands in for by
        #   m*u*c_j*||v||;
        # - the computed column norms and delta each carry a relative error
        #   below (m/2 + 3)*u, and delta <= ||v|| + ||v_ref||, so c_j times the
        #   exact ||v - v_ref|| exceeds C*delta by at most
        #   (m + 6)*u*C*(||v|| + ||v_ref||);
        # together (m + 3)*eps*C*(||v|| + ||v_ref||), doubled in the slack;
        # - fl(t*g_j) in the dense step and the four operations forming the
        #   threshold, each off by a relative u, move the comparison by at
        #   most 2.5*eps*t*(|G| + C*delta + slack): the slack's second term
        #   and the doubling cover it.
        m = self.v.size
        delta = _norm(self.v - self.v_ref)
        slack = 2 * (m + 3) * _EPS * self.C * (_norm(self.v) + self.v_ref_norm)
        slack += 4 * _EPS * (abs(self.G) + self.C * delta)
        if not float(self.set_.ranking_values(z).min()) > alpha * (self.G + self.C * delta + slack):
            return None
        y = np.zeros(x.size)
        y[supp] = self.set_.project_sub(z)
        self.screened += 1
        return y

    def gradient(self) -> np.ndarray:
        g = self.model._gradient(self.v, self.supp, self.cols)
        self.v_ref, self.v_ref_norm, self.g_ref = self.v, _norm(self.v), g
        self.bound_supp = None
        return g


def pg_solve(
    obj,
    set_: SymmetricSet,
    s: int,
    x0,
    alpha: float,
    f_tol: float = 1e-8,
    max_iter: int = 100_000,
    certify: bool = True,
    certify_grid_points: int = 50,
    certify_tol: float = 1e-6,
) -> IterateTrace:
    """Constant-stepsize projected gradient: x <- project(x - alpha * grad).

    Stops when consecutive objective values differ by at most ``f_tol`` or
    after ``max_iter`` iterations.  A non-finite objective value raises
    ``FloatingPointError`` naming the iteration and the phase (``initial`` or
    ``step``).  On the package's objectives with ``s`` at most a tenth of the
    dimension, a step whose top-s support provably stays on the support of x
    takes the screened O(m * s) path (see the module docstring).
    """
    x = as_vector(x0)
    _require_start(set_, s, x)
    if not (obj.lipschitz > 0 and 0 < alpha < 1.0 / obj.lipschitz):
        raise ValueError("alpha must lie in (0, 1/lipschitz) for a lipschitz > 0")
    grid = default_grid(alpha, certify_grid_points)
    if isinstance(obj, _LinearModel) and s <= _DENSE_SHARE * x.size:
        steps = _ScreenedSteps(obj, set_, s)
    else:
        steps = _DenseSteps(obj)

    records: list[IterationRecord] = []
    stop_reason = "max_iter"
    start = time.perf_counter()
    fx = steps.evaluate(x)
    _require_finite(fx, 0, "initial")
    f_initial = fx
    for k in range(max_iter):
        y = steps.screened_step(x, alpha)
        if y is None:
            y = project_sparse(set_, s, x - alpha * steps.gradient(), certify_uniqueness=False).point
        fy = steps.evaluate(y)
        _require_finite(fy, k, "step")
        records.append(_record(k, "projected_gradient", fy, alpha, y, x, set_))
        done = abs(fy - fx) <= f_tol
        x, fx = y, fy
        if done:
            stop_reason = "converged"
            break
    wall = time.perf_counter() - start

    certificate = None
    if certify:
        certificate = check_strong_stationary(obj, set_, s, x, grid, certify_tol)
    return IterateTrace(
        records=records,
        f_initial=f_initial,
        x_final=x,
        f_final=fx,
        iterations=len(records),
        wall_time_seconds=wall,
        certificate=certificate,
        stop_reason=stop_reason,
        screened_steps=steps.screened,
    )


def npg_solve(
    obj,
    set_: SymmetricSet,
    s: int,
    x0,
    config: SolverConfig,
    certify: bool = True,
    certify_grid_points: int = 50,
    certify_tol: float = 1e-6,
) -> IterateTrace:
    """Nonmonotone projected gradient with swap and support-change moves.

    Every iteration takes exactly one of the moves:

    * ``k % N == 0``: try a coordinate swap; accept on strict decrease.
    * ``k % N == q`` and the minimized support gap is at most ``eta``: take the
      projection at the gap-minimizing stepsize, then prefer the
      support-changed point when it passes the ``c1`` decrease test.
    * otherwise: projected gradient at a spectral trial stepsize, halved until
      the objective drops ``c2/2 * move^2`` below the worst of the last
      ``M+1`` values.

    Iterates with empty (or full) support skip the first two moves.  Stops on
    the same consecutive-objective criterion as ``pg_solve``.  A non-finite
    objective value raises ``FloatingPointError`` naming the iteration and the
    phase (``initial``, ``swap``, ``support change`` or ``trial``).
    """
    x = as_vector(x0)
    n = x.size
    _require_start(set_, s, x)
    lipschitz = obj.lipschitz
    config.validate_for(lipschitz)
    grid = default_grid(config.tbar, certify_grid_points)
    backtrack_cap = 2 * max_backtracks(lipschitz, config.c2, config.t_max, config.tau_shrink) + 50

    records: list[IterationRecord] = []
    start = time.perf_counter()
    fx, g = obj.value_and_grad(x)
    _require_finite(fx, 0, "initial")
    f_initial = fx
    f_hist = [fx]
    x_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    stop_reason = "max_iter"

    for k in range(config.max_iter):
        card = np.count_nonzero(x)
        degenerate = card == 0 or card == n
        x_new: np.ndarray | None = None
        f_new = math.nan
        rec: IterationRecord | None = None

        if k % config.N == 0 and not degenerate:
            y = coordinate_swap(obj, set_, x)
            if not np.array_equal(y, x):
                f_new = obj.value(y)
                _require_finite(f_new, k, "swap")
                rec = _record(k, "swap", f_new, None, y, x, set_)
                x_new = y
        elif k % config.N == config.q and not degenerate:
            gap = minimize_support_gap(set_, x, g, config.tbar)
            if gap.value <= config.eta:
                beta = gap.step
                xt = project_sparse(set_, s, x - beta * g, certify_uniqueness=False).point
                f_xt = obj.value(xt)
                _require_finite(f_xt, k, "support change")
                xt_card = np.count_nonzero(xt)
                if 0 < xt_card < n:
                    xh = change_support(obj, set_, s, xt, beta)
                    f_xh = obj.value(xh)
                    _require_finite(f_xh, k, "support change")
                    dist_sq = float(((xh - xt) ** 2).sum())
                    if f_xh <= f_xt - 0.5 * config.c1 * dist_sq:
                        rec = _record(
                            k,
                            "support_change_accept_hx",
                            f_xh,
                            beta,
                            xh,
                            x,
                            set_,
                            projstep_value=f_xt,
                            projstep_dist_sq=dist_sq,
                        )
                        x_new, f_new = xh, f_xh
                if x_new is None and beta > 0:
                    rec = _record(k, "support_change_accept_tx", f_xt, beta, xt, x, set_)
                    x_new, f_new = xt, f_xt

        if x_new is None:
            if x_prev is None:
                t_trial = min(config.t_max, max(config.t_min, 1.0))
            else:
                t_trial = _bb_stepsize(x, x_prev, g, g_prev, config.t_min, config.t_max)
            f_ref = max(f_hist[-(config.M + 1):])
            backtracks = 0
            while True:
                w = project_sparse(set_, s, x - t_trial * g, certify_uniqueness=False).point
                fw = obj.value(w)
                _require_finite(fw, k, "trial")
                if fw <= f_ref - 0.5 * config.c2 * float(((w - x) ** 2).sum()):
                    break
                t_trial *= config.tau_shrink
                backtracks += 1
                if backtracks > backtrack_cap:
                    raise RuntimeError("backtracking failed to terminate")
            rec = _record(
                k, "projected_gradient", fw, t_trial, w, x, set_, backtracks=backtracks
            )
            x_new, f_new = w, fw

        records.append(rec)
        x_prev, g_prev = x, g
        f_prev = f_hist[-1]
        x = x_new
        f_hist.append(f_new)
        if abs(f_new - f_prev) <= config.f_tol:
            fx = f_new
            stop_reason = "converged"
            break
        fx = f_new
        g = obj.grad(x)
    wall = time.perf_counter() - start

    certificate = None
    if certify:
        certificate = check_strong_stationary(obj, set_, s, x, grid, certify_tol)
    return IterateTrace(
        records=records,
        f_initial=f_initial,
        x_final=x,
        f_final=fx,
        iterations=len(records),
        wall_time_seconds=wall,
        certificate=certificate,
        stop_reason=stop_reason,
    )
