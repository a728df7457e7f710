"""Projected-gradient solvers for sparsity-constrained problems.

``pg_solve`` is the constant-stepsize baseline.  ``npg_solve`` interleaves
three moves on a fixed schedule: a coordinate swap every ``N`` iterations, a
support change when the minimized support gap is small, and otherwise a
spectral-stepsize projected gradient step accepted by a nonmonotone
backtracking test against the worst of the last ``M+1`` objective values.

On the package's linear-model objectives, ``pg_solve`` screens each step.
Once the iterate has ``s`` nonzeros on a support S, the gradient entries off
S move by at most ``||a_j|| * ||v - v_ref||`` from those of the last dense
gradient, where ``v`` is the loss derivative in ``A @ x``.  When that bound
proves that the top-s support of ``x - t * g`` is S, with no ties, the step
projects on S alone: it needs only the gradient entries on S and costs
O(m * s), where a dense step costs one ``A.T @ v`` and an n-wide selection.
A step on S whose entries are not all finite fails the bound and goes dense.

While steps screen and keep every entry of S nonzero, the iterate is held as
its s values on S alone: the new point is evaluated as ``A[:, S] @ y_S`` from
the kept columns, with no n-wide scan, and its ``move_sq`` and constraint
gaps come from the s-vectors.  The n-vector is built only for a dense step,
for a screened step whose projection zeroes an entry of S (an l1-ball soft
threshold can), and for the returned trace.  Screened and dense steps give
the same bits, because the objectives take the gradient entries on the
support from the support columns on every path, and every step computes its
``move_sq`` and constraint gaps in one place, on supp(x) | supp(y) in
ascending index order, which is S on a screened step.  Any other objective
takes the dense step.

A trace stores its per-iteration values as columns, one growable
``array.array`` each: the objective value, the stepsize (NaN for None), the
backtracks, ``move_sq``, the two constraint gaps, a step-kind code and the
two ``projstep`` fields.  Supports are stored once per change, as (first
iteration, support) pairs, since an iterate keeps one support for most of a
run.  ``IterateTrace.records`` builds the :class:`IterationRecord` view of
these columns on each access.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field, fields

import numpy as np

from .core import _norm, _plain, _Record, as_vector, support_of
from .objectives import _LinearModel
from .projection import _check_sparsity_level, project_sparse
from .sets import _SCALAR_MAX, SymmetricSet
from .stationarity import (
    StationarityReport,
    _off_support_slope,
    _require_tol,
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
        for name in ("tbar", "c1", "c2", "eta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not (isinstance(self.N, int) and self.N >= 3):
            raise ValueError("N must be an integer >= 3")
        if not (isinstance(self.M, int) and 0 <= self.M < self.N):
            raise ValueError("M must be an integer in [0, N)")
        if not (isinstance(self.q, int) and 0 < self.q < self.N):
            raise ValueError("q must be an integer in (0, N)")
        _require_stop_rule(self.f_tol, self.max_iter)

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
class IterationRecord(_Record):
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


_STEP_KINDS = ("swap", "support_change_accept_hx", "support_change_accept_tx", "projected_gradient")
_KIND_CODES = {kind: code for code, kind in enumerate(_STEP_KINDS)}


def _none_if_nan(value: float) -> float | None:
    return None if math.isnan(value) else value


class _Columns:
    """A solve's per-iteration values: entry k of each column is iteration k.

    ``kind`` holds indices into ``_STEP_KINDS``; ``stepsize`` and the two
    ``projstep`` columns hold NaN for None.  ``supports`` holds one
    (first iteration, support) pair per change of support, each support
    read-only, since the records of a run share it.
    """

    def __init__(self):
        self.f_value, self.stepsize, self.move_sq = array("d"), array("d"), array("d")
        self.shape_gap, self.nonneg_gap = array("d"), array("d")
        self.projstep_value, self.projstep_dist_sq = array("d"), array("d")
        self.backtracks, self.kind = array("q"), array("b")
        self.supports: list[tuple[int, np.ndarray]] = []

    def __len__(self) -> int:
        return len(self.f_value)

    def append(
        self, kind: str, f_value: float, stepsize: float | None, support: np.ndarray,
        move_sq: float, gaps: tuple[float, float], backtracks: int = 0,
        projstep_value: float = math.nan, projstep_dist_sq: float = math.nan,
    ) -> None:
        """Add one iteration; ``support`` is stored only when it differs from the last one."""
        last = self.supports[-1][1] if self.supports else None
        if support is not last and (last is None or support.tobytes() != last.tobytes()):
            support.flags.writeable = False
            self.supports.append((len(self.f_value), support))
        self.kind.append(_KIND_CODES[kind])
        self.f_value.append(f_value)
        self.stepsize.append(math.nan if stepsize is None else stepsize)
        self.backtracks.append(backtracks)
        self.move_sq.append(move_sq)
        self.shape_gap.append(gaps[0])
        self.nonneg_gap.append(gaps[1])
        self.projstep_value.append(projstep_value)
        self.projstep_dist_sq.append(projstep_dist_sq)

    def move_counts(self) -> list[int]:
        """Iterations of each step kind, in ``_STEP_KINDS`` order."""
        return [self.kind.count(code) for code in range(len(_STEP_KINDS))]

    def records(self) -> list[IterationRecord]:
        """One record per iteration, each support shared by the records until its next change."""
        out = []
        ends = [first for first, _ in self.supports[1:]] + [len(self)]
        for (first, support), end in zip(self.supports, ends):
            for k in range(first, end):
                out.append(IterationRecord(
                    k, _STEP_KINDS[self.kind[k]], self.f_value[k],
                    _none_if_nan(self.stepsize[k]), support, self.backtracks[k],
                    self.move_sq[k], self.shape_gap[k], self.nonneg_gap[k],
                    _none_if_nan(self.projstep_value[k]), _none_if_nan(self.projstep_dist_sq[k]),
                ))
        return out


@dataclass
class IterateTrace(_Record):
    """Per-iteration columns plus the final state and optional certificate.

    ``records`` is the list of :class:`IterationRecord` views of the columns,
    built anew on each access; its supports are read-only and shared between
    the records of one support.  ``to_dict`` gives ``records`` first, then the
    other fields in declaration order.  ``stop_reason`` is ``"converged"``
    when the last iteration met the ``f_tol`` test and ``"max_iter"`` when the
    iteration cap ended the run.  ``screened_steps`` counts the PG steps that
    skipped the dense gradient; it is 0 for NPG and for objectives other than
    the package's linear models.
    """

    _columns: _Columns = field(repr=False)
    f_initial: float
    x_final: np.ndarray
    f_final: float
    iterations: int
    wall_time_seconds: float
    certificate: StationarityReport | None = None
    stop_reason: str = "max_iter"
    screened_steps: int = 0

    @property
    def records(self) -> list[IterationRecord]:
        return self._columns.records()

    @property
    def f_values(self) -> np.ndarray:
        """Objective values of all iterates, starting point first."""
        return np.concatenate(([self.f_initial], self._columns.f_value))

    def to_dict(self) -> dict:
        out = {"records": [r.to_dict() for r in self.records]}
        for f in fields(self):
            if f.name != "_columns":
                out[f.name] = _plain(getattr(self, f.name))
        return out


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


def _require_stop_rule(f_tol: float, max_iter: int) -> None:
    if not f_tol >= 0:
        raise ValueError("f_tol must be nonnegative")
    if not isinstance(max_iter, (int, np.integer)):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")


def _start(obj, set_: SymmetricSet, s: int, x0) -> np.ndarray:
    """``x0`` as a checked vector, or a ValueError unless ``s`` is valid and it is a feasible start."""
    x = as_vector(x0, obj.dim)
    _check_sparsity_level(s, x.size)
    if support_of(x).size > s:
        raise ValueError("infeasible start: too many nonzeros")
    if not set_.contains(x, 1e-10):
        raise ValueError("infeasible start: not in the constraint set")
    return x


def _finish(
    obj, set_: SymmetricSet, s: int, x: np.ndarray, f_initial: float,
    columns: _Columns, converged: bool, start: float, certify: bool,
    grid: np.ndarray, certify_tol: float, screened_steps: int = 0,
) -> IterateTrace:
    """The trace of a solve: the wall time since ``start``, then the certificate of ``x``."""
    wall = time.perf_counter() - start
    certificate = check_strong_stationary(obj, set_, s, x, grid, certify_tol) if certify else None
    return IterateTrace(
        columns, f_initial, x, columns.f_value[-1], len(columns), wall, certificate,
        "converged" if converged else "max_iter", screened_steps,
    )


def _finite(value: float, k: int, phase: str) -> float:
    """``value`` if finite, else a FloatingPointError naming iteration ``k`` and ``phase``."""
    if not math.isfinite(value):
        raise FloatingPointError(f"objective value {value} at iteration {k}, {phase} phase")
    return value


def _record(
    columns: _Columns,
    kind: str,
    f_value: float,
    stepsize: float | None,
    x_new: np.ndarray,
    x_old: np.ndarray,
    set_: SymmetricSet,
    backtracks: int = 0,
    projstep_value: float = math.nan,
    projstep_dist_sq: float = math.nan,
) -> None:
    """Append an NPG iteration, with ``move_sq`` and the gaps summed over all n entries."""
    columns.append(
        kind, f_value, stepsize, x_new.nonzero()[0], float(((x_new - x_old) ** 2).sum()),
        set_._constraint_gaps(x_new), backtracks, projstep_value, projstep_dist_sq,
    )


_EPS = float(np.finfo(np.float64).eps)


def _scatter(n: int, supp: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The n-vector holding ``values`` on ``supp`` and zeros elsewhere."""
    x = np.zeros(n)
    x[supp] = values
    return x


class _DenseSteps:
    """PG gradients of any objective: one ``value_and_grad`` per iterate.

    ``evaluate`` keeps the support of the point, by one n-wide scan.
    """

    screened = 0

    def __init__(self, obj):
        self.obj = obj

    def evaluate(self, x: np.ndarray) -> float:
        f, self.g = self.obj.value_and_grad(x)
        self.supp = x.nonzero()[0]
        return f

    def screened_step(self, x_supp: np.ndarray, alpha: float) -> None:
        return None

    def gradient(self) -> np.ndarray:
        return self.g


def _finite_min(values: np.ndarray) -> float:
    """``float(values.min())`` when every entry is finite, else NaN.

    A finite sum proves every entry finite, as in :func:`as_vector`.  Up to
    ``_SCALAR_MAX`` entries the sum and the minimum run in Python floats,
    where ``min`` alone would skip a NaN that does not come first.
    """
    if values.size <= _SCALAR_MAX:
        entries = values.tolist()
        return min(entries) if math.isfinite(sum(entries)) else math.nan
    return float(values.min()) if math.isfinite(values.sum()) else math.nan


class _ScreenedSteps:
    """PG gradients of a linear model, with steps on the support where a bound allows.

    ``evaluate`` keeps the loss derivative ``v`` at the iterate and the
    support S and columns ``A[:, S]`` that the model returns with ``p``;
    ``evaluate_on_support`` evaluates a point with support S from its values
    on S and the kept columns.  ``gradient`` forms the dense gradient and
    makes it the reference of the bound: ``v_ref``, the largest off-support
    ranking value ``G`` of ``-g_ref`` and the largest off-support column norm
    ``C``, both refreshed when S changes.  The column norms are computed once
    per solve, not kept on the objective: kept on each objective, they raised
    the peak RSS of a one-pass pg-logistic benchmark run (32 objectives) by
    4 MB, against 0.4 MB when computed per solve.
    """

    def __init__(self, model: _LinearModel, set_: SymmetricSet, s: int):
        self.model, self.set_, self.s = model, set_, s
        self.screened = 0
        self.g_ref: np.ndarray | None = None
        self.norms: np.ndarray | None = None
        self.bound_supp: np.ndarray | None = None  # the support that G and C hold for

    def evaluate(self, x: np.ndarray) -> float:
        """f at ``x``, whose support and columns the model finds by one n-wide scan."""
        p, self.supp, self.cols = self.model._evaluate(x)
        f, self.v = self.model._loss_and_dloss(p)
        return f

    def evaluate_on_support(self, y_supp: np.ndarray) -> float:
        """f at the point that holds ``y_supp`` on S and zeros elsewhere."""
        f, self.v = self.model._loss_and_dloss(self.cols @ y_supp)
        return f

    def screened_step(self, x_supp: np.ndarray, alpha: float) -> np.ndarray | None:
        """The PG step from the point holding ``x_supp`` on S, projected on S alone.

        Gives the new values on S, or None unless the bound proves that S is
        the top-s support.
        """
        supp = self.supp
        if self.g_ref is None or supp.size != self.s:
            return None
        if self.bound_supp is not supp:
            if self.norms is None:  # column norms of A, without an m x n temporary
                self.norms = np.sqrt(np.einsum("ij,ij->j", self.model.A, self.model.A))
            self.G = _off_support_slope(self.set_, self.g_ref, supp)
            self.C = float(np.delete(self.norms, supp).max())
            self.bound_supp = supp
        z = x_supp - alpha * (self.cols.T @ self.v)
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
        if not _finite_min(self.set_.ranking_values(z)) > alpha * (self.G + self.C * delta + slack):
            return None
        self.screened += 1
        # z is finite: a non-finite entry fails the test above
        return self.set_._project(z)

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
    ``step``).  A step that misses the descent-lemma decrease
    ``0.5 * (1/alpha - L) * ||y - x||^2`` by more than ``1e-9 * (1 + |f(x)|)``
    raises ``RuntimeError``: the objective's Lipschitz constant L is then
    understated.  On the package's objectives, a step whose top-s support
    provably stays on the support of x takes the screened O(m * s) path (see
    the module docstring).
    """
    _require_stop_rule(f_tol, max_iter)
    x = _start(obj, set_, s, x0)
    lipschitz = obj.lipschitz
    if not (lipschitz > 0 and 0 < alpha < 1.0 / lipschitz):
        raise ValueError("alpha must lie in (0, 1/lipschitz) for a lipschitz > 0")
    grid = default_grid(alpha, certify_grid_points)
    _require_tol(certify_tol)
    steps = _ScreenedSteps(obj, set_, s) if isinstance(obj, _LinearModel) else _DenseSteps(obj)
    n = x.size

    columns = _Columns()
    start = time.perf_counter()
    f_initial = fx = _finite(steps.evaluate(x), 0, "initial")
    supp_x = steps.supp
    x_supp = x[supp_x]
    for k in range(max_iter):
        # x is None while the iterate is held by its values x_supp on supp_x alone
        y_supp = steps.screened_step(x_supp, alpha)
        if y_supp is not None and np.count_nonzero(y_supp) == y_supp.size:
            y, supp_y, old, new = None, supp_x, x_supp, y_supp
            fy = steps.evaluate_on_support(y_supp)
        else:
            if x is None:
                x = _scatter(n, supp_x, x_supp)
            if y_supp is None:
                y = project_sparse(set_, s, x - alpha * steps.gradient()).point
            else:  # an l1-ball soft threshold zeroed an entry of S
                y = _scatter(n, supp_x, y_supp)
            fy = steps.evaluate(y)
            # a linear model returns the same support array while S stays put
            supp_y = steps.supp
            same = supp_y is supp_x or supp_y.tobytes() == supp_x.tobytes()
            union = supp_y if same else np.union1d(supp_x, supp_y)
            old, new = x[union], y[union]
        fy = _finite(fy, k, "step")
        move = new - old
        move_sq = float(move.dot(move))
        if fy > fx - 0.5 * (1.0 / alpha - lipschitz) * move_sq + 1e-9 * (1.0 + abs(fx)):
            raise RuntimeError(
                f"step at iteration {k} missed the descent bound; "
                f"the objective's lipschitz {lipschitz!r} is likely understated"
            )
        columns.append("projected_gradient", fy, alpha, supp_y, move_sq, set_._constraint_gaps(new))
        done = abs(fy - fx) <= f_tol
        x, fx, supp_x = y, fy, supp_y
        x_supp = y_supp if y is None else y[supp_y]
        if done:
            break
    if x is None:
        x = _scatter(n, supp_x, x_supp)
    return _finish(
        obj, set_, s, x, f_initial, columns, done, start, certify, grid, certify_tol,
        steps.screened,
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

    Iterates with empty support skip the first two moves.  Stops on
    the same consecutive-objective criterion as ``pg_solve``.  A non-finite
    objective value raises ``FloatingPointError`` naming the iteration and the
    phase (``initial``, ``swap``, ``support change`` or ``trial``), and a trial
    that needs more than ``max_backtracks`` shrinks raises ``RuntimeError``.
    """
    x = _start(obj, set_, s, x0)
    lipschitz = obj.lipschitz
    config.validate_for(lipschitz)
    grid = default_grid(config.tbar, certify_grid_points)
    _require_tol(certify_tol)
    bound = max_backtracks(lipschitz, config.c2, config.t_max, config.tau_shrink)

    columns = _Columns()
    start = time.perf_counter()
    f_initial, g = obj.value_and_grad(x)
    f_hist = [_finite(f_initial, 0, "initial")]
    x_prev = g_prev = None
    for k in range(config.max_iter):
        moving = np.count_nonzero(x) > 0
        x_new = None
        if k % config.N == 0 and moving:
            y = coordinate_swap(obj, set_, x)
            if not np.array_equal(y, x):
                f_y = _finite(obj.value(y), k, "swap")
                x_new = y
                _record(columns, "swap", f_y, None, y, x, set_)
        elif k % config.N == config.q and moving:
            gap = minimize_support_gap(set_, x, g, config.tbar)
            if gap.value <= config.eta:
                beta = gap.step
                xt = project_sparse(set_, s, x - beta * g).point
                f_xt = _finite(obj.value(xt), k, "support change")
                if np.count_nonzero(xt) > 0:
                    xh = change_support(obj, set_, s, xt, beta)
                    f_xh = _finite(obj.value(xh), k, "support change")
                    dist_sq = float(((xh - xt) ** 2).sum())
                    if f_xh <= f_xt - 0.5 * config.c1 * dist_sq:
                        x_new = xh
                        _record(
                            columns, "support_change_accept_hx", f_xh, beta, xh, x, set_,
                            projstep_value=f_xt, projstep_dist_sq=dist_sq,
                        )
                if x_new is None and beta > 0:
                    x_new = xt
                    _record(columns, "support_change_accept_tx", f_xt, beta, xt, x, set_)

        if x_new is None:
            if x_prev is None:
                t_trial = min(config.t_max, max(config.t_min, 1.0))
            else:
                t_trial = _bb_stepsize(x, x_prev, g, g_prev, config.t_min, config.t_max)
            f_ref = max(f_hist[-(config.M + 1):])
            backtracks = 0
            while True:
                w = project_sparse(set_, s, x - t_trial * g).point
                fw = _finite(obj.value(w), k, "trial")
                if fw <= f_ref - 0.5 * config.c2 * float(((w - x) ** 2).sum()):
                    break
                t_trial *= config.tau_shrink
                backtracks += 1
                if backtracks > bound:
                    raise RuntimeError(
                        f"backtracking at iteration {k} exceeded max_backtracks = {bound}; "
                        f"the objective's lipschitz {lipschitz!r} is likely understated"
                    )
            x_new = w
            _record(columns, "projected_gradient", fw, t_trial, w, x, set_, backtracks=backtracks)

        f_hist.append(columns.f_value[-1])
        x_prev, g_prev, x = x, g, x_new
        done = abs(f_hist[-1] - f_hist[-2]) <= config.f_tol
        if done:
            break
        g = obj.grad(x)
    return _finish(obj, set_, s, x, f_initial, columns, done, start, certify, grid, certify_tol)
