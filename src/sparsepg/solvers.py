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
is a screened one: it projects on S alone, needs only the gradient entries
on S and costs O(m * s), where a dense step costs one ``A.T @ v`` and an
n-wide selection.  When the bound fails, the step forms the dense gradient
at the point, which the dense step needs anyway, makes it the new reference
and tests S again, now exactly: off S the dense step's largest ranking value
is exactly ``fl(t * G)``, G the largest off-support ranking value of ``-g``.
If S passes, the step is a refreshed one and projects on S as a screened
step does; if not, the dense step takes the gradient just formed, so every
step that is not screened forms one dense gradient.  A step on S whose
entries are not all finite fails both tests and goes dense.

The step objects of a solve keep the columns ``A[:, S]`` of the support S of
the point last evaluated, and gather them again only when S changes; the
models themselves keep nothing, so nothing of one solve's evaluations
crosses to the next.  ``pg_solve`` holds every iterate as its values on its
support alone.  A screened or refreshed step that keeps every entry of S
nonzero evaluates the new point as ``A[:, S] @ y_S`` from the kept columns,
with no n-wide scan, and takes its ``move_sq`` and constraint gaps from the
s-vectors.  The n-vector is built only for a dense step, which is also
taken by a screened or refreshed step whose projection zeroes an entry of S
(an l1-ball soft threshold can), and for the returned trace.  Screened,
refreshed and dense steps give the same bits, because the objectives take
the gradient entries on the support from the support columns on every path,
and every step computes its ``move_sq`` and constraint gaps in one place, on
supp(x) | supp(y) in ascending index order, which is S on a step on S.  Any
other objective takes the dense step.

``npg_solve`` reaches the objective through the same step objects.  On the
linear models it evaluates every point it forms (a trial, the two
support-change points, the swap's candidates and the accepted swap) from the
columns on the point's support, which the projection gives with its values
(the swap and the support change return only the point, and one scan finds
its support).  It keeps the loss derivative of the point and forms the
gradient at the accepted point from it with one dense ``A.T @ v``.  The swap
and the support change take the support, that gradient and, for the swap,
the f that NPG holds as arguments, so neither evaluates the point it starts
from.  Its trial and support-change steps are checked finite once, then
projected by the unchecked ``_project_sparse``.  Any other objective sees the calls of
the public path: ``project_sparse`` for each projection, the public
``coordinate_swap`` and ``change_support``, which ask it for g and f again,
one ``value`` per point and one ``grad`` per iterate, so a traced run's
spans still time every projection, move and evaluation.

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

from .core import _norm, _plain, _Record, _scatter, as_vector, support_of
from .objectives import _LinearModel
from .projection import _check_sparsity_level, _project_sparse, project_sparse
from .sets import SymmetricSet, _finite_least
from .stationarity import (
    StationarityReport,
    _off_support_slope,
    _require_tol,
    check_strong_stationary,
    default_grid,
    minimize_support_gap,
)
from .subroutines import _change_support, _coordinate_swap, change_support, coordinate_swap

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "IterateTrace",
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
        # both enter max_backtracks through a log, whose floor must be finite
        for name in ("t_max", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
    skipped the dense gradient; a refreshed step, which formed it and then
    projected on the support, is not one of them.  It is 0 for NPG and for
    objectives other than the package's linear models.
    ``certificate_seconds`` is the time the certificate took, after
    ``wall_time_seconds`` was read; None when the solve was not certified.
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
    certificate_seconds: float | None = None

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


def _bb_stepsize(x_cur, x_prev, g_cur, g_prev, t_min: float, t_max: float) -> float:
    """Spectral trial stepsize ||dx||^2 / |dx.dg|, clamped to [t_min, t_max].

    Returns ``t_max`` when the curvature product vanishes.  Takes float arrays
    and the ``t_min < t_max`` that ``SolverConfig`` checks.
    """
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
    """The trace of a solve: the wall time since ``start``, then the certificate of ``x``, timed."""
    solved = time.perf_counter()
    certificate = seconds = None
    if certify:
        certificate = check_strong_stationary(obj, set_, s, x, grid, certify_tol)
        seconds = time.perf_counter() - solved
    return IterateTrace(
        columns, f_initial, x, columns.f_value[-1], len(columns), solved - start, certificate,
        "converged" if converged else "max_iter", screened_steps, seconds,
    )


def _finite(value: float, k: int, phase: str) -> float:
    """``value`` if finite, else a FloatingPointError naming iteration ``k`` and ``phase``."""
    if not math.isfinite(value):
        raise FloatingPointError(f"objective value {value} at iteration {k}, {phase} phase")
    return value


def _dist_sq(a: np.ndarray, b: np.ndarray) -> float:
    """``||a - b||^2``, summed over all n entries."""
    return float(((a - b) ** 2).sum())


def _step(x: np.ndarray, t: float, g: np.ndarray, k: int, phase: str) -> np.ndarray:
    """``x - t * g``, or a FloatingPointError naming iteration ``k`` and ``phase`` unless finite."""
    z = x - t * g
    # a finite sum proves every entry finite, as in as_vector
    if not math.isfinite(z.sum()) and not np.isfinite(z).all():
        raise FloatingPointError(f"gradient step not finite at iteration {k}, {phase} phase")
    return z


_EPS = float(np.finfo(np.float64).eps)


class _DenseSteps:
    """Gradients of any objective, through its public calls alone.

    PG takes one ``value_and_grad`` per iterate in ``evaluate``, which keeps
    the support of the point, by one n-wide scan.  NPG projects with
    ``project_sparse``, takes one ``value`` per point it forms and one
    ``grad`` per iterate, and moves with the public ``coordinate_swap`` and
    ``change_support``, which ask the objective for the gradient again.
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

    def project(self, set_: SymmetricSet, s: int, z: np.ndarray) -> tuple[np.ndarray, ...]:
        """The point ``project_sparse`` gives, its support by one scan and its values there."""
        point = project_sparse(set_, s, z).point
        supp = point.nonzero()[0]
        return point, supp, point[supp]

    def value(self, x: np.ndarray, supp: np.ndarray, x_supp: np.ndarray) -> float:
        return self.obj.value(x)

    def gradient_at(self, x: np.ndarray) -> np.ndarray:
        return self.obj.grad(x)

    def swap(self, set_: SymmetricSet, x: np.ndarray, supp: np.ndarray, g: np.ndarray,
             fx: float) -> np.ndarray:
        return coordinate_swap(self.obj, set_, x)

    def support_change(self, set_: SymmetricSet, s: int, x: np.ndarray, supp: np.ndarray,
                       t: float) -> tuple[np.ndarray, None]:
        """The support-changed point, and None: the gradient at ``x`` stays with the objective."""
        return change_support(self.obj, set_, s, x, t), None


class _ScreenedSteps:
    """Gradients of a linear model: PG's, with steps on the support where a bound allows, and NPG's.

    Every evaluation keeps the loss derivative ``v`` at its point, and the
    support S and columns ``A[:, S]`` of that point.  The columns are
    gathered again only when S changes, and while S stays put the kept S is
    the same array, so a caller may test it by identity.  ``evaluate`` finds
    S by one n-wide scan; ``evaluate_on_support`` evaluates a point with
    support S from its values on S and the kept columns.  ``gradient`` forms
    the dense gradient at the point last valued, once, and makes it the
    reference of the bound: ``v_ref``, and the largest off-support ranking
    value ``G`` of ``-g_ref``, found again when the reference or S changes.
    The largest off-support column norm ``C`` is found again only when S
    changes.  ``screened_step`` tests S against the reference; when that
    fails, it calls ``gradient`` and tests S exactly against the gradient at
    the point (a refreshed step, which ``screened`` does not count), and the
    dense step that follows a failed retest takes the same gradient from
    ``gradient``.  The column norms are computed once per solve, not kept on
    the objective: kept on each objective, they raised the peak RSS of a
    one-pass pg-logistic benchmark run (32 objectives) by 4 MB, against
    0.4 MB when computed per solve.  NPG projects with the unchecked
    ``_project_sparse``, evaluates each point it forms with ``value``, takes
    the gradient at the point last valued from ``gradient_at``, and hands the
    support, g and f it holds to the private swap and support change.
    """

    def __init__(self, model: _LinearModel, set_: SymmetricSet, s: int):
        self.model, self.set_, self.s = model, set_, s
        self.supp = np.empty(0, dtype=np.intp)
        self.cols = model.A[:, self.supp]
        self.screened = 0
        self.v = self.v_ref = self.g_ref = self.norms = None
        self.g_supp = self.c_supp = None  # the supports that G and C hold for

    def evaluate(self, x: np.ndarray) -> float:
        """f at the checked vector ``x``, whose support one n-wide scan finds."""
        supp = x.nonzero()[0]
        return self.value(x, supp, x[supp])

    def evaluate_on_support(self, y_supp: np.ndarray) -> float:
        """f at the point that holds ``y_supp`` on S and zeros elsewhere."""
        f, self.v = self.model._loss_and_dloss(self.cols @ y_supp)
        return f

    def screened_step(self, x_supp: np.ndarray, alpha: float) -> np.ndarray | None:
        """The PG step from the point holding ``x_supp`` on S, projected on S alone.

        Gives the new values on S, or None unless S is proved the top-s
        support: first by the bound against the last dense gradient, which
        makes the step a screened one, else by the exact test against the
        dense gradient at this point, formed here and kept for the dense
        step, which makes it a refreshed one.
        """
        supp = self.supp
        if supp.size != self.s:
            return None
        z = x_supp - alpha * (self.cols.T @ self.v)
        least = _finite_least(self.set_.ranking_values(z))
        if self.g_ref is not None and least > alpha * self._stale_threshold():
            self.screened += 1
            return self.set_._project(z)  # z is finite: a non-finite entry fails each test
        self.gradient()
        # Off S, x_j = 0, so the dense step's entries there are exactly
        # -fl(t*g_j), and rounding is monotone and sign-symmetric: their
        # largest ranking value is exactly fl(t*G), as in the certificate.
        if least > alpha * self._slope():
            return self.set_._project(z)
        return None

    def _slope(self) -> float:
        """``G``, the largest ranking value of ``-g_ref`` off S, kept until S or g_ref changes."""
        if self.g_supp is not self.supp:
            self.G = _off_support_slope(self.set_, self.g_ref, self.supp)
            self.g_supp = self.supp
        return self.G

    def _stale_threshold(self) -> float:
        """A bound, from the reference, on the dense step's off-support ranking values over t.

        ``C``, the largest off-support column norm, is kept until S changes.
        """
        supp = self.supp
        if self.c_supp is not supp:
            if self.norms is None:  # column norms of A, without an m x n temporary
                self.norms = np.sqrt(np.einsum("ij,ij->j", self.model.A, self.model.A))
            self.C = float(np.delete(self.norms, supp).max())
            self.c_supp = supp
        G, C = self._slope(), self.C
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
        slack = 2 * (m + 3) * _EPS * C * (_norm(self.v) + self.v_ref_norm)
        slack += 4 * _EPS * (abs(G) + C * delta)
        return G + C * delta + slack

    def gradient(self) -> np.ndarray:
        """The dense gradient at the point last valued, made the reference of the bound.

        Formed once per point: a second call at the same point returns it.
        """
        if self.v_ref is not self.v:
            self.g_ref = self.model._gradient(self.v, self.supp, self.cols)
            self.v_ref, self.v_ref_norm = self.v, _norm(self.v)
            self.g_supp = None
        return self.g_ref

    def project(self, set_: SymmetricSet, s: int, z: np.ndarray) -> tuple[np.ndarray, ...]:
        """The point ``_project_sparse`` gives, with its support and its values there."""
        return _project_sparse(set_, s, z)

    def value(self, x: np.ndarray, supp: np.ndarray, x_supp: np.ndarray) -> float:
        """f at ``x``, which holds ``x_supp`` on its support ``supp``, from the columns on supp.

        Keeps the support, the columns and ``v`` of the point, for a gradient
        there.
        """
        # comparing the bytes is exact here, and 30x cheaper than np.array_equal
        if supp.tobytes() != self.supp.tobytes():
            self.supp, self.cols = supp, self.model.A[:, supp]
        f, self.v = self.model._loss_and_dloss(self.cols @ x_supp)
        return f

    def gradient_at(self, x: np.ndarray) -> np.ndarray:
        """g at ``x``, the point last valued, from its ``v``."""
        return self.model._gradient(self.v, self.supp, self.cols)

    def swap(self, set_: SymmetricSet, x: np.ndarray, supp: np.ndarray, g: np.ndarray,
             fx: float) -> np.ndarray:
        """The swap at ``x``, given its support ``supp``, g and f there.

        Values each candidate with ``evaluate``, so a second candidate on the
        first one's support, and the accepted point after it, reuse its columns.
        """
        return _coordinate_swap(self.evaluate, set_, x, supp, g, fx)

    def support_change(self, set_: SymmetricSet, s: int, x: np.ndarray, supp: np.ndarray,
                       t: float) -> tuple[np.ndarray, np.ndarray]:
        """The support-changed point from ``x``, the point last valued, and g at ``x``."""
        g = self.gradient_at(x)
        return _change_support(set_, x, supp, g, t), g


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
        # the iterate is held as its values x_supp on its support supp_x; the
        # n-vector is built only for a dense step and for the trace
        y_supp = steps.screened_step(x_supp, alpha)
        if y_supp is not None and np.count_nonzero(y_supp) == y_supp.size:
            supp_y, old, new = supp_x, x_supp, y_supp
            fy = steps.evaluate_on_support(y_supp)
        else:
            x = _scatter(n, supp_x, x_supp)
            if y_supp is None:  # the gradient that a failed refresh formed, if one did
                y = project_sparse(set_, s, x - alpha * steps.gradient()).point
            else:  # an l1-ball soft threshold zeroed an entry of S
                y = _scatter(n, supp_x, y_supp)
            fy = steps.evaluate(y)
            # a linear model returns the same support array while S stays put
            supp_y = steps.supp
            y_supp = y[supp_y]
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
        fx, supp_x, x_supp = fy, supp_y, y_supp
        if done:
            break
    return _finish(
        obj, set_, s, _scatter(n, supp_x, x_supp), f_initial, columns, done, start, certify,
        grid, certify_tol, steps.screened,
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
    the same consecutive-objective criterion as ``pg_solve``.  On the
    package's objectives each point is evaluated from the support its
    projection or move gave, and the gradient at each accepted point is
    formed once, from that point's loss derivative, and the swap and the
    support change take it, and the swap the f that NPG holds, as arguments
    (see the module docstring).  A non-finite objective value, or a non-finite
    gradient step, raises ``FloatingPointError`` naming the iteration and the
    phase (``initial``, ``swap``, ``support change`` or ``trial``), and a trial
    that needs more than ``max_backtracks`` shrinks raises ``RuntimeError``.
    """
    x = _start(obj, set_, s, x0)
    lipschitz = obj.lipschitz
    config.validate_for(lipschitz)
    grid = default_grid(config.tbar, certify_grid_points)
    _require_tol(certify_tol)
    bound = max_backtracks(lipschitz, config.c2, config.t_max, config.tau_shrink)

    steps = _ScreenedSteps(obj, set_, s) if isinstance(obj, _LinearModel) else _DenseSteps(obj)

    columns = _Columns()
    start = time.perf_counter()
    f_initial, g = obj.value_and_grad(x)
    f_hist = [_finite(f_initial, 0, "initial")]
    x_prev = g_prev = None
    supp_x = x.nonzero()[0]
    for k in range(config.max_iter):
        # g_new: the gradient at x_new, when a move has formed it already
        x_new = g_new = None
        if k % config.N == 0 and supp_x.size:
            y = steps.swap(set_, x, supp_x, g, f_hist[-1])
            if not np.array_equal(y, x):
                supp_y = y.nonzero()[0]
                f_y = _finite(steps.value(y, supp_y, y[supp_y]), k, "swap")
                x_new = y
                columns.append("swap", f_y, None, supp_y, _dist_sq(y, x), set_._constraint_gaps(y))
        elif k % config.N == config.q and supp_x.size:
            gap = minimize_support_gap(set_, x, g, config.tbar)
            if gap.value <= config.eta:
                beta = gap.step
                xt, supp_t, xt_supp = steps.project(
                    set_, s, _step(x, beta, g, k, "support change"),
                )
                f_xt = _finite(steps.value(xt, supp_t, xt_supp), k, "support change")
                g_t = None
                if supp_t.size:
                    xh, g_t = steps.support_change(set_, s, xt, supp_t, beta)
                    supp_h = xh.nonzero()[0]
                    f_xh = _finite(steps.value(xh, supp_h, xh[supp_h]), k, "support change")
                    dist_sq = _dist_sq(xh, xt)
                    if f_xh <= f_xt - 0.5 * config.c1 * dist_sq:
                        x_new = xh
                        columns.append(
                            "support_change_accept_hx", f_xh, beta, supp_h, _dist_sq(xh, x),
                            set_._constraint_gaps(xh), 0, f_xt, dist_sq,
                        )
                if x_new is None and beta > 0:
                    x_new, g_new = xt, g_t
                    columns.append(
                        "support_change_accept_tx", f_xt, beta, supp_t, _dist_sq(xt, x),
                        set_._constraint_gaps(xt),
                    )

        if x_new is None:
            if x_prev is None:
                t_trial = min(config.t_max, max(config.t_min, 1.0))
            else:
                t_trial = _bb_stepsize(x, x_prev, g, g_prev, config.t_min, config.t_max)
            f_ref = max(f_hist[-(config.M + 1):])
            backtracks = 0
            while True:
                w, supp_w, w_supp = steps.project(set_, s, _step(x, t_trial, g, k, "trial"))
                fw = _finite(steps.value(w, supp_w, w_supp), k, "trial")
                move_sq = _dist_sq(w, x)
                if fw <= f_ref - 0.5 * config.c2 * move_sq:
                    break
                t_trial *= config.tau_shrink
                backtracks += 1
                if backtracks > bound:
                    raise RuntimeError(
                        f"backtracking at iteration {k} exceeded max_backtracks = {bound}; "
                        f"the objective's lipschitz {lipschitz!r} is likely understated"
                    )
            x_new = w
            columns.append(
                "projected_gradient", fw, t_trial, supp_w, move_sq, set_._constraint_gaps(w),
                backtracks,
            )

        f_hist.append(columns.f_value[-1])
        x_prev, g_prev, x = x, g, x_new
        supp_x = columns.supports[-1][1]  # the support of x, just recorded
        done = abs(f_hist[-1] - f_hist[-2]) <= config.f_tol
        if done:
            break
        g = steps.gradient_at(x) if g_new is None else g_new
    return _finish(obj, set_, s, x, f_initial, columns, done, start, certify, grid, certify_tol)
