"""Seeded problem generators, the benchmark runner, and instance/report file formats.

Three instance families: sparse least squares with an orthonormal-row sensing
matrix (``cs-least-squares``), two-class logistic regression with shifted
Gaussian features (``logistic``), and ill-conditioned least squares over the
sparse probability simplex (``simplex-least-squares``).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields

import numpy as np

from .core import _Record, as_vector, make_rng, support_of
from .objectives import LeastSquares, Logistic
from .projection import _check_sparsity_level
from .sets import SymmetricSet, full_space, nonneg_simplex, parse_set
from .solvers import IterateTrace, benchmark_config, default_stepsize, npg_solve, pg_solve

__all__ = [
    "Instance",
    "BenchRow",
    "BenchReport",
    "FAMILIES",
    "gen_cs_instance",
    "gen_logistic_instance",
    "gen_simplex_instance",
    "gen_instance",
    "run_benchmark",
    "solve_instance",
    "save_instance",
    "load_instance",
    "save_point",
    "load_point",
]

FAMILIES = ("cs-least-squares", "logistic", "simplex-least-squares")

# per-family (M, N, q) schedule for the nonmonotone solver
NPG_SCHEDULE = {
    "cs-least-squares": (4, 5, 3),
    "logistic": (2, 3, 2),
    "simplex-least-squares": (3, 4, 3),
}


@dataclass
class Instance:
    """A generated problem: objective, constraint set, sparsity level, start point."""

    family: str
    m: int
    n: int
    s: int
    seed: int
    objective: LeastSquares | Logistic
    set_: SymmetricSet
    x0: np.ndarray
    ground_truth: np.ndarray | None = None
    sigma: float | None = None


def _instance(family: str, objective: LeastSquares | Logistic, set_: SymmetricSet, s: int,
              x0: np.ndarray, **extra) -> Instance:
    """An instance of the objective's m x n shape; the caller sets the seed."""
    m, n = objective.A.shape
    return Instance(family, m, n, s, -1, objective, set_, x0, **extra)


def _orthonormal_rows(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m x n matrix with orthonormal rows spanning the range of a Gaussian n x m draw."""
    if not m < n:
        raise ValueError("need m < n")
    if m <= 0:
        raise ValueError("m must be positive")
    w = rng.standard_normal((n, m))
    q, _ = np.linalg.qr(w)
    return q.T


def _sparsity_level(s: int | None, n: int) -> int:
    """``s``, checked; by default 1% of the dimension ``n``, at least 1."""
    if s is None:
        s = max(1, round(0.01 * n))
    _check_sparsity_level(s, n)
    return s


def gen_cs_instance(m: int, n: int, s: int, sigma: float, rng: np.random.Generator) -> Instance:
    """Sparse recovery: orthonormal-row A, +-1 planted signal, Gaussian noise.

    Draw order: sensing matrix, planted support, signs, noise.  The start
    point is the origin and the set is all of R^n.
    """
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    _check_sparsity_level(s, n)
    a = _orthonormal_rows(n, m, rng)
    support = np.sort(rng.choice(n, size=s, replace=False))
    truth = np.zeros(n)
    truth[support] = rng.integers(0, 2, size=s) * 2.0 - 1.0
    noise = rng.standard_normal(m)
    b = a @ truth + sigma * noise
    return _instance("cs-least-squares", LeastSquares(a, b), full_space(), s, np.zeros(n),
                     ground_truth=truth, sigma=sigma)


def gen_logistic_instance(
    m: int, n: int, rng: np.random.Generator, s: int | None = None
) -> Instance:
    """Balanced two-class logistic data with one mean per class.

    Every feature of a positive sample is N(mu, 1) with a single mu drawn
    uniformly from [0, 1]; negative samples use a mean from [-1, 0].  The
    classes overlap, so no sparse separator drives the loss to zero.  The
    sparsity level defaults to 1% of the dimension.
    """
    if m % 2 != 0:
        raise ValueError("m must be even")
    if m <= 0:
        raise ValueError("m must be positive")
    s = _sparsity_level(s, n)
    half = m // 2
    mu_pos = float(rng.uniform(0.0, 1.0))
    mu_neg = float(rng.uniform(-1.0, 0.0))
    a = rng.standard_normal((m, n))
    a[:half] += mu_pos
    a[half:] += mu_neg
    labels = np.concatenate([np.ones(half), -np.ones(half)])
    a.flags.writeable = False  # handed to the model, which adopts it
    return _instance("logistic", Logistic(a, labels), full_space(), s, np.zeros(n))


def gen_simplex_instance(
    m: int, n: int, rng: np.random.Generator, s: int | None = None
) -> Instance:
    """Least squares over the sparse unit simplex with row-scaled sensing matrix.

    Rows of the orthonormal base matrix are scaled by i^2, the target is the
    image of a normalized uniform vector, and the start point spreads mass 1
    over the first ``s`` coordinates.
    """
    s = _sparsity_level(s, n)
    base = _orthonormal_rows(n, m, rng)
    scale = np.arange(1, m + 1, dtype=np.float64) ** 2
    a = base * scale[:, None]
    z = rng.uniform(0.0, 1.0, n)
    b = a @ (z / np.sum(z))
    x0 = np.zeros(n)
    x0[:s] = 1.0 / s
    a.flags.writeable = False  # handed to the model, which adopts it
    return _instance("simplex-least-squares", LeastSquares(a, b), nonneg_simplex(1.0), s, x0)


def gen_instance(
    family: str, m: int, n: int, seed: int, s: int | None = None, sigma: float = 0.1
) -> Instance:
    """Generate one seeded instance of the given family."""
    rng = make_rng(seed)
    if family == "cs-least-squares":
        if s is None:
            raise ValueError("cs-least-squares needs an explicit sparsity level")
        inst = gen_cs_instance(m, n, s, sigma, rng)
    elif family == "logistic":
        inst = gen_logistic_instance(m, n, rng, s=s)
    elif family == "simplex-least-squares":
        inst = gen_simplex_instance(m, n, rng, s=s)
    else:
        raise ValueError(f"unknown family {family!r}")
    inst.seed = seed
    return inst


@dataclass
class BenchRow(_Record):
    """One (instance, method) result; a failed solve leaves the results None and sets ``error``."""

    family: str
    m: int
    n: int
    s: int
    method: str
    seed: int
    cardinality: int | None = None
    objective: float | None = None
    time_s: float | None = None
    strong_stationary: bool | None = None
    violation: float | None = None
    iterations: int | None = None
    stop_reason: str | None = None
    error: str | None = None


# the CSV leaves out ``error``; the JSON report keeps it
CSV_COLUMNS = [f.name for f in fields(BenchRow) if f.name != "error"]


@dataclass
class BenchReport:
    """One row per (instance, method) pair, in declaration order."""

    rows: list[BenchRow]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            d = row.to_dict()
            writer.writerow([_csv_cell(d[c]) for c in CSV_COLUMNS])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({"rows": [r.to_dict() for r in self.rows]}, indent=2)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def solve_instance(inst: Instance, method: str, grid_points: int, tol: float,
               f_tol: float, max_iter: int) -> IterateTrace:
    """Solve ``inst`` once with ``method`` (``"pg"`` or ``"npg"``) and the benchmark's settings.

    PG steps at ``default_stepsize`` of the objective's Lipschitz estimate;
    NPG takes ``benchmark_config`` with the family's ``NPG_SCHEDULE``.  Both
    stop on ``f_tol`` or after ``max_iter`` iterations, and certify the final
    point within ``tol`` on ``grid_points`` stepsizes from 0 to the
    solver's step.  Returns the trace; an unknown method raises ValueError.
    """
    lip = inst.objective.lipschitz
    if method == "pg":
        return pg_solve(
            inst.objective,
            inst.set_,
            inst.s,
            inst.x0,
            alpha=default_stepsize(lip),
            f_tol=f_tol,
            max_iter=max_iter,
            certify_grid_points=grid_points,
            certify_tol=tol,
        )
    if method == "npg":
        sched_m, sched_n, sched_q = NPG_SCHEDULE[inst.family]
        config = benchmark_config(lip, sched_m, sched_n, sched_q, f_tol=f_tol, max_iter=max_iter)
        return npg_solve(
            inst.objective,
            inst.set_,
            inst.s,
            inst.x0,
            config,
            certify_grid_points=grid_points,
            certify_tol=tol,
        )
    raise ValueError(f"unknown method {method!r}")


def run_benchmark(
    instances: list[Instance],
    methods: tuple[str, ...] = ("pg", "npg"),
    grid_points: int = 50,
    tol: float = 1e-6,
) -> BenchReport:
    """Run each method on each instance; per-row failures do not abort the batch."""
    rows: list[BenchRow] = []
    for inst in instances:
        for method in methods:
            key = dict(family=inst.family, m=inst.m, n=inst.n, s=inst.s, method=method,
                       seed=inst.seed)
            try:
                trace = solve_instance(inst, method, grid_points, tol, 1e-8, 100_000)
                rows.append(
                    BenchRow(
                        **key,
                        cardinality=int(support_of(trace.x_final).size),
                        objective=trace.f_final,
                        time_s=trace.wall_time_seconds,
                        strong_stationary=trace.certificate.strong,
                        violation=trace.certificate.worst_violation,
                        iterations=trace.iterations,
                        stop_reason=trace.stop_reason,
                    )
                )
            except Exception as exc:  # keep the batch going, surface the error in the row
                rows.append(BenchRow(**key, error=f"{type(exc).__name__}: {exc}"))
    return BenchReport(rows)


def save_instance(path: str, inst: Instance) -> None:
    """Write an instance as an .npz archive.

    Arrays are stored row-major: ``matrix`` (m x n), ``target`` (b for least
    squares, labels for logistic), ``x0``, optional ``ground_truth``, plus a
    JSON ``meta`` string with family, m, n, s, seed, sigma and the set name.
    """
    meta = {
        "family": inst.family,
        "m": inst.m,
        "n": inst.n,
        "s": inst.s,
        "seed": inst.seed,
        "sigma": inst.sigma,
        "set": str(inst.set_),
    }
    obj = inst.objective
    target = obj.labels if isinstance(obj, Logistic) else obj.b
    arrays = {
        "matrix": obj.A,
        "target": target,
        "x0": inst.x0,
        "meta": np.array(json.dumps(meta)),
    }
    if inst.ground_truth is not None:
        arrays["ground_truth"] = inst.ground_truth
    np.savez(path, **arrays)


def _require_keys(path: str, kind: str, present, keys: tuple[str, ...]) -> None:
    missing = [key for key in keys if key not in present]
    if missing:
        raise ValueError(f"{path}: missing {kind} {', '.join(missing)}")


def load_instance(path: str) -> Instance:
    """Read an instance written by :func:`save_instance`.

    A missing array or meta key, an unknown family, meta ``m`` and ``n`` that
    disagree with the arrays, an ``s`` that is not an integer in 1..n-1, or
    arrays no objective or set accepts raise a ``ValueError`` naming the file.
    """
    with np.load(path, allow_pickle=False) as data:
        _require_keys(path, "array", data.files, ("meta", "matrix", "target", "x0"))
        meta = json.loads(str(data["meta"]))
        _require_keys(path, "meta key", meta, ("family", "m", "n", "s", "seed", "sigma", "set"))
        if meta["family"] not in FAMILIES:
            raise ValueError(f"{path}: unknown family {meta['family']!r}")
        matrix = data["matrix"]
        target = data["target"]
        x0 = data["x0"]
        truth = data["ground_truth"] if "ground_truth" in data.files else None
    try:
        if matrix.shape != (meta["m"], meta["n"]):
            raise ValueError(f"meta m={meta['m']}, n={meta['n']} disagree with the "
                             f"matrix shape {matrix.shape}")
        _check_sparsity_level(meta["s"], meta["n"])
        x0 = as_vector(x0, meta["n"])
        set_ = parse_set(meta["set"])
        model = Logistic if meta["family"] == "logistic" else LeastSquares
        objective = model(matrix, target)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    inst = _instance(meta["family"], objective, set_, meta["s"], x0, sigma=meta["sigma"],
                     ground_truth=None if truth is None else np.asarray(truth, dtype=np.float64))
    inst.seed = meta["seed"]
    return inst


def save_point(path: str, x) -> None:
    """Write a vector as one float per line."""
    np.savetxt(path, as_vector(x), fmt="%.17g")


def load_point(path: str) -> np.ndarray:
    """Read a one-float-per-line vector file."""
    return as_vector(np.atleast_1d(np.loadtxt(path)))
