"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Certificate-quality runs (criterion 5) emulate the solver limit by tightening
the consecutive-objective tolerance; table-style runs (criteria 6-8) use the
standard benchmark parameterization.  Criterion 4 audits the backtracking of
every nonmonotone run the suite performed, and criterion 9 audits every
witness any stationarity certificate emitted.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from sparsepg import (
    benchmark_config,
    catalog,
    check_strong_stationary,
    default_grid,
    gen_instance,
    make_rng,
    max_backtracks,
    minimize_support_gap,
    npg_solve,
    pg_solve,
    project_sparse,
    support_gap,
    support_of,
)
from sparsepg.bench import NPG_SCHEDULE
from oracles import brute_force_project, gap_on_grid

ALL_SETS = catalog()

# (lipschitz, config, trace) for every nonmonotone run, audited by criterion 4
_NPG_RUNS: list[tuple] = []
# (objective, point, certificate) for every certificate, audited by criterion 9
_CERTIFICATES: list[tuple] = []


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _run_npg(inst, f_tol, max_iter):
    sched_m, sched_n, sched_q = NPG_SCHEDULE[inst.family]
    config = benchmark_config(
        inst.objective.lipschitz, sched_m, sched_n, sched_q, f_tol=f_tol, max_iter=max_iter
    )
    trace = npg_solve(inst.objective, inst.set_, inst.s, inst.x0, config)
    _NPG_RUNS.append((inst.objective.lipschitz, config, trace))
    _CERTIFICATES.append((inst.objective, trace.x_final, trace.certificate))
    return config, trace


def _run_pg(inst, f_tol=1e-8, max_iter=100_000):
    trace = pg_solve(
        inst.objective,
        inst.set_,
        inst.s,
        inst.x0,
        alpha=0.995 / inst.objective.lipschitz,
        f_tol=f_tol,
        max_iter=max_iter,
    )
    _CERTIFICATES.append((inst.objective, trace.x_final, trace.certificate))
    return trace


@lru_cache(maxsize=None)
def certificate_runs():
    """Criterion 5 runs: tight-tolerance solves whose limits are certified."""
    out = []
    for seed in range(10):
        inst = gen_instance("cs-least-squares", 60, 256, 500 + seed, s=10, sigma=0.1)
        out.append((inst, *_run_npg(inst, f_tol=1e-13, max_iter=30_000)))
    for seed in range(10):
        inst = gen_instance("logistic", 100, 200, 700 + seed)
        out.append((inst, *_run_npg(inst, f_tol=1e-13, max_iter=30_000)))
    return out


@lru_cache(maxsize=None)
def table1_runs():
    out = []
    for seed in range(10):
        inst = gen_instance("cs-least-squares", 120, 512, 1000 + seed, s=20, sigma=0.1)
        pg = _run_pg(inst)
        _, npg = _run_npg(inst, f_tol=1e-8, max_iter=100_000)
        out.append((inst, pg, npg))
    return out


@lru_cache(maxsize=None)
def table2_runs():
    out = []
    for seed in range(10):
        inst = gen_instance("logistic", 500, 1000, 2000 + seed)
        pg = _run_pg(inst)
        _, npg = _run_npg(inst, f_tol=1e-8, max_iter=100_000)
        out.append((inst, pg, npg))
    return out


@lru_cache(maxsize=None)
def table3_runs():
    out = []
    for seed in range(10):
        inst = gen_instance("simplex-least-squares", 100, 500, 3000 + seed)
        pg = _run_pg(inst)
        _, npg = _run_npg(inst, f_tol=1e-8, max_iter=100_000)
        out.append((inst, pg, npg))
    return out


def test_criterion_01_projection_oracle_equivalence():
    rng = make_rng(42)
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for set_ in ALL_SETS:
        for n in range(4, 9):
            for s in (1, 2, 3):
                for _ in range(500):
                    x = rng.standard_normal(n)
                    ours = project_sparse(set_, s, x).point
                    best = min(
                        float(np.sum((w.point - x) ** 2))
                        for w in brute_force_project(set_, s, x)
                    )
                    worst = max(worst, float(np.sum((ours - x) ** 2)) - best)
                    cases += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    _report(1, ok, f"{cases} projections, worst excess {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gap_minimizer_grid_oracle():
    rng = make_rng(43)
    start = time.perf_counter()
    worst_value_err = 0.0
    worst_step_excess = -np.inf
    for trial in range(200):
        set_ = ALL_SETS[trial % len(ALL_SETS)]
        n = int(rng.integers(3, 13))
        nnz = int(rng.integers(1, n))
        x = np.zeros(n)
        idx = rng.choice(n, size=nnz, replace=False)
        vals = rng.standard_normal(nnz)
        if set_.kind == "nonnegative":
            vals = np.abs(vals) + 0.05
        x[idx] = vals
        grad = rng.standard_normal(n)
        t_max = float(rng.uniform(0.05, 2.0))
        gm = minimize_support_gap(set_, x, grad, t_max)
        _, grid_vals = gap_on_grid(set_, x, grad, t_max, base_points=10_000)
        grid_min = float(grid_vals.min())
        worst_value_err = max(
            worst_value_err, abs(gm.value - grid_min) / (1.0 + abs(gm.value))
        )
        worst_step_excess = max(
            worst_step_excess, support_gap(set_, x, grad, gm.step) - grid_min
        )
    elapsed = time.perf_counter() - start
    ok = worst_value_err <= 1e-8 and worst_step_excess <= 1e-8 and elapsed < 10.0
    _report(
        2,
        ok,
        f"200 tuples, value err {worst_value_err:.2e}, "
        f"step excess {worst_step_excess:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_pg_descent_inequality():
    violations = 0
    steps = 0
    for seed in range(20):
        inst = gen_instance("cs-least-squares", 60, 256, 100 + seed, s=10, sigma=0.1)
        lip = inst.objective.lipschitz
        alpha = 0.995 / lip
        trace = pg_solve(
            inst.objective, inst.set_, inst.s, inst.x0, alpha, certify=False
        )
        f_vals = trace.f_values
        for idx, rec in enumerate(trace.records):
            bound = f_vals[idx] - 0.5 * (1.0 / alpha - lip) * rec.move_sq
            if rec.f_value > bound + 1e-9 * (1.0 + abs(f_vals[idx])):
                violations += 1
            steps += 1
    _report(3, violations == 0, f"{steps} projected-gradient steps, {violations} violations")


def test_criterion_04_backtracking_bound():
    certificate_runs()
    table1_runs()
    table2_runs()
    table3_runs()
    total_records = 0
    bad = 0
    for lipschitz, config, trace in _NPG_RUNS:
        bound = max_backtracks(lipschitz, config.c2, config.t_max, config.tau_shrink)
        t_floor = min(config.t_min, config.tau_shrink / (lipschitz + config.c2))
        for rec in trace.records:
            if rec.step_kind != "projected_gradient":
                continue
            total_records += 1
            if rec.backtracks > bound:
                bad += 1
            if not (t_floor * (1.0 - 1e-12) <= rec.stepsize <= config.t_max):
                bad += 1
    _report(
        4,
        bad == 0 and total_records > 0,
        f"{len(_NPG_RUNS)} runs, {total_records} gradient steps, {bad} bound violations",
    )


def test_criterion_05_strong_stationary_limits():
    runs = certificate_runs()
    strong = sum(1 for _, _, trace in runs if trace.certificate.strong)
    worst = max(trace.certificate.worst_violation for _, _, trace in runs)
    _report(5, strong >= 19, f"{strong}/20 strong-stationary terminal points, worst fixed-point gap {worst:.2e}")


def test_criterion_06_table1_pattern():
    runs = table1_runs()
    cards_ok = all(
        support_of(pg.x_final).size == 20 and support_of(npg.x_final).size == 20
        for _, pg, npg in runs
    )
    npg_better = sum(1 for _, pg, npg in runs if npg.f_final < pg.f_final)
    slowest = max(max(pg.wall_time_seconds, npg.wall_time_seconds) for _, pg, npg in runs)
    ok = cards_ok and npg_better >= 8 and slowest < 5.0
    _report(
        6,
        ok,
        f"cardinality-20 everywhere: {cards_ok}, nonmonotone better {npg_better}/10, "
        f"slowest solve {slowest:.2f}s",
    )


def test_criterion_07_table2_pattern():
    runs = table2_runs()
    obj_better = sum(1 for _, pg, npg in runs if npg.f_final <= pg.f_final)
    time_better = sum(
        1 for _, pg, npg in runs if npg.wall_time_seconds <= pg.wall_time_seconds
    )
    slowest = max(max(pg.wall_time_seconds, npg.wall_time_seconds) for _, pg, npg in runs)
    ok = obj_better >= 8 and time_better >= 8 and slowest < 60.0
    _report(
        7,
        ok,
        f"objective no worse {obj_better}/10, faster {time_better}/10, slowest {slowest:.1f}s",
    )


def test_criterion_08_table3_feasibility_and_pattern():
    runs = table3_runs()
    feasible = True
    for inst, pg, npg in runs:
        for trace in (pg, npg):
            start_shape, start_nonneg = inst.set_.constraint_gaps(inst.x0)
            feasible &= start_shape <= 1e-10 and start_nonneg <= 1e-12
            feasible &= support_of(inst.x0).size <= inst.s
            for rec in trace.records:
                feasible &= rec.shape_gap <= 1e-10
                feasible &= rec.nonneg_gap <= 1e-12
                feasible &= rec.support.size <= inst.s
    npg_better = sum(1 for _, pg, npg in runs if npg.f_final < pg.f_final)
    slowest = max(max(pg.wall_time_seconds, npg.wall_time_seconds) for _, pg, npg in runs)
    ok = feasible and npg_better >= 8 and slowest < 10.0
    _report(
        8,
        ok,
        f"all iterates feasible: {feasible}, nonmonotone better {npg_better}/10, "
        f"slowest {slowest:.2f}s",
    )


def test_criterion_09_witness_improvement():
    # make sure all suite certificates exist, then deliberately provoke
    # witnesses from perturbed points of the table-1 instances
    certificate_runs()
    table1_runs()
    table2_runs()
    table3_runs()
    provoked = []
    for inst, pg, _ in table1_runs()[:5]:
        x = pg.x_final
        supp = support_of(x)
        wrong = np.zeros_like(x)
        free = np.setdiff1d(np.arange(x.size), supp)[: supp.size]
        wrong[free] = x[supp]  # same values parked on a support the data ignores
        grid = default_grid(0.995 / inst.objective.lipschitz, 50)
        report = check_strong_stationary(
            inst.objective, inst.set_, inst.s, wrong, grid, 1e-6
        )
        provoked.append((inst.objective, wrong, report))
    checked = 0
    bad = 0
    for obj, point, cert in _CERTIFICATES + provoked:
        if cert is not None and cert.witness is not None:
            checked += 1
            if not obj.value(cert.witness) < obj.value(point):
                bad += 1
    ok = bad == 0 and checked > 0
    _report(9, ok, f"{checked} witnesses emitted, {bad} without strict improvement")


def test_criterion_10_order_preservation():
    rng = make_rng(44)
    worst = 0.0
    for trial in range(1000):
        set_ = ALL_SETS[trial % len(ALL_SETS)]
        n = int(rng.integers(3, 11))
        x = rng.standard_normal(n) * float(rng.uniform(0.2, 3.0))
        y = set_.project(x)
        px = set_.ranking_values(x)
        py = set_.ranking_values(y)
        prod = np.subtract.outer(py, py) * np.subtract.outer(px, px)
        worst = min(worst, float(prod.min()))
    _report(10, worst >= -1e-12, f"1000 pairs, most negative product {worst:.2e}")
