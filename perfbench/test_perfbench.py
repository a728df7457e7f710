"""Self-test of the benchmark: tracing changes no result, and span counts match hand counts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json

import run

run.import_package()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import digest  # noqa: E402
import harness  # noqa: E402
from sparsepg import Instance, LeastSquares, full_space, solve_instance, support_of  # noqa: E402
from sparsepg.bench import NPG_SCHEDULE  # noqa: E402
from spans import ROOT_SPAN, Tracer, TracedObjective, patched  # noqa: E402

TINY = (
    harness.Batch("cs-least-squares", 30, 80, 4, 0, 2, "pg"),
    harness.Batch("cs-least-squares", 30, 80, 4, 0, 2, "npg"),
    harness.Batch("logistic", 40, 60, 3, 1000, 2, "npg", max_iter=30),
    harness.Batch("simplex-least-squares", 20, 60, 3, 2000, 2, "pg"),
    harness.Batch("simplex-least-squares", 20, 60, 3, 2000, 2, "npg"),
)


def _traced_solve(inst, method, tracer):
    job = dataclasses.replace(inst, objective=TracedObjective(inst.objective, tracer))
    with patched(tracer):
        trace = tracer.call(
            ROOT_SPAN, solve_instance, job, method, harness.GRID_POINTS, harness.CERT_TOL,
            harness.F_TOL, 100_000,
        )
    spans = list(tracer.spans)
    calls = {name: entry[0] for name, entry in tracer.flush()[0].items()}
    return trace, spans, calls


def test_traced_and_untraced_digests_are_identical():
    pairs, _, _ = harness.generate(TINY, seed=3, seed_base=harness.DEFAULT_SEED_BASE)
    tracer = Tracer()
    plain, traced = [], []
    for batch, inst in pairs:
        plain.append(harness.solve_one(batch, inst))
        with patched(tracer):
            traced.append(harness.solve_one(batch, inst, tracer))
    assert all(s.error is None for s in plain + traced)
    assert [s.digest for s in plain] == [s.digest for s in traced]
    by_key = {s.key: s.digest for s in plain}
    assert digest.differences(by_key, {s.key: s.digest for s in traced}) == []
    assert len(by_key) == len(pairs)


def test_patch_points_are_restored():
    from sparsepg import solvers
    from sparsepg.sets import SymmetricSet

    before = (solvers.project_sparse, vars(SymmetricSet)["ranking_values"])
    with patched(Tracer()):
        assert solvers.project_sparse is not before[0]
    assert (solvers.project_sparse, vars(SymmetricSet)["ranking_values"]) == before


def test_pg_call_counts_match_hand_count():
    # f(x) = 0.5 ||x - b||^2 with s = 1 and L = 1: from x0 = 0 each step keeps
    # coordinate 0 and shrinks its error by 0.005, so f = 4.5, 1.1e-4, 2.8e-9,
    # 7.0e-14 and the third step changes f by less than f_tol = 1e-8.
    b = np.array([3.0, 0.0, 0.0, 0.0])
    inst = Instance("hand", 4, 4, 1, 0, LeastSquares(np.eye(4), b), full_space(), np.zeros(4))
    trace, spans, calls = _traced_solve(inst, "pg", Tracer())
    grid = harness.GRID_POINTS
    assert trace.iterations == 3
    assert calls == {
        ROOT_SPAN: 1,
        # one before the loop, one per iteration
        "objectives.value_and_grad": 4,
        # the certificate: one gradient, one value, and no grid step leaves the point
        "objectives.grad": 1,
        "objectives.value": 1,
        "stationarity.check_strong_stationary": 1,
        # one per iteration plus one per certificate grid step
        "projection.project_sparse": 3 + grid,
        "sets.project_sub": 3 + grid,
        # one per projection, plus the certificate's uniqueness test at each step
        "sets.ranking_values": 3 + 2 * grid,
    }
    names = [span[0] for span in spans]
    certificate = names.index("stationarity.check_strong_stationary")
    nested = [s for s in spans if s[1] == certificate and s[0] == "projection.project_sparse"]
    assert len(nested) == grid
    assert all(parent == -1 for name, parent, _, _ in spans if name == ROOT_SPAN)


def test_npg_call_counts_match_the_move_schedule():
    pairs, _, _ = harness.generate(TINY[1:2], seed=0, seed_base=harness.DEFAULT_SEED_BASE)
    inst = pairs[0][1]
    trace, _, calls = _traced_solve(inst, "npg", Tracer())
    _, n_sched, q_sched = NPG_SCHEDULE[inst.family]
    supports = [support_of(inst.x0)] + [rec.support for rec in trace.records]
    moving = [k for k in range(trace.iterations) if 0 < supports[k].size < inst.n]
    swaps = sum(1 for k in moving if k % n_sched == 0)
    gaps = sum(1 for k in moving if k % n_sched == q_sched)
    kinds = [rec.step_kind for rec in trace.records]
    changes = calls.get("subroutines.change_support", 0)
    assert swaps > 0 and gaps > 0
    assert calls["subroutines.coordinate_swap"] == swaps
    assert calls["stationarity.minimize_support_gap"] == gaps
    # a gradient after every iteration but the last, one in each swap and each
    # support change, and one in the certificate
    assert calls["objectives.grad"] == trace.iterations - 1 + swaps + changes + 1
    assert calls["objectives.value_and_grad"] == 1
    assert kinds.count("support_change_accept_hx") <= changes


@pytest.mark.parametrize("traced", [False, True])
def test_run_reports_the_declared_metrics(monkeypatch, traced):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    outcome = harness.run("tiny", seed=1, seconds=0.01, traced=traced, seed_base=1000)
    assert outcome.correct and outcome.failed == 0
    assert outcome.attempted == len(outcome.digest_lines()) * (2 if traced else 1)
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    assert list(outcome.metrics) == [m["name"] for m in declared]
    assert all(outcome.metrics[m["name"]][1] == m["unit"] for m in declared)
    if traced:
        assert 0.9 < outcome.metrics["trace.accounted_ratio"][0] <= 1.0 + 1e-9


def test_end_to_end_times_are_scaled_by_the_probe():
    def solve(seed, seconds, slowdown):
        return harness.Solve(("f", seed, "pg"), seconds, slowdown=slowdown, f_final=1.0)

    passes = [
        [solve(1, 0.010, 1.0), solve(2, 0.030, 1.0)],
        [solve(1, 0.020, 2.0), solve(2, 0.090, 2.0)],  # a pass at half speed
        [solve(1, 0.014, 1.0), solve(2, 0.032, 1.0)],
    ]
    metrics, _ = harness.end_to_end_metrics(passes, setup_s=1.0)
    # per instance: the median of (0.010, 0.010, 0.014) and of (0.030, 0.045, 0.032)
    assert metrics["wall_s"][0] == pytest.approx(0.010 + 0.032)
    assert metrics["solve_s_p50"][0] == pytest.approx((0.010 + 0.032) / 2)


def test_check_rejects_infeasible_output():
    pairs, _, _ = harness.generate(TINY[:1], seed=0, seed_base=harness.DEFAULT_SEED_BASE)
    inst = pairs[0][1]
    trace = solve_instance(inst, "pg", 5, 1e-6, 1e-8, 100)
    assert harness.check(inst, trace) is None
    trace.x_final = np.ones(inst.n)
    assert "nonzeros" in harness.check(inst, trace)
    trace.f_final = float("nan")
    assert "f_final" in harness.check(inst, trace)


def test_digest_tolerance():
    row = {"family": "f", "seed": 1, "method": "pg", "iterations": 3, "f_final": "2", "support": [0]}
    a = {("f", 1, "pg"): row}
    assert digest.differences(a, {("f", 1, "pg"): {**row, "f_final": repr(2 + 1e-12)}}) == []
    assert digest.differences(a, {("f", 1, "pg"): {**row, "f_final": repr(2 + 1e-10)}})
    assert digest.differences(a, {("f", 1, "pg"): {**row, "support": [1]}})
    assert digest.differences(a, {})
