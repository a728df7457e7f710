"""Workloads, the closed-loop solve runner, output checks and metrics.

A workload is a fixed list of instance batches.  One *pass* solves every
instance of the list once, one solve at a time; a run repeats passes while
another one fits in its time.  Counts per layer are reported per pass, times
per call or per instance as the median of its passes, so that they do not
depend on how many passes fit in a run.

The end-to-end times, and the set-up times among the per-layer ones, are
scaled to a reference machine speed.  A shared host can run the same code up
to twice as slowly for seconds to minutes at a time, so a fixed probe
(``Probe``) shaped like the solved family is timed after every solve and every
set-up step, and each time is divided by the *slowdown*, the probe's time over
its reference time ``PROBE_REF_S``.  The probe calls NumPy only, never
sparsepg, so a change to the package moves the scaled times as much as the raw
ones; the raw times are printed as notes.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from sparsepg import gen_instance, make_rng, solve_instance, support_of
from spans import CERTIFICATE_SPAN, ROOT_SPAN, TracedObjective, Tracer, patched

# solve settings of the acceptance suite's table runs
GRID_POINTS = 50
CERT_TOL = 1e-6
F_TOL = 1e-8
FEAS_TOL = 1e-10
# set-up is repeated and its median reported, so one slow generation does not show
SETUP_REPS = 3
# the speed probe's data seed; per family, its iterations (about 1.5 ms of work)
# and its time on a quiet machine (a 4th-generation Xeon vCPU, 1 BLAS thread),
# the reference speed that end-to-end and set-up times are scaled to
PROBE_SEED = 7
PROBE_ITERATIONS = {"cs-least-squares": 24, "simplex-least-squares": 24, "logistic": 3}
PROBE_REF_S = {"cs-least-squares": 1.4e-3, "simplex-least-squares": 1.8e-3, "logistic": 1.6e-3}
# probes on each side of a solve or set-up step whose median slowdown scales it
PROBE_WINDOW = 2
# the acceptance suite puts Table 1 at seeds 1000+, Table 2 at 2000+, Table 3 at 3000+
DEFAULT_SEED_BASE = 1000


@dataclass(frozen=True)
class Batch:
    """``count`` consecutive seeds of one acceptance table, solved with one method."""

    family: str
    m: int
    n: int
    s: int | None  # None: the generator's default, 1% of n
    seed_offset: int
    count: int
    method: str
    max_iter: int = 100_000


def _table1(count, method, **kw):
    return Batch("cs-least-squares", 120, 512, 20, 0, count, method, **kw)


def _table2(count, method, **kw):
    return Batch("logistic", 500, 1000, None, 1000, count, method, **kw)


def _table3(count, method, **kw):
    return Batch("simplex-least-squares", 100, 500, None, 2000, count, method, **kw)


# Batch sizes keep the spread over seeds small: a run's mean over many instances
# varies far less than one instance does.  pg-logistic is capped because uncapped
# solves run to ~100 000 iterations (~40 s each).  In npg-tables the logistic
# solves are capped because their iteration counts range from 2 to over 1 000
# across seeds, so one slow instance would set the workload's time; the cap keeps
# every move kind in play (a swap and a gap test every 3 iterations), and 80% of
# them reach it.  In pg-lsq the least-squares batches are sized unequally so that
# the median solve time falls inside one family's cluster, not between two.
WORKLOADS = {
    "pg-logistic": (_table2(32, "pg", max_iter=250),),
    "pg-lsq": (_table1(96, "pg"), _table3(48, "pg")),
    "npg-tables": (_table1(80, "npg"), _table3(80, "npg"), _table2(60, "npg", max_iter=20)),
}


def instance_seeds(batch: Batch, seed: int, seed_base: int) -> range:
    """Seeds of the batch's instances; seed 0 starts at the acceptance seeds."""
    start = seed_base + batch.seed_offset + seed * batch.count
    return range(start, start + batch.count)


def generate(batches, seed: int, seed_base: int, after_step=None) -> tuple[list, list, list]:
    """Generate every instance, then force its Lipschitz estimate.

    Returns the (batch, instance) pairs and each instance's generation and
    Lipschitz times in seconds.  ``after_step(batch)``, when given, runs after
    each of those steps, outside their times.
    """
    pairs, gen_times, lip_times = [], [], []
    for batch in batches:
        for inst_seed in instance_seeds(batch, seed, seed_base):
            start = time.perf_counter()
            pairs.append((batch, gen_instance(batch.family, batch.m, batch.n, inst_seed, s=batch.s)))
            gen_times.append(time.perf_counter() - start)
            if after_step is not None:
                after_step(batch)
    for batch, inst in pairs:
        start = time.perf_counter()
        inst.objective.lipschitz  # noqa: B018  (forces the lazy estimate)
        lip_times.append(time.perf_counter() - start)
        if after_step is not None:
            after_step(batch)
    return pairs, gen_times, lip_times


@dataclass
class Solve:
    """What one solve produced, as far as the benchmark needs it."""

    key: tuple[str, int, str]
    seconds: float
    error: str | None = None
    slowdown: float = math.nan
    digest: dict | None = None
    iterations: int = 0
    loop_s: float = 0.0
    f_final: float = math.nan
    kinds: Counter = field(default_factory=Counter)
    backtracks: int = 0
    max_iter_hit: bool = False
    spans: dict | None = None
    top: dict | None = None


def check(inst, trace) -> str | None:
    """Why the solve's output is wrong, or None when it passes every check."""
    f_final = trace.f_final
    if not math.isfinite(f_final):
        return f"f_final is {f_final}"
    nonzeros = int(np.count_nonzero(trace.x_final))
    if nonzeros > inst.s:
        return f"x_final has {nonzeros} nonzeros, more than s={inst.s}"
    if not inst.set_.contains(trace.x_final, FEAS_TOL):
        return f"x_final is not in {inst.set_}"
    # both solvers only accept steps that do not raise f above its start value
    if f_final > trace.f_initial + 1e-12 * (1.0 + abs(trace.f_initial)):
        return f"f_final {f_final!r} is above f_initial {trace.f_initial!r}"
    return None


def solve_one(batch: Batch, inst, tracer: Tracer | None = None) -> Solve:
    """Solve, time from outside ``solve_instance``, and check; never raises."""
    job = inst if tracer is None else dataclasses.replace(
        inst, objective=TracedObjective(inst.objective, tracer)
    )
    args = (job, batch.method, GRID_POINTS, CERT_TOL, F_TOL, batch.max_iter)
    key = (inst.family, inst.seed, batch.method)
    start = time.perf_counter()
    try:
        if tracer is None:
            trace = solve_instance(*args)
        else:
            trace = tracer.call(ROOT_SPAN, solve_instance, *args)
        seconds = time.perf_counter() - start
        error = check(inst, trace)
    except Exception as exc:  # a failed solve counts toward fail_ratio; the run goes on
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.flush()
        return Solve(key, seconds, error=f"{type(exc).__name__}: {exc}")
    result = Solve(key, seconds, error=error)
    if tracer is not None:
        result.spans, result.top = tracer.flush()
    if error is not None:
        return result
    records = trace.records
    f_prev = records[-2].f_value if len(records) > 1 else trace.f_initial
    result.digest = {
        "family": inst.family,
        "seed": inst.seed,
        "method": batch.method,
        "iterations": trace.iterations,
        "f_final": format(trace.f_final, ".17g"),
        "support": support_of(trace.x_final).tolist(),
    }
    result.iterations = trace.iterations
    result.loop_s = trace.wall_time_seconds
    result.f_final = trace.f_final
    result.kinds = Counter(rec.step_kind for rec in records)
    result.backtracks = sum(rec.backtracks for rec in records)
    result.max_iter_hit = (
        trace.iterations == batch.max_iter and abs(trace.f_final - f_prev) > F_TOL
    )
    return result


def _simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, v.size + 1) > 0)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1), 0.0)


class Probe:
    """Fixed work shaped like PG iterations on a random matrix of a family's size.

    It calls NumPy only, never sparsepg, so a change to the package does not
    change its time; a change of machine speed does.  Calling it returns the
    slowdown: its time over the family's ``PROBE_REF_S``.  On the simplex
    family each iteration also projects the kept entries onto the simplex by
    sort and threshold, as the family's sparse projection does.
    """

    def __init__(self, batch: Batch):
        rng = make_rng(PROBE_SEED)
        self.mat = rng.standard_normal((batch.m, batch.n)) / math.sqrt(batch.m)
        self.rhs = rng.standard_normal(batch.m)
        self.s = batch.s or max(1, batch.n // 100)
        self.iterations = PROBE_ITERATIONS[batch.family]
        self.ref_s = PROBE_REF_S[batch.family]
        self.simplex = batch.family == "simplex-least-squares"

    def work(self) -> list:
        x = np.zeros(self.mat.shape[1])
        records = []
        for k in range(self.iterations):
            r = self.mat @ x - self.rhs
            y = x - 0.5 * (self.mat.T @ r)
            keep = np.argsort(-np.abs(y), kind="stable")[: self.s]
            x = np.zeros_like(y)
            x[keep] = _simplex(y[keep]) if self.simplex else y[keep]
            records.append({"k": k, "f": 0.5 * float(r @ r), "support": keep.tolist()})
        return records

    def __call__(self) -> float:
        start = time.perf_counter()
        self.work()
        return (time.perf_counter() - start) / self.ref_s


def _median_call_s(fn, reps: int = 200, batches: int = 7) -> float:
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples)


def kernel_floors(inst, seed: int) -> dict[str, float]:
    """Seconds per ``A @ x``, ``A.T @ v`` and stable argsort of n values on the instance's matrix."""
    mat = inst.objective.A
    rng = make_rng(seed)
    x = rng.standard_normal(mat.shape[1])
    v = rng.standard_normal(mat.shape[0])
    return {
        "matvec": _median_call_s(lambda: mat @ x),
        "rmatvec": _median_call_s(lambda: mat.T @ v),
        "argsort": _median_call_s(lambda: np.argsort(x, kind="stable")),
    }


@dataclass
class Outcome:
    """A run's metrics ({name: (value, unit)}), notes for people, and check results."""

    metrics: dict
    notes: list[str]
    solves: list[Solve]
    mismatches: int

    @property
    def attempted(self) -> int:
        return len(self.solves)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.solves if s.error is not None)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.mismatches == 0

    def digest_lines(self) -> list[dict]:
        """One digest per distinct solve, in solve order."""
        seen = {}
        for s in self.solves:
            if s.digest is not None:
                seen.setdefault(s.key, s.digest)
        return list(seen.values())


def _count_mismatches(solves: list[Solve]) -> int:
    """Solves whose digest differs from an earlier solve of the same instance."""
    first: dict = {}
    return sum(
        1
        for s in solves
        if s.digest is not None and first.setdefault(s.key, s.digest) != s.digest
    )


def run(workload: str, seed: int, seconds: float, traced: bool, seed_base: int) -> Outcome:
    """Set up the workload, solve passes while another fits in ``seconds``, and measure."""
    batches = WORKLOADS[workload]
    probes = {b.family: Probe(b) for b in batches}
    setups = []
    for _ in range(SETUP_REPS):
        pairs = None  # drop the previous instances before generating the next ones
        slowdowns = []
        pairs, gen_times, lip_times = generate(
            batches, seed, seed_base, lambda batch: slowdowns.append(probes[batch.family]())
        )
        steps = gen_times + lip_times
        scaled_steps = [t / f for t, f in zip(steps, local_medians(slowdowns))]
        gen_s = sum(scaled_steps[: len(gen_times)])
        setups.append((gen_s, sum(scaled_steps) - gen_s, sum(steps)))

    floors = {}
    if traced:
        for batch, inst in pairs:
            if batch.family not in floors:
                floors[batch.family] = kernel_floors(inst, seed)

    tracer = Tracer()
    plain: list[list[Solve]] = []
    spanned: list[list[Solve]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        plain.append([])
        if traced:
            spanned.append([])
        slowdowns = []
        for batch, inst in pairs:
            plain[-1].append(solve_one(batch, inst))
            if traced:
                # right after the untraced solve of the same instance, so the
                # pair sees the same machine state and their ratio is the overhead
                with patched(tracer):
                    spanned[-1].append(solve_one(batch, inst, tracer))
            else:
                slowdowns.append(probes[batch.family]())
        if not traced:
            for solve, slowdown in zip(plain[-1], local_medians(slowdowns)):
                solve.slowdown = slowdown
        # start another pass only if one more like the last still ends in time
        now = time.perf_counter()
        if now + (now - pass_start) > start + seconds:
            break

    solves = [s for rnd in plain + spanned for s in rnd]
    gen_s = statistics.median(g for g, _, _ in setups)
    lip_s = statistics.median(lip for _, lip, _ in setups)
    setup_s = statistics.median(g + lip for g, lip, _ in setups)
    notes = [
        f"instances: {len(pairs)} ("
        + ", ".join(
            f"{b.count} {b.family} {b.method} seeds {instance_seeds(b, seed, seed_base)[0]}+"
            + (f" max_iter {b.max_iter}" if b.max_iter != Batch.max_iter else "")
            for b in batches
        )
        + f"); passes: {len(plain)} untraced, {len(spanned)} traced",
        f"setup: median of {SETUP_REPS}, gen {gen_s:.4f} s + lipschitz {lip_s:.4f} s; "
        f"raw {statistics.median(raw for _, _, raw in setups):.4f} s",
    ]
    if traced:
        metrics = layer_metrics(spanned, plain, floors, pairs, gen_s, lip_s)
    else:
        metrics, more = end_to_end_metrics(plain, setup_s)
        notes += more
    return Outcome(metrics, notes, solves, _count_mismatches(solves))


def local_medians(slowdowns: list[float]) -> list[float]:
    """Each slowdown's median with its ``PROBE_WINDOW`` neighbours on each side."""
    return [
        statistics.median(slowdowns[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1])
        for i in range(len(slowdowns))
    ]


def end_to_end_metrics(passes: list[list[Solve]], setup_s: float) -> tuple[dict, list[str]]:
    # each instance's median over the passes of its time at the reference speed
    times = [statistics.median(s.seconds / s.slowdown for s in same) for same in zip(*passes)]
    raw = [statistics.median(s.seconds for s in same) for same in zip(*passes)]
    slowdowns = [s.slowdown for rnd in passes for s in rnd]
    ok = [s for s in passes[0] if s.error is None]
    per_family: dict[str, list[float]] = defaultdict(list)
    for s in ok:
        per_family[s.key[0]].append(s.f_final)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(times), "s"),
        "solve_s_p50": (statistics.median(times), "s"),
        "objective_mean": (statistics.fmean(s.f_final for s in ok) if ok else math.nan, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"wall_s: sum over {len(times)} instances of each one's median scaled solve time over "
        f"{len(passes)} passes",
        f"solve_s_p50: median over the same {len(times)} instances (n={len(times)})",
        f"raw: wall {sum(raw):.4f} s, solve p50 {statistics.median(raw):.6f} s; "
        f"median slowdown {statistics.median(slowdowns):.4f}",
        "objective_mean by family: "
        + ", ".join(f"{fam} {statistics.fmean(v):.6g} (n={len(v)})" for fam, v in per_family.items()),
    ]
    return metrics, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spanned, plain, floors, pairs, gen_s, lip_s) -> dict:
    passes = len(spanned)
    solves = [s for rnd in spanned for s in rnd if s.error is None]
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    kinds: Counter = Counter()
    objective_floor = projection_floor = loop_self = 0.0
    for s in solves:
        for name, (calls, self_s, incl_s) in s.spans.items():
            entry = totals[name]
            entry[0] += calls
            entry[1] += self_s
            entry[2] += incl_s
        floor = floors[s.key[0]]
        count = {name: entry[0] for name, entry in s.spans.items()}.get
        objective_floor += count("objectives.value", 0) * floor["matvec"] + (
            count("objectives.grad", 0) + count("objectives.value_and_grad", 0)
        ) * (floor["matvec"] + floor["rmatvec"])
        projection_floor += count("projection.project_sparse", 0) * floor["argsort"]
        loop_self += s.loop_s - sum(t for name, t in s.top.items() if name != CERTIFICATE_SPAN)
        kinds.update(s.kinds)

    def calls(name):
        return totals[name][0]

    def self_us(name):
        return _ratio(totals[name][1], totals[name][0]) * 1e6

    iterations = sum(s.iterations for s in solves)
    loop_s = sum(s.loop_s for s in solves)
    backtracks = sum(s.backtracks for s in solves)
    root_s = totals[ROOT_SPAN][2]
    certificate_s = totals[CERTIFICATE_SPAN][2]
    layer_self_s = sum(entry[1] for name, entry in totals.items() if name != ROOT_SPAN)
    objective_names = ("objectives.value", "objectives.grad", "objectives.value_and_grad")
    changes = kinds["support_change_accept_hx"] + kinds["support_change_accept_tx"]
    m: dict = {
        "bench.gen_s": (gen_s, "s"),
        "objectives.lipschitz_s": (lip_s, "s"),
    }
    for name in objective_names:
        m[f"{name}.calls"] = (calls(name) / passes, "count")
        m[f"{name}.us"] = (self_us(name), "us")
    m["objectives.matvecs"] = (
        (calls(objective_names[0]) + 2 * (calls(objective_names[1]) + calls(objective_names[2])))
        / passes,
        "count",
    )
    m["objectives.floor_ratio"] = (
        _ratio(sum(totals[name][1] for name in objective_names), objective_floor),
        "ratio",
    )
    m["projection.project_sparse.calls"] = (calls("projection.project_sparse") / passes, "count")
    m["projection.project_sparse.us"] = (self_us("projection.project_sparse"), "us")
    m["projection.floor_ratio"] = (
        _ratio(totals["projection.project_sparse"][2], projection_floor),
        "ratio",
    )
    m["sets.ranking_values.calls"] = (calls("sets.ranking_values") / passes, "count")
    m["sets.ranking_values.us"] = (self_us("sets.ranking_values"), "us")
    m["sets.project_sub.calls"] = (calls("sets.project_sub") / passes, "count")
    m["sets.project_sub.us"] = (self_us("sets.project_sub"), "us")
    for name in ("subroutines.coordinate_swap", "subroutines.change_support"):
        m[f"{name}.calls"] = (calls(name) / passes, "count")
        m[f"{name}.us"] = (self_us(name), "us")
    m["subroutines.swap_accept_ratio"] = (
        _ratio(kinds["swap"], calls("subroutines.coordinate_swap")),
        "ratio",
    )
    m["subroutines.hx_accept_ratio"] = (
        _ratio(kinds["support_change_accept_hx"], calls("subroutines.change_support")),
        "ratio",
    )
    gap = "stationarity.minimize_support_gap"
    m[f"{gap}.calls"] = (calls(gap) / passes, "count")
    m[f"{gap}.us"] = (self_us(gap), "us")
    m["stationarity.gap_gate_ratio"] = (_ratio(changes, calls(gap)), "ratio")
    m["stationarity.certificate_ms"] = (_ratio(certificate_s, len(solves)) * 1e3, "ms")
    m["stationarity.certificate_share"] = (_ratio(certificate_s, root_s), "ratio")
    m["solvers.iterations"] = (iterations / passes, "count")
    m["solvers.loop_s"] = (loop_s / passes, "s")
    m["solvers.iter_us"] = (_ratio(loop_s, iterations) * 1e6, "us")
    m["solvers.self_us"] = (_ratio(loop_self, iterations) * 1e6, "us")
    m["solvers.backtracks"] = (backtracks / passes, "count")
    m["solvers.backtrack_ratio"] = (
        _ratio(backtracks, backtracks + kinds["projected_gradient"]),
        "ratio",
    )
    m["solvers.max_iter_hits"] = (sum(s.max_iter_hit for s in solves) / passes, "count")
    for kernel in ("matvec", "rmatvec", "argsort"):
        m[f"kernel.{kernel}_us"] = (
            statistics.fmean(floors[b.family][kernel] for b, _ in pairs) * 1e6,
            "us",
        )
    m["kernel.matvec_bytes"] = (
        statistics.fmean(8.0 * (b.m * b.n + b.m + b.n) for b, _ in pairs),
        "B",
    )
    untraced_s = sum(s.seconds for rnd in plain for s in rnd)
    m["trace.overhead_ratio"] = (sum(s.seconds for s in solves) / untraced_s - 1.0, "ratio")
    m["trace.accounted_ratio"] = (_ratio(layer_self_s + loop_self, root_s), "ratio")
    return m
