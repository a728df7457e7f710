"""Command line interface: generate instances, solve them, benchmark, certify points.

Exit codes: 0 success, 1 usage error, 2 solver or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import bench as bench_mod
from .core import support_of
from .solvers import default_stepsize
from .stationarity import (
    check_coordinatewise,
    check_strong_stationary,
    default_grid,
)

USAGE_ERROR = 1
SOLVER_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; usage errors are exit code 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _add_instance_args(p: argparse.ArgumentParser, require_family: bool) -> None:
    p.add_argument("--family", choices=bench_mod.FAMILIES, required=require_family,
                   action="append" if not require_family else None,
                   help="instance family" + ("" if require_family else " (repeatable)"))
    p.add_argument("--m", type=int, required=True, help="number of rows/samples")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--s", type=int, default=None, help="sparsity level (default: family rule)")
    p.add_argument("--sigma", type=float, default=0.1, help="noise level (cs family)")
    p.add_argument("--seed", type=int, default=0, help="base random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparsepg", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_gen = sub.add_parser("gen", parents=[], help="generate an instance file")
    _add_instance_args(p_gen, require_family=True)
    p_gen.add_argument("--out", required=True, help="output .npz path")

    p_solve = sub.add_parser("solve", help="solve one instance with one method")
    p_solve.add_argument("instance", help="instance .npz file")
    p_solve.add_argument("--method", choices=("pg", "npg"), required=True)
    p_solve.add_argument("--out", default=None, help="trace JSON path (default: stdout summary only)")

    p_bench = sub.add_parser("bench", help="run the benchmark table")
    _add_instance_args(p_bench, require_family=False)
    p_bench.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    p_bench.add_argument("--method", choices=("pg", "npg", "both"), default="both")
    p_bench.add_argument("--out", default=None, help="output path (default: stdout)")
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")

    p_cert = sub.add_parser("certify", help="stationarity report for a point file")
    p_cert.add_argument("instance", help="instance .npz file")
    p_cert.add_argument("--point", required=True, help="point file, one float per line")
    p_cert.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    for p in (p_solve, p_bench, p_cert):  # last in each verb's --help
        p.add_argument("--grid-points", type=int, default=50)
        p.add_argument("--tol", type=float, default=1e-6)
    return parser


def _cmd_gen(args) -> int:
    inst = bench_mod.gen_instance(
        args.family, args.m, args.n, args.seed, s=args.s, sigma=args.sigma
    )
    bench_mod.save_instance(args.out, inst)
    print(f"wrote {args.out}: {inst.family} m={inst.m} n={inst.n} s={inst.s} seed={inst.seed}")
    return 0


def _cmd_solve(args) -> int:
    inst = bench_mod.load_instance(args.instance)
    trace = bench_mod.solve_instance(
        inst, args.method, args.grid_points, args.tol, f_tol=1e-8, max_iter=100_000
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(trace.to_dict(), fh, indent=2)
    columns = trace._columns
    print(
        f"{args.method}: f={trace.f_final:.6g} iterations={trace.iterations} "
        f"cardinality={support_of(trace.x_final).size} time_s={trace.wall_time_seconds:.3f} "
        f"certificate_s={trace.certificate_seconds:.3f} "
        f"strong_stationary={trace.certificate.strong} "
        f"stop_reason={trace.stop_reason} screened_steps={trace.screened_steps} "
        f"moves={'/'.join(map(str, columns.move_counts()))} backtracks={sum(columns.backtracks)}"
    )
    return 0


def _cmd_bench(args) -> int:
    families = args.family or list(bench_mod.FAMILIES)
    seeds = range(args.seed, args.seed + args.seeds)
    instances = [
        bench_mod.gen_instance(fam, args.m, args.n, seed, s=args.s, sigma=args.sigma)
        for fam in families
        for seed in seeds
    ]
    methods = ("pg", "npg") if args.method == "both" else (args.method,)
    report = bench_mod.run_benchmark(
        instances, methods, grid_points=args.grid_points, tol=args.tol
    )
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failed = [row for row in report.rows if row.error]
    for row in failed:
        print(f"sparsepg: error: {row.family} seed {row.seed} {row.method}: {row.error}",
              file=sys.stderr)
    return SOLVER_ERROR if failed else 0


def _cmd_certify(args) -> int:
    inst = bench_mod.load_instance(args.instance)
    x = bench_mod.load_point(args.point)
    grid = default_grid(default_stepsize(inst.objective.lipschitz), args.grid_points)
    report = check_strong_stationary(inst.objective, inst.set_, inst.s, x, grid, args.tol)
    coord = check_coordinatewise(inst.objective, inst.set_, inst.s, x, grid, args.tol)
    text = json.dumps(dataclasses.replace(report, coordinatewise=coord).to_dict(), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "certify": _cmd_certify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"sparsepg: error: {exc}", file=sys.stderr)
        return SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
