"""Benchmark of sparsepg on the acceptance-table instances.

Run from the repository root:

    python3 perfbench/run.py --workload pg-lsq --seed 0 --seconds 30 --trace 0

The instances are generated from ``--seed`` (seed 0 starts at the acceptance
suite's seeds; ``--seed-base`` moves them) and solved one at a time, the next
after the previous returns, in a single process.  Passes over the workload's
instances repeat while another one fits in ``--seconds``.  Every solve is
checked; a failed check or an exception counts as a failed solve and the run
goes on, and an instance whose repeated solves disagree makes the run incorrect.

``--trace 0`` prints the end-to-end metrics, their times scaled to a reference
machine speed by a probe timed after every solve (see ``harness``; the raw
times are printed above the result).  ``--trace 1`` solves each
instance untraced and then traced and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A per-solve digest (one JSON
object per line) goes to ``--digest``; compare two of them with
``perfbench/digest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A fixed BLAS thread count (never above the usable CPUs).  One thread: on a
# shared 2-CPU machine two threads made Table-2 solves ~35% faster but their
# run-to-run spread ~4x wider, because each product waits for both threads.
BLAS_THREADS = 1
WORKLOAD_NAMES = ("pg-logistic", "pg-lsq", "npg-tables")


def pin_blas_threads() -> tuple[int, int]:
    """Fix the BLAS thread count before NumPy loads; returns (threads, nproc)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(BLAS_THREADS, nproc or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, nproc


def import_package():
    """Import sparsepg from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "sparsepg" / "__init__.py").is_file():
        raise SystemExit(f"error: no sparsepg sources under {src}")
    sys.path.insert(0, str(src))
    import sparsepg

    if Path(sparsepg.__file__).resolve().parent != (src / "sparsepg").resolve():
        raise SystemExit(f"error: imported sparsepg from {sparsepg.__file__}, not {src}")
    return sparsepg


def blas_version(np) -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (KeyError, TypeError, ValueError):
        return "unknown"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--seed-base",
        type=int,
        default=None,
        help="first Table-1 seed; Tables 2 and 3 start 1000 and 2000 later (default 1000)",
    )
    parser.add_argument("--digest", type=Path, default=None, help="per-solve digest file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.digest is None:
        args.digest = (
            ROOT / "perfbench" / "out" / f"digest-{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
        )
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    threads, nproc = pin_blas_threads()
    import_package()
    import numpy as np

    import harness

    seed_base = harness.DEFAULT_SEED_BASE if args.seed_base is None else args.seed_base
    env = {"blas_threads": threads, "nproc": nproc, "numpy": np.__version__, "blas": blas_version(np)}
    print("env " + json.dumps(env))
    outcome = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), seed_base)

    digest = outcome.digest_lines()
    args.digest.parent.mkdir(parents=True, exist_ok=True)
    with open(args.digest, "w", encoding="utf-8") as fh:
        for line in digest:
            fh.write(json.dumps(line) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in outcome.notes:
        print("  " + note)
    print(f"  fail_ratio: {outcome.failed}/{outcome.attempted} = {outcome.failed / outcome.attempted:.4g}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for solve in outcome.solves:
        if solve.error is not None:
            print(f"  FAILED {solve.key}: {solve.error}")
    if outcome.mismatches:
        print(f"  {outcome.mismatches} repeated solves gave a different digest")
    print(f"  digest: {len(digest)} solves in {args.digest}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
