"""Print one SHA-256 over the traces of every benchmark instance.

    python3 tools/trace_hash.py [--seed 0]

Generates the instances of every workload in ``perfbench/harness.WORKLOADS``
at ``--seed``, solves each once with the benchmark's settings and hashes its
``IterateTrace.to_dict()`` (records, certificate with its witness, gaps and
``x_final``) as canonical JSON, leaving out ``wall_time_seconds``,
``screened_steps`` and ``certificate_seconds``.  Two checkouts that print the same hash solved every
instance to the same bits, which ``perfbench/digest.py``, comparing
``f_final`` within 1e-12(1 + |f|) and never seeing certificates or gaps,
cannot show.  Like ``perfbench/run.py``, it pins BLAS to one thread and
imports the package from this checkout's ``src``.  The 396 solves of seed 0
take about 10 s on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (perfbench/run.py)

# fields that vary from run to run, or count the path a step took rather than its bits
SKIPPED = ("wall_time_seconds", "screened_steps", "certificate_seconds")


def canonical(trace) -> str:
    """``trace.to_dict()`` without the ``SKIPPED`` fields, as JSON with sorted keys.

    JSON writes each float with the shortest text that reads back to the same
    double, and keeps the sign of a zero, so equal text means equal bits.
    """
    fields = trace.to_dict()
    for name in SKIPPED:
        del fields[name]
    return json.dumps(fields, sort_keys=True)


def digest(workloads: dict, seed: int) -> str:
    """SHA-256 over the canonical traces of every instance of ``workloads``, in order."""
    import harness
    from sparsepg import solve_instance

    sha = hashlib.sha256()
    for name, batches in workloads.items():
        for batch in batches:
            pairs, _, _ = harness.generate((batch,), seed, harness.DEFAULT_SEED_BASE)
            for _, inst in pairs:
                trace = solve_instance(inst, batch.method, harness.GRID_POINTS,
                                       harness.CERT_TOL, harness.F_TOL, batch.max_iter)
                key = json.dumps([name, inst.family, inst.seed, batch.method])
                sha.update(f"{key}\n{canonical(trace)}\n".encode())
    return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run.pin_blas_threads()
    run.import_package()
    import harness

    print(digest(harness.WORKLOADS, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
