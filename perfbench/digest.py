"""Compare two per-solve digest files written by ``run.py``.

    python3 perfbench/digest.py A.jsonl B.jsonl

Solves are matched by (family, seed, method).  Iteration counts and supports
must be equal, and ``f_final`` must agree exactly or within
``|df| <= 1e-12 * (1 + |f|)``.  Prints one line per difference and exits 0
when both files hold the same solves and every pair agrees, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

F_RTOL = 1e-12


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {(r["family"], r["seed"], r["method"]): r for r in rows}


def differences(a: dict, b: dict) -> list[str]:
    """Human-readable differences between two loaded digests; empty when they agree."""
    out = [f"{key}: only in the first file" for key in a.keys() - b.keys()]
    out += [f"{key}: only in the second file" for key in b.keys() - a.keys()]
    for key in a.keys() & b.keys():
        x, y = a[key], b[key]
        if x["iterations"] != y["iterations"]:
            out.append(f"{key}: iterations {x['iterations']} != {y['iterations']}")
        if x["support"] != y["support"]:
            out.append(f"{key}: support {x['support']} != {y['support']}")
        fx, fy = float(x["f_final"]), float(y["f_final"])
        if abs(fx - fy) > F_RTOL * (1.0 + abs(fx)):
            out.append(f"{key}: f_final {x['f_final']} != {y['f_final']}")
    return sorted(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    diffs = differences(a, b)
    for line in diffs:
        print(line)
    print(f"{len(a)} and {len(b)} solves, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
