import importlib.util
import json
from pathlib import Path

from sparsepg import solve_instance

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_hash.py"
spec = importlib.util.spec_from_file_location("trace_hash", TOOL)
trace_hash = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace_hash)

import harness  # noqa: E402  (perfbench/, which the tool puts on the path)

# one PG and one NPG batch of small instances, two seeds each
TINY = {
    "tiny": (
        harness.Batch("cs-least-squares", 20, 64, 3, 0, 2, "pg"),
        harness.Batch("simplex-least-squares", 20, 64, 3, 2000, 2, "npg", max_iter=50),
    )
}


def test_hash_repeats_and_changes_with_the_instances():
    first = trace_hash.digest(TINY, 0)
    assert len(first) == 64
    assert trace_hash.digest(TINY, 0) == first
    assert trace_hash.digest(TINY, 1) != first


def test_canonical_trace_keeps_the_certificate_and_leaves_out_the_timing_fields():
    pairs, _, _ = harness.generate(TINY["tiny"][:1], 0, harness.DEFAULT_SEED_BASE)
    inst = pairs[0][1]
    args = (inst, "pg", harness.GRID_POINTS, harness.CERT_TOL, harness.F_TOL, 1000)
    first, second = solve_instance(*args), solve_instance(*args)
    fields = json.loads(trace_hash.canonical(first))
    assert sorted(fields) == sorted(set(first.to_dict()) - set(trace_hash.SKIPPED))
    assert fields["certificate"] == first.certificate.to_dict()
    assert fields["records"] == first.to_dict()["records"]
    assert first.screened_steps > 0
    assert trace_hash.canonical(second) == trace_hash.canonical(first)
