import json

import numpy as np
import pytest

from sparsepg import LeastSquares, load_instance, save_instance, save_point
from sparsepg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_solve_certify_flow(tmp_path, capsys):
    inst_path = tmp_path / "inst.npz"
    code, out, _ = run_cli(
        capsys, "gen", "--family", "cs-least-squares",
        "--m", "20", "--n", "64", "--s", "3", "--seed", "5", "--out", str(inst_path),
    )
    assert code == 0
    assert inst_path.exists()

    trace_path = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys, "solve", str(inst_path), "--method", "npg", "--out", str(trace_path),
    )
    assert code == 0
    assert "npg:" in out
    trace = json.loads(trace_path.read_text())
    assert trace["iterations"] >= 1
    assert trace["certificate"]["general"] in (True, False)

    point_path = tmp_path / "point.txt"
    save_point(str(point_path), np.array(trace["x_final"]))
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "certify", str(inst_path), "--point", str(point_path),
        "--out", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert set(report) >= {"general", "strong", "coordinatewise", "worst_violation"}


def test_bench_csv_output(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--family", "cs-least-squares",
        "--m", "20", "--n", "64", "--s", "3", "--seed", "0", "--seeds", "2",
        "--grid-points", "10", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("family,m,n,s,method,seed")
    assert len(lines) == 1 + 2 * 2  # two seeds, two methods


def test_bench_is_byte_identical_across_runs(tmp_path, capsys):
    argv = [
        "bench", "--family", "cs-least-squares", "--m", "20", "--n", "64",
        "--s", "3", "--seed", "3", "--format", "json", "--grid-points", "10",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    rows1 = json.loads(out1)["rows"]
    rows2 = json.loads(out2)["rows"]
    for r1, r2 in zip(rows1, rows2):
        r1.pop("time_s")
        r2.pop("time_s")
    assert rows1 == rows2


def test_usage_errors_exit_one(capsys):
    assert main(["solve"]) == 1  # missing instance argument
    assert main(["gen", "--family", "nope", "--m", "1", "--n", "2", "--out", "x"]) == 1
    assert main([]) == 1


def test_solver_errors_exit_two(tmp_path, capsys):
    inst_path = tmp_path / "inst.npz"
    assert main([
        "gen", "--family", "cs-least-squares", "--m", "20", "--n", "64",
        "--s", "3", "--seed", "1", "--out", str(inst_path),
    ]) == 0
    # corrupt the start point so the solver rejects it
    inst = load_instance(str(inst_path))
    bad_point = tmp_path / "bad.txt"
    save_point(str(bad_point), np.ones(inst.n))
    code, _, err = (lambda c=main([
        "certify", str(inst_path), "--point", str(bad_point),
    ]): (c, *capsys.readouterr()))()
    assert code == 2
    missing = tmp_path / "missing.npz"
    assert main(["solve", str(missing), "--method", "pg"]) == 2
    # a grid without a positive step certifies nothing
    assert main(["solve", str(inst_path), "--method", "pg", "--grid-points", "0"]) == 2
    zero_point = tmp_path / "zero.txt"
    save_point(str(zero_point), np.zeros(inst.n))
    assert main(["certify", str(inst_path), "--point", str(zero_point)]) == 0
    assert main(["certify", str(inst_path), "--point", str(zero_point), "--grid-points", "1"]) == 2
    # an all-zero matrix has Lipschitz constant 0, so no stepsize exists
    zero_path = tmp_path / "zero.npz"
    inst.objective = LeastSquares(np.zeros((inst.m, inst.n)), inst.objective.b)
    save_instance(str(zero_path), inst)
    assert main(["solve", str(zero_path), "--method", "pg"]) == 2
    assert main(["solve", str(zero_path), "--method", "npg"]) == 2
