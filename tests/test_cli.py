import json

import numpy as np
import pytest

from sparsepg import LeastSquares, load_instance, save_instance, save_point
from sparsepg.cli import build_parser, main


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
    # the summary ends with the moves by kind (swap/hx/tx/pg) and the total backtracks
    kinds = [r["step_kind"] for r in trace["records"]]
    moves = "/".join(str(kinds.count(kind)) for kind in (
        "swap", "support_change_accept_hx", "support_change_accept_tx", "projected_gradient",
    ))
    backtracks = sum(r["backtracks"] for r in trace["records"])
    assert out.rstrip("\n").endswith(
        f"screened_steps=0 moves={moves} backtracks={backtracks}"
    )
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


def test_solve_without_out_prints_one_summary_line_and_writes_no_file(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "inst.npz"
    assert main([
        "gen", "--family", "cs-least-squares", "--m", "20", "--n", "64",
        "--s", "3", "--seed", "5", "--out", str(inst_path),
    ]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "solve", str(inst_path), "--method", "pg")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pg: f=")
    assert "stop_reason=converged" in lines[0]
    assert [p.name for p in tmp_path.iterdir()] == ["inst.npz"]


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


def test_solve_bench_and_certify_take_the_grid_and_tolerance_flags():
    parser = build_parser()
    verbs = [["solve", "inst.npz", "--method", "pg"],
             ["bench", "--m", "4", "--n", "8"],
             ["certify", "inst.npz", "--point", "x.txt"]]
    for argv in verbs:
        args = parser.parse_args(argv)
        assert (args.grid_points, args.tol) == (50, 1e-6)
        args = parser.parse_args([*argv, "--grid-points", "7", "--tol", "0.5"])
        assert (args.grid_points, args.tol) == (7, 0.5)


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
    # every bench row fails: the CSV is written as before, and each error goes to stderr
    capsys.readouterr()
    code, out, err = run_cli(
        capsys, "bench", "--family", "cs-least-squares", "--m", "20", "--n", "64", "--s", "3",
        "--grid-points", "0",
    )
    assert code == 2
    assert out.splitlines()[1:] == [f"cs-least-squares,20,64,3,{m},0,,,,,,," for m in ("pg", "npg")]
    assert err.count("grid") == 2
    # invalid sparsity levels are configuration errors, before any file is written
    for family, s in [("simplex-least-squares", "0"), ("simplex-least-squares", "-2"),
                      ("simplex-least-squares", "600"), ("logistic", "0")]:
        bad_out = tmp_path / f"{family}{s}.npz"
        code, _, err = run_cli(capsys, "gen", "--family", family, "--m", "20", "--n", "64",
                               "--s", s, "--out", str(bad_out))
        assert code == 2 and "sparsity level" in err and "Traceback" not in err
        assert not bad_out.exists()
    # so are instances without rows or with a negative or non-finite noise level
    for name, family, flags, named in [
        ("logistic_m0", "logistic", ["--m", "0"], "m must be positive"),
        ("logistic_m-2", "logistic", ["--m", "-2"], "m must be positive"),
        ("simplex_m0", "simplex-least-squares", ["--m", "0"], "m must be positive"),
        ("cs_m0", "cs-least-squares", ["--m", "0", "--s", "3"], "m must be positive"),
        ("cs_sigma-1", "cs-least-squares", ["--m", "20", "--s", "3", "--sigma", "-1"], "sigma"),
        ("cs_sigma_nan", "cs-least-squares", ["--m", "20", "--s", "3", "--sigma", "nan"], "sigma"),
    ]:
        bad_out = tmp_path / f"{name}.npz"
        code, _, err = run_cli(capsys, "gen", "--family", family, "--n", "64", *flags,
                               "--out", str(bad_out))
        assert code == 2 and named in err and "Traceback" not in err
        assert not bad_out.exists()
    # a tolerance that is not finite and nonnegative fails before the solve
    for tol in ("nan", "-1", "inf"):
        for method in ("pg", "npg"):
            code, _, err = run_cli(capsys, "solve", str(inst_path), "--method", method,
                                   "--tol", tol)
            assert code == 2 and "tol must be finite and nonnegative" in err
    # malformed instance files: a missing array, an unknown family, meta that
    # disagrees with the arrays or breaks the sparsity rule, an infinite
    # radius, a NaN in the matrix
    no_meta = tmp_path / "no_meta.npz"
    np.savez(no_meta, matrix=np.eye(3))
    with np.load(inst_path) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    nan_matrix = tmp_path / "nan_matrix.npz"
    matrix = arrays["matrix"].copy()
    matrix[0, 0] = np.nan
    np.savez(nan_matrix, **{**arrays, "matrix": matrix})

    def rewritten(name, x0=arrays["x0"], **changes):
        path = tmp_path / f"{name}.npz"
        np.savez(path, **{**arrays, "x0": x0, "meta": np.array(json.dumps({**meta, **changes}))})
        return path

    for path, named in [
        (no_meta, "meta"),
        (rewritten("foo", family="foo"), "'foo'"),
        (rewritten("shape", m=7, n=9), "m=7, n=9"),
        (rewritten("x0", x0=np.zeros(9)), "length 64"),
        (rewritten("s0", s=0), "s=0"),
        (rewritten("sn", s=64), "s=64"),
        (rewritten("s_float", s=3.5), "s=3.5"),
        (rewritten("s_text", s="3"), "s='3'"),
        (rewritten("inf", set="simplex:inf"), "radius"),
        (nan_matrix, "A must be finite"),
    ]:
        for method in ("pg", "npg"):
            code, _, err = run_cli(capsys, "solve", str(path), "--method", method)
            assert code == 2 and str(path) in err and named in err and "Traceback" not in err
