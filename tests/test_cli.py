import json
import re
import subprocess
import sys

import pytest

from conftest import child_env


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "morley_ocp", *args],
                          capture_output=True, text=True, env=child_env())


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


@pytest.fixture(scope="module")
def ex1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex1run")
    res = run_cli(["solve", "--problem", "ex1", "--theta", "0.3",
                   "--max-dofs", "2000", "--out", str(out), "--svg"])
    assert res.returncode == 0, res.stderr
    return out


@pytest.fixture(scope="module")
def ex4_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex4run")
    res = run_cli(["solve", "--problem", "ex4", "--max-dofs", "1200",
                   "--subdivisions", "2", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    return out


def test_solve_outputs_and_monotone_dofs(ex1_run):
    header, rows = read_csv(ex1_run / "convergence.csv")
    assert header == ["iter", "dofs", "eta_h", "eta1", "eta2", "eta3",
                      "eta4", "eta5", "energy_error", "l2_error",
                      "eff_index", "mu_h", "lambda_min", "lambda_max",
                      "n_active_lower", "n_active_upper", "wall_ms"]
    assert len(rows) >= 5
    dofs = [int(r["dofs"]) for r in rows]
    assert all(b > a for a, b in zip(dofs, dofs[1:]))
    assert dofs[-1] > 2000
    for name in ("run.json", "mesh_final.txt", "indicators_final.csv",
                 "convergence.svg", "efficiency.svg"):
        assert (ex1_run / name).exists()


def test_ex4_error_columns_empty(ex4_run):
    _, rows = read_csv(ex4_run / "convergence.csv")
    assert all(r["energy_error"] == "" for r in rows)
    assert all(r["eff_index"] == "" for r in rows)
    assert all(float(r["eta_h"]) > 0 for r in rows)
    assert all(float(r["lambda_min"]) <= float(r["lambda_max"])
               for r in rows)
    assert any(int(r["n_active_lower"]) + int(r["n_active_upper"]) > 0
               for r in rows)


def test_csv_json_roundtrip(ex1_run):
    _, rows = read_csv(ex1_run / "convergence.csv")
    payload = json.loads((ex1_run / "run.json").read_text())
    assert len(payload["records"]) == len(rows)
    for row, rec in zip(rows, payload["records"]):
        for csv_key, json_key in (("dofs", "dofs"), ("eta_h", "eta_h"),
                                  ("eta3", "eta3"), ("mu_h", "mu_h"),
                                  ("lambda_min", "lambda_min"),
                                  ("n_active_lower", "n_active_lower"),
                                  ("wall_ms", "wall_ms"),
                                  ("energy_error", "energy_error")):
            cell = row[csv_key]
            val = rec[json_key]
            if cell == "":
                assert val is None
            else:
                assert float(cell) == val


def test_deterministic_repeat_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = run_cli(["solve", "--problem", "ex1", "--max-dofs", "900",
                       "--out", str(out)])
        assert res.returncode == 0, res.stderr
    assert (a / "convergence.csv").read_bytes() == (b / "convergence.csv").read_bytes()
    assert (a / "run.json").read_bytes() == (b / "run.json").read_bytes()


def test_indicator_dump_schema(ex1_run):
    header, rows = read_csv(ex1_run / "indicators_final.csv")
    assert header[:2] == ["element", "eta_sq"]
    assert len(rows) > 0
    total = sum(float(r["eta_sq"]) for r in rows)
    _, conv = read_csv(ex1_run / "convergence.csv")
    assert total == pytest.approx(float(conv[-1]["eta_h"])**2, rel=1e-9)
    # each edge term's element shares add up to the final record's total
    for i in (2, 3, 4):
        shares = sum(float(r[f"eta{i}_share_sq"]) for r in rows)
        assert shares == pytest.approx(float(conv[-1][f"eta{i}"])**2,
                                       rel=1e-9)


def test_manufactured_problem_flag(tmp_path):
    res = run_cli(["solve", "--problem", "manufactured", "--seed", "3",
                   "--max-dofs", "400", "--out", str(tmp_path / "m")])
    assert res.returncode == 0, res.stderr


def test_report_single_input_matches(ex1_run, tmp_path):
    out = tmp_path / "rep"
    res = run_cli(["report", str(ex1_run / "run.json"), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    _, rows = read_csv(out / "comparison.csv")
    _, conv = read_csv(ex1_run / "convergence.csv")
    assert len(rows) == len(conv)
    assert [r["eta_h"] for r in rows] == [r["eta_h"] for r in conv]


def test_report_two_runs_have_labels(ex1_run, ex4_run, tmp_path):
    out = tmp_path / "rep2"
    res = run_cli(["report", str(ex1_run / "run.json"),
                   str(ex4_run / "run.json"), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    _, rows = read_csv(out / "comparison.csv")
    assert {r["source"] for r in rows} == {"ex1 adaptive", "ex4 adaptive"}


def test_report_svg_is_pure_function(ex1_run, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        res = run_cli(["report", str(ex1_run / "run.json"), "--out", str(out)])
        assert res.returncode == 0
        outs.append((out / "comparison.svg").read_bytes())
    assert outs[0] == outs[1]


def test_report_svg_equals_solve_svg(ex1_run, tmp_path):
    # solve and report draw a run's estimator and error with one plot path
    out = tmp_path / "rep"
    res = run_cli(["report", str(ex1_run / "run.json"), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    assert ((out / "comparison.svg").read_bytes()
            == (ex1_run / "convergence.svg").read_bytes())


def test_report_corrupted_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli(["report", str(bad)])
    assert res.returncode == 2
    assert "bad.json" in res.stderr


def test_report_schema_mismatch_exits_2(tmp_path):
    bad = tmp_path / "weird.json"
    for payload in (
            {"records": [{"nope": 1}]},
            {"config": {}, "records": [1]},
            {"config": [], "records": [{"dofs": 10, "eta_h": 1.0,
                                        "iteration": 0}]},
            {"config": {}, "records": [{"dofs": 10, "eta_h": "x",
                                        "iteration": 0}]}):
        bad.write_text(json.dumps(payload))
        res = run_cli(["report", str(bad)])
        assert res.returncode == 2
        assert f"schema mismatch in {bad}" in res.stderr


@pytest.mark.parametrize("field, value", [("dofs", 0), ("dofs", True),
                                          ("iteration", True)])
def test_report_rejects_a_record_without_a_dof_count(field, value, tmp_path):
    # a zero DoF count has no place on the log axis; a bool is no count
    bad = tmp_path / "zero.json"
    record = dict({"dofs": 10, "eta_h": 1.0, "iteration": 0}, **{field: value})
    bad.write_text(json.dumps({"config": {}, "records": [record]}))
    out = tmp_path / "rep"
    res = run_cli(["report", str(bad), "--out", str(out)])
    assert res.returncode == 2
    assert f"schema mismatch in {bad}" in res.stderr
    assert not (out / "comparison.csv").exists()


def test_plot_ticks(ex1_run):
    _, rows = read_csv(ex1_run / "convergence.csv")
    dofs = [int(r["dofs"]) for r in rows]
    svg = (ex1_run / "convergence.svg").read_text(encoding="utf-8")
    decades = [d for d in range(8) if min(dofs) <= 10**d <= max(dofs)]
    assert decades
    assert re.findall(r"text-anchor='middle'>1e(-?\d+)<", svg) == [
        str(d) for d in decades]
    # the efficiency index is drawn on a linear axis: six evenly spaced ticks
    eff = [float(r["eff_index"]) for r in rows]
    lo, hi = min(eff), max(eff)
    svg = (ex1_run / "efficiency.svg").read_text(encoding="utf-8")
    assert re.findall(r"text-anchor='end'>([^<]*)<", svg) == [
        f"{lo + (hi - lo) * k / 5:.3g}" for k in range(6)]


def test_bad_flags_exit_2():
    assert run_cli(["solve"]).returncode == 2
    assert run_cli(["solve", "--problem", "ex9", "--max-dofs", "100"]).returncode == 2
    assert run_cli(["frobnicate"]).returncode == 2
    assert run_cli(["solve", "--problem", "ex1", "--linear-tolerance",
                    "0"]).returncode == 2
