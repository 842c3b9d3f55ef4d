"""The experiment wrappers in ``scripts/`` run end to end on small budgets,
and the benchmark's layer tracing still finds every layer it wraps."""

import json
import os
import subprocess
import sys

import pytest

from conftest import child_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


def run_script(name, *args, cwd):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, env=child_env(),
                          cwd=cwd, timeout=600)


def test_multiplier_convergence_script(tmp_path):
    res = run_script("multiplier_convergence.py", "--levels", "2", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "level 1: dofs=" in res.stdout


def test_reproduce_benchmarks_quick(tmp_path):
    out = tmp_path / "runs"
    res = run_script("reproduce_benchmarks.py", "--quick", "--out", str(out),
                     cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    for name in ("ex1", "ex1-uniform", "ex2", "ex3", "ex4"):
        assert (out / name / "run.json").is_file()
    assert any((out / "report").iterdir())


@pytest.mark.parametrize("k, wrappers", [(1, 20), (4, 17)])
def test_perfbench_tracer_finds_every_name_it_wraps(k, wrappers):
    # the tracer looks its targets up by name from outside the package, so
    # a rename under src/ makes install raise; ex1 also has the exact
    # solution's closures, which no traced benchmark workload reaches
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "perfbench"),
                                         env["PYTHONPATH"]])
    code = ("import morley_ocp, tracing\n"
            "tracer = tracing.Tracer(0)\n"
            f"tracing.install(tracer, morley_ocp.example({k}))\n"
            "print(len(tracer.installed))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=600)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) == wrappers


def test_perfbench_trace_covers_every_layer():
    # the trace exits 2 when a wrapped entry point is renamed or no longer
    # called (a span that never fires) or work moves outside the wrapped
    # layers; this catches that before a benchmark run does
    res = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "ex4-uniform", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, env=child_env(), timeout=600)
    assert res.returncode == 0, res.stdout[-3000:] + res.stderr
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    metrics = {k: v["value"] for k, v in summary["metrics"].items()}
    # PDAS started from empty sets on every level takes 25 iterations on
    # this study; the warm start from the parent mesh's sets takes 17
    assert metrics["vi_solver.iterations"] < 25
    # one PDAS for every constraint row: a factorization more than the
    # warm-started study needs (16 SuperLU factors, 15 of them bordered
    # saddles) fails here
    assert metrics["vi_solver.splu_calls"] <= 16
    assert metrics["vi_solver.saddle_calls"] <= 15
    # SuperLU's options and the assembled pattern must not raise the fill
    # of the largest factor
    assert metrics["vi_solver.lu_fill_max"] <= 964_280
    # the estimator evaluates y_h once per level, on points shared by all
    # elements
    assert metrics["element.eval_calls"] == metrics["adaptive.iterations"]
    # and y_d, u_a and u_b once per level each, at the 16 points per element
    # of ``DofMap.points``: 48 data points per element and level (64 when
    # assembly and the estimator each sampled y_d)
    assert metrics["problems.data_points"] <= 783_360
    # every level but the last is refined through the wrapped
    # ``adaptive.bisect``
    assert metrics["mesh.bisect_calls"] == metrics["adaptive.iterations"] - 1
