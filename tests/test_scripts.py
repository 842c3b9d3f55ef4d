"""The experiment wrappers in ``scripts/`` run end to end on small budgets."""

import os
import subprocess
import sys

from conftest import child_env

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


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
