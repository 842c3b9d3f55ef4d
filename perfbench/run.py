#!/usr/bin/env python3
"""Adaptive-study benchmark for morley-ocp.

Runs ``adaptive_solve`` studies of one workload (or of all of them) in a
closed loop with a single client: one study at a time, each in a fresh
child process with ``MORLEY_OCP_THREADS=0``, until ``--seconds`` are used.
Prints every metric by name with its unit, median, quartiles and sample
count, checks every study's output, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
traced and untraced studies alternate; the metrics are the per-layer ones of
the traced studies, the tracing overhead is printed, and the spans are
written to ``perfbench/out/spans-<workload>.json``.

    python3 perfbench/run.py --workload all --seconds 1      # quick look
    python3 perfbench/run.py --workload ex4-adaptive --seed 1 --seconds 50

Exits 1 when a study fails its check, 2 when the benchmark cannot run (no
``src/morley_ocp`` in this checkout, a study process that cannot start, a
trace that cannot be trusted).
"""

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# every run ends well inside the 180 s a run may take
HARD_LIMIT_S = 170.0
# set-up-only processes per run, on top of the one each study reports
SETUP_PROBES = 3
# traced runs make at least this many (untraced, traced) pairs, so that the
# overhead is not read off a single pair
TRACE_PAIRS = 2

END_TO_END = {"study_s": "s", "dof_rate": "DoF/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_worst": "ratio"}

CHILD_ENV = {"MORLEY_OCP_THREADS": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def spawn(workload, deadline, study_id=0, trace=False, setup_only=False):
    """Run study.py once; returns its result dict and its wall seconds."""
    env = dict(os.environ, **CHILD_ENV)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "study.py"), "--workload", workload,
           "--study-id", str(study_id), "--spawned", repr(spawned),
           "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failures": [f"study timed out after {timeout:.0f} s"]}, \
            time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    wall = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    if proc.returncode in (2, 3):
        raise BenchError(f"{workload}: study process exited with "
                         f"{proc.returncode} (see its message above)")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"study process exited with "
                             f"{proc.returncode}"]}, wall
    return json.loads(lines[-1]), wall


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_probe(name, deadline):
    result, _ = spawn(name, deadline, setup_only=True)
    if "setup_s" not in result:
        raise BenchError(f"{name}: set-up process failed: {result}")
    return result["setup_s"]


def run_workload(name, seconds, trace, rng):
    """Closed loop over one workload; returns (studies, setup samples)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    # warm-up: byte-compiles the package and fills the page cache, which
    # users pay once per install, not once per study
    setup_probe(name, deadline)
    setups = [setup_probe(name, deadline) for _ in range(SETUP_PROBES)]
    studies = []
    walls = []
    loop_start = time.monotonic()
    for rounds in itertools.count(1):
        # a round is one study, or with tracing one untraced and one traced
        # study in an order the seed picks
        kinds = [False, True] if trace else [False]
        rng.shuffle(kinds)
        for traced in kinds:
            result, wall = spawn(name, deadline, len(studies), trace=traced)
            result["traced"] = traced
            result["round"] = rounds
            studies.append(result)
            walls.append(wall)
            if "setup_s" in result:
                setups.append(result["setup_s"])
        if any("study_s" not in s for s in studies[-len(kinds):]):
            break
        # start another round only while it is expected to end closer to
        # the time limit than stopping now would
        if trace and rounds < TRACE_PAIRS:
            continue
        elapsed = time.monotonic() - loop_start
        if elapsed + len(kinds) * statistics.median(walls) / 2 > seconds:
            break
    return studies, setups


def summarize(name, studies, setups, trace):
    """Print the tables of one workload; return its reported metrics."""
    plain = [s for s in studies if not s["traced"] and "study_s" in s]
    samples = {
        "study_s": [s["study_s"] for s in plain],
        "dof_rate": [s["dofs_cumulative"] / s["study_s"] for s in plain],
        "setup_s": setups,
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
    }
    failed = [s for s in studies if s["failures"]]
    print(f"== {name}: {len(studies)} studies, {len(failed)} failed")
    for s in failed:
        for msg in s["failures"]:
            print(f"   FAIL study {studies.index(s)}: {msg}")
    if plain:
        print("   study_s per study: " + " ".join(
            f"{v:.3f}" for v in samples["study_s"]))
        last = plain[-1]
        print(f"   final: {last['dofs_final']} dofs in {last['iterations']} "
              f"iterations, eta_h={last['eta_h']:.6e}, "
              f"energy_error={last['energy_error']}")
    print(f"   {'metric':<28}{'unit':>7}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'n':>4}")
    metrics = {}
    for metric, unit in END_TO_END.items():
        values = samples[metric]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        print(f"   {metric:<28}{unit:>7}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{len(values):>4}")
        metrics[metric] = {"value": med, "unit": unit}
    print(f"   {'fail_frac':<28}{'ratio':>7}"
          f"{len(failed) / len(studies):>14.6g}   "
          f"({len(failed)} failed / {len(studies)} attempted)")
    if not trace:
        return metrics
    return layer_summary(name, studies, metrics)


def layer_summary(name, studies, e2e):
    traced = [s for s in studies if s["traced"] and "layers" in s]
    # each traced study against the untraced one of its round, which ran
    # next to it in time
    plain = {s["round"]: s["study_s"] for s in studies
             if not s["traced"] and "study_s" in s}
    ratios = [s["study_s"] / plain[s["round"]] for s in traced
              if s["round"] in plain]
    if not ratios:
        return {}
    overhead = statistics.median(ratios) - 1.0
    traced_s = statistics.median(s["study_s"] for s in traced)
    layers = {}
    for metric in traced[0]["layers"]:
        layers[metric] = statistics.median(s["layers"][metric]
                                           for s in traced)
    print(f"   traced: {len(traced)} studies, median study_s "
          f"{traced_s:.6g} s against {e2e['study_s']['value']:.6g} s "
          f"untraced (overhead {overhead:+.1%}, median over pairs)")
    print(f"   {'layer metric':<28}{'unit':>7}{'median':>14}{'share':>9}")
    for metric in sorted(layers):
        unit = layer_unit(metric)
        share = (f"{layers[metric] / traced_s:>9.1%}"
                 if unit == "s" else "")
        print(f"   {metric:<28}{unit:>7}{layers[metric]:>14.6g}{share}")
    OUT.mkdir(exist_ok=True)
    spans = [sp for s in traced for sp in s["spans"]]
    with open(OUT / f"spans-{name}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "spans": spans}, fh)
    return {m: {"value": v, "unit": layer_unit(m)} for m, v in layers.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="sets only how workloads and repetitions interleave")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="time one workload's closed loop may use")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "morley_ocp" / "__init__.py").is_file():
        print(f"run: no src/morley_ocp package in {ROOT}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            studies, setups = run_workload(name, args.seconds, args.trace, rng)
            attempted += len(studies)
            failed += sum(1 for s in studies if s["failures"])
            found = summarize(name, studies, setups, args.trace)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in found.items()})
    except BenchError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
