#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report its run-to-run spread.

Runs ``run.py --workload W --seed S --seconds N --trace 0`` once per seed
and workload (seed-major, so the workloads interleave) and reports, for
each end-to-end metric, the median, quartiles and spread (q3 - q1) / median
of the per-run values next to the bound in BENCHMARK.json.  ``--traced``
adds one traced run per workload.

``--record FILE`` adds this set of runs to a point of the benchmark
trajectory (named after the file), keeping the sets recorded there before,
and prints how far apart the medians of all its sets of the same run length
are, next to the bounds.

    python3 perfbench/repeat.py --runs 5 --workloads ex4-adaptive
    python3 perfbench/repeat.py --runs 10 --traced \\
        --record perfbench/trajectory/<commit>.json
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1


def bench_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"repeat: {' '.join(cmd[1:])} exited with "
                 f"{proc.returncode}:\n{proc.stdout}")
    return json.loads(lines[-1]), proc.stdout


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med, "values": values}


def print_agreement(sets, e2e):
    """Medians of every set of one run length and how far apart they are,
    as (largest - smallest) / smallest."""
    print(f"\nmedians of {len(sets)} sets of {sets[-1]['run_seconds']} s runs")
    for w in sets[-1]["workloads"]:
        for m, meta in e2e.items():
            medians = [s["workloads"][w][m]["median"] for s in sets
                       if w in s["workloads"]]
            gap = max(medians) / min(medians) - 1.0
            flag = "" if gap <= meta["bound"] else "  APART BY MORE THAN BOUND"
            print(f"{w:<14}{m:<13}" + "".join(f"{v:>12.6g}" for v in medians)
                  + f"{gap:>8.3f}{meta['bound']:>6.2f}{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS),
                    choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=int,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--traced", action="store_true",
                    help="add one traced run per workload")
    ap.add_argument("--record", type=Path,
                    help="add this set to a trajectory point")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    spec = bench_spec()
    seconds = args.seconds or spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_run = {w: {m: [] for m in e2e} for w in args.workloads}
    attempted = failed = 0
    for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
        for w in args.workloads:
            result, text = run_once(w, seed, seconds, 0)
            print(text.rsplit("\n", 2)[0])
            attempted += result["attempted"]
            failed += result["failed"]
            for m in e2e:
                per_run[w][m].append(result["metrics"][m]["value"])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{m}={per_run[w][m][-1]:.6g}" for m in e2e), flush=True)

    this_set = {"date": datetime.date.today().isoformat(),
                "run_seconds": seconds, "runs": args.runs,
                "studies_attempted": attempted, "studies_failed": failed,
                "workloads": {}}
    print(f"\n{'workload':<14}{'metric':<13}{'unit':>7}{'median':>13}"
          f"{'q1':>13}{'q3':>13}{'n':>4}{'spread':>8}{'bound':>7}")
    for w in args.workloads:
        entry = this_set["workloads"].setdefault(w, {})
        for m, meta in e2e.items():
            s = stats(per_run[w][m])
            s["unit"] = meta["unit"]
            entry[m] = s
            flag = "" if s["spread"] < meta["bound"] / 3 else "  WIDE"
            print(f"{w:<14}{m:<13}{meta['unit']:>7}{s['median']:>13.6g}"
                  f"{s['q1']:>13.6g}{s['q3']:>13.6g}{s['n']:>4}"
                  f"{s['spread']:>8.3f}{meta['bound']:>7.2f}{flag}")
    print(f"studies: {failed} failed / {attempted} attempted")

    per_layer = {}
    if args.traced:
        for w in args.workloads:
            result, text = run_once(w, FIRST_SEED, seconds, 1)
            print(text.rsplit("\n", 2)[0])
            per_layer[w] = {k: v["value"]
                            for k, v in result["metrics"].items()}

    if args.record:
        point = {"label": args.record.stem,
                 "machine": {"cpus": os.cpu_count(),
                             "arch": platform.machine(),
                             "python": platform.python_version()},
                 "sets": [], "per_layer": {}}
        if args.record.exists():
            with open(args.record, encoding="utf-8") as fh:
                point = json.load(fh)
        point["sets"].append(this_set)
        point["per_layer"].update(per_layer)
        args.record.parent.mkdir(parents=True, exist_ok=True)
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(point, fh, indent=1)
            fh.write("\n")
        print_agreement([s for s in point["sets"]
                         if s["run_seconds"] == seconds], e2e)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
