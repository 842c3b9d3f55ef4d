"""One benchmark study in a fresh process.

Imports ``morley_ocp`` from the ``src/`` tree of the checkout this file
sits in, builds the workload's problem and initial mesh (the set-up), runs
``adaptive_solve`` to the workload's budget, checks the result and prints
one JSON object as the last line of standard output.  ``run.py`` starts one
of these per study; it is not meant to be run by hand.

Exit codes: 0 with a result (a failed study lists its ``failures``), 2 when
the package cannot be imported from the checkout, 3 when the traced run
cannot be trusted (see ``tracing.TraceError``).
"""

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import KKT_BOUNDS, REFERENCE_RTOL, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package():
    """Import morley_ocp from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import morley_ocp
    except ImportError as exc:
        print(f"study: cannot import morley_ocp from {SRC}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    origin = Path(morley_ocp.__file__).resolve().parent
    if origin != SRC / "morley_ocp":
        print(f"study: morley_ocp was imported from {origin}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return morley_ocp


def check(records, workload):
    """Failures of one finished study, as messages; empty when correct."""
    failures = []
    for rec in records:
        for key, bound in KKT_BOUNDS.items():
            value = getattr(rec, key)
            if not value <= bound:
                failures.append(f"iteration {rec.iteration}: {key} "
                                f"{value:.3e} > {bound:.0e}")
    last = records[-1]
    if not last.dofs > workload["max_dofs"]:
        failures.append(f"final dofs {last.dofs} do not exceed the budget "
                        f"{workload['max_dofs']}")
    ref = workload["reference"]
    for key in ("eta_h", "energy_error"):
        if key not in ref:
            continue
        value = getattr(last, key)
        if value is None:
            failures.append(f"final {key} is missing")
            continue
        scaled = value * math.sqrt(last.dofs)
        expected = ref[key] * math.sqrt(ref["dofs"])
        if not abs(scaled / expected - 1.0) <= REFERENCE_RTOL:
            failures.append(f"final {key} {value:.6e} at {last.dofs} dofs is "
                            f"{scaled / expected - 1.0:+.2%} off the reference "
                            f"{ref[key]:.6e} at {ref['dofs']} dofs "
                            f"(DoF-rescaled, tolerance {REFERENCE_RTOL:.0%})")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--study-id", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="CLOCK_MONOTONIC time at which the parent spawned "
                         "this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    pkg = import_package()
    problem = pkg.example(workload["example"])
    config = pkg.AdaptConfig(theta=workload["theta"],
                             max_dofs=workload["max_dofs"],
                             uniform=workload["uniform"])
    lo, hi = problem.square
    pkg.initial_mesh(lo, hi, config.initial_subdivisions)
    out = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.study_id)
        try:
            tracing.install(tracer, problem)
        except tracing.TraceError as exc:
            print(f"study: trace: {exc}", file=sys.stderr)
            return 3

    t0 = time.perf_counter()
    try:
        if tracer is None:
            run = pkg.adaptive_solve(problem, config)
        else:
            v0 = tracer.now()
            with tracer.span(tracing.ROOT):
                run = pkg.adaptive_solve(problem, config)
            traced_s = tracer.now() - v0
    except Exception as exc:  # a failed study is counted, not fatal
        traceback.print_exc()
        out.update(failures=[f"{type(exc).__name__}: {exc}"])
        print(json.dumps(out))
        return 0
    out["study_s"] = time.perf_counter() - t0
    out["dofs_cumulative"] = sum(rec.dofs for rec in run.records)
    out["dofs_final"] = run.records[-1].dofs
    out["iterations"] = len(run.records)
    out["eta_h"] = run.records[-1].eta_h
    out["energy_error"] = run.records[-1].energy_error
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          * 1024 / 1e6)
    out["failures"] = check(run.records, workload)

    if tracer is not None:
        try:
            own = tracing.validate(tracer, workload["bypassed"], traced_s)
        except tracing.TraceError as exc:
            print(f"study: trace: {exc}", file=sys.stderr)
            return 3
        out["layers"] = tracing.layer_metrics(tracer, run, own)
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
