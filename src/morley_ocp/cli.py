"""Batch experiment runner.

``solve`` runs one adaptive (or uniform) study and writes convergence.csv,
run.json, mesh_final.txt, indicators_final.csv and optional SVG plots;
``report`` merges several run.json files into a comparison table and
overlay plot.  The CSV is the source of truth; the SVG is derived from the
same rows.  In deterministic mode (MORLEY_OCP_THREADS=0) the wall-time
column is zeroed so repeat runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict
from pathlib import Path

CSV_COLUMNS = ["iter", "dofs", "eta_h", "eta1", "eta2", "eta3", "eta4",
               "eta5", "energy_error", "l2_error", "eff_index", "mu_h",
               "lambda_min", "lambda_max", "n_active_lower", "n_active_upper",
               "wall_ms"]
INDICATOR_COLUMNS = ["element", "eta_sq", "eta1_sq", "eta5_sq", "eta2_share_sq",
                     "eta3_share_sq", "eta4_share_sq", "osc"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f"]


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):          # includes numpy float64
        return repr(float(v))
    return str(v)


def _record_rows(records):
    """CSV rows of record dicts: the CSV_COLUMNS fields, ``iter`` renamed."""
    return [{c: d.get("iteration" if c == "iter" else c) for c in CSV_COLUMNS}
            for d in records]


def _run_label(config, name):
    """``<problem> uniform`` or ``<problem> adaptive``, from a run's config."""
    return (str(config.get("problem", name))
            + (" uniform" if config.get("uniform") else " adaptive"))


def _write_csv(path, rows, columns):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row.get(c)) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _decade_ticks(lo, hi):
    """(value, label) of every power of ten in [lo, hi]."""
    ds = range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)
    return [(10.0 ** d, f"1e{d}") for d in ds if lo <= 10.0 ** d <= hi]


def _svg_plot(path, series, xlabel, ylabel, logy=True, guide_slope=None):
    """Minimal log-log (or log-linear) polyline plot, no dependencies."""
    W, H, L, R, T, B = 720, 540, 80, 30, 30, 60
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if (y > 0 or not logy)]
    if not xs_all or not ys_all:
        Path(path).write_text("<svg xmlns='http://www.w3.org/2000/svg'/>\n",
                              encoding="utf-8")
        return
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x0 == x1:
        x0, x1 = x0 / 2, x1 * 2
    if y0 == y1:
        y0, y1 = (y0 / 2, y1 * 2) if logy else (y0 - 1, y1 + 1)

    def fx(x):
        return L + (W - L - R) * (math.log10(x) - math.log10(x0)) / \
            (math.log10(x1) - math.log10(x0))

    def fy(y):
        if logy:
            t = (math.log10(y) - math.log10(y0)) / (math.log10(y1) - math.log10(y0))
        else:
            t = (y - y0) / (y1 - y0)
        return H - B - (H - T - B) * t

    out = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{W}' height='{H}' "
           f"viewBox='0 0 {W} {H}'>",
           f"<rect width='{W}' height='{H}' fill='white'/>",
           f"<rect x='{L}' y='{T}' width='{W-L-R}' height='{H-T-B}' "
           f"fill='none' stroke='#444'/>"]
    yticks = _decade_ticks(y0, y1) if logy else [
        (y, f"{y:.3g}") for y in (y0 + (y1 - y0) * k / 5 for k in range(6))]
    for x, label in _decade_ticks(x0, x1):
        px = fx(x)
        out.append(f"<line x1='{px:.2f}' y1='{T}' x2='{px:.2f}' "
                   f"y2='{H-B}' stroke='#ddd'/>")
        out.append(f"<text x='{px:.2f}' y='{H-B+18}' font-size='12' "
                   f"text-anchor='middle'>{label}</text>")
    for y, label in yticks:
        py = fy(y)
        out.append(f"<line x1='{L}' y1='{py:.2f}' x2='{W-R}' "
                   f"y2='{py:.2f}' stroke='#ddd'/>")
        out.append(f"<text x='{L-8}' y='{py+4:.2f}' font-size='12' "
                   f"text-anchor='end'>{label}</text>")
    for i, (label, xs, ys) in enumerate(series):
        pts = " ".join(f"{fx(x):.2f},{fy(y):.2f}"
                       for x, y in zip(xs, ys) if (y > 0 or not logy))
        color = _PALETTE[i % len(_PALETTE)]
        out.append(f"<polyline points='{pts}' fill='none' stroke='{color}' "
                   f"stroke-width='1.8'/>")
        ly = T + 18 + 18 * i
        out.append(f"<line x1='{W-R-160}' y1='{ly-4}' x2='{W-R-130}' "
                   f"y2='{ly-4}' stroke='{color}' stroke-width='1.8'/>")
        out.append(f"<text x='{W-R-124}' y='{ly}' font-size='12'>{label}</text>")
    if guide_slope is not None and logy:
        label, xs, ys = series[0]
        xg0, xg1 = xs[0], xs[-1]
        yg1 = ys[-1]
        yg0 = yg1 * (xg0 / xg1) ** guide_slope
        out.append(f"<line x1='{fx(xg0):.2f}' y1='{fy(yg0):.2f}' "
                   f"x2='{fx(xg1):.2f}' y2='{fy(yg1):.2f}' stroke='#999' "
                   f"stroke-dasharray='6 4'/>")
        out.append(f"<text x='{fx(xg0):.2f}' y='{fy(yg0)-6:.2f}' "
                   f"font-size='12' fill='#666'>slope {guide_slope:g}</text>")
    out.append(f"<text x='{(L+W-R)/2:.2f}' y='{H-16}' font-size='13' "
               f"text-anchor='middle'>{xlabel}</text>")
    out.append(f"<text x='22' y='{(T+H-B)/2:.2f}' font-size='13' "
               f"text-anchor='middle' transform='rotate(-90 22 "
               f"{(T+H-B)/2:.2f})'>{ylabel}</text>")
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def _convergence_svg(path, runs):
    """Log-log eta_h and energy error against DoFs of (label, records) runs."""
    series = []
    for label, records in runs:
        series.append((f"eta_h ({label})", [r["dofs"] for r in records],
                       [r["eta_h"] for r in records]))
        errs = [(r["dofs"], r["energy_error"]) for r in records
                if r.get("energy_error") is not None]
        if errs:
            series.append((f"error ({label})", [d for d, _ in errs],
                           [e for _, e in errs]))
    _svg_plot(path, series, "degrees of freedom", "estimator / error",
              logy=True, guide_slope=-0.5)


def _indicator_rows(breakdown):
    """One row per element, read off the estimator table."""
    eta = breakdown.eta_sq
    columns = (breakdown.element_indicators, eta[0], eta[4], eta[1], eta[2],
               eta[3], breakdown.osc_elem)
    return [dict(zip(INDICATOR_COLUMNS, (t, *row)))
            for t, row in enumerate(zip(*(c.tolist() for c in columns)))]


def run_solve(args):
    from . import deterministic_mode
    from .adaptive import AdaptConfig, AdaptiveError, adaptive_solve
    from .problems import ProblemError, example, manufactured

    try:
        if args.problem.startswith("ex"):
            problem = example(args.problem)
        elif args.problem == "manufactured":
            problem = manufactured(args.seed, active_state=args.active_state)
        else:
            raise ProblemError(f"unknown problem {args.problem!r}")
    except (ProblemError, ValueError) as exc:
        print(f"bad --problem: {exc}", file=sys.stderr)
        return 2

    adapt = AdaptConfig(theta=args.theta, max_dofs=args.max_dofs,
                        uniform=args.uniform,
                        initial_subdivisions=args.subdivisions)
    try:
        run = adaptive_solve(problem, adapt)
    except AdaptiveError as exc:
        print(f"study failed: {exc}", file=sys.stderr)
        return 3

    out = Path(args.out or f"runs/{args.problem}"
               + ("-uniform" if args.uniform else ""))
    out.mkdir(parents=True, exist_ok=True)
    det = deterministic_mode()
    records = [dict(asdict(r), wall_ms=0.0) if det else asdict(r)
               for r in run.records]
    rows = _record_rows(records)
    _write_csv(out / "convergence.csv", rows, CSV_COLUMNS)

    payload = {
        "schema": "morley-ocp-run-2",
        "config": {
            "problem": args.problem, "seed": args.seed,
            "theta": args.theta, "max_dofs": args.max_dofs,
            "uniform": args.uniform, "subdivisions": args.subdivisions,
            "deterministic": det,
        },
        "records": records,
    }
    (out / "run.json").write_text(json.dumps(payload, indent=1) + "\n",
                                  encoding="utf-8")

    run.mesh.export_text(out / "mesh_final.txt")
    _write_csv(out / "indicators_final.csv", _indicator_rows(run.breakdown),
               INDICATOR_COLUMNS)

    if args.svg:
        label = _run_label(payload["config"], args.problem)
        _convergence_svg(out / "convergence.svg", [(label, records)])
        eff = [(r["dofs"], r["eff_index"]) for r in rows
               if r["eff_index"] is not None]
        if eff:
            _svg_plot(out / "efficiency.svg",
                      [("efficiency index", [d for d, _ in eff],
                        [e for _, e in eff])],
                      "degrees of freedom", "eta_h / energy error", logy=False)
    print(f"wrote {out}/convergence.csv ({len(rows)} iterations)")
    return 0


def _is_record(r):
    """A run.json record holding the numbers ``report`` reads; ``iteration``
    and ``dofs`` are integers (not bools), ``dofs`` at least 1."""
    if not isinstance(r, dict):
        return False
    it, dofs = r.get("iteration"), r.get("dofs")
    return (all(isinstance(v, int) and not isinstance(v, bool)
                for v in (it, dofs)) and dofs >= 1
            and isinstance(r.get("eta_h"), (int, float))
            and all(isinstance(r.get(k), (int, float, type(None)))
                    for k in ("energy_error", "eff_index")))


def run_report(args):
    runs = []
    for path in args.runs:
        p = Path(path)
        try:
            payload = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read run file {p}: {exc}", file=sys.stderr)
            return 2
        cfg = payload.get("config") if isinstance(payload, dict) else None
        records = payload.get("records") if isinstance(payload, dict) else None
        if (not isinstance(cfg, dict) or not isinstance(records, list)
                or not all(map(_is_record, records))):
            print(f"schema mismatch in {p}", file=sys.stderr)
            return 2
        runs.append((_run_label(cfg, p.stem), records))

    out = Path(args.out or "report")
    out.mkdir(parents=True, exist_ok=True)
    rows = [dict(row, source=label) for label, records in runs
            for row in _record_rows(records)]
    rows.sort(key=lambda r: (r["source"], r["dofs"]))
    _write_csv(out / "comparison.csv", rows,
               ["source", "iter", "dofs", "eta_h", "energy_error", "eff_index"])

    _convergence_svg(out / "comparison.svg", runs)
    print(f"wrote {out}/comparison.csv ({len(rows)} rows from {len(runs)} runs)")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="morley-ocp",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run one adaptive/uniform study")
    sp.add_argument("--problem", required=True,
                    help="ex1..ex4 or 'manufactured'")
    sp.add_argument("--theta", type=float, default=0.3)
    sp.add_argument("--max-dofs", type=int, default=50000, dest="max_dofs")
    sp.add_argument("--uniform", action="store_true")
    sp.add_argument("--out", default=None)
    sp.add_argument("--svg", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--active-state", action="store_true", dest="active_state",
                    help="manufactured problems: make the state bound active")
    sp.add_argument("--subdivisions", type=int, default=4)
    sp.set_defaults(func=run_solve)

    rp = sub.add_parser("report", help="merge run.json files")
    rp.add_argument("runs", nargs="+")
    rp.add_argument("--out", default=None)
    rp.set_defaults(func=run_report)
    return ap


def run(argv):
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
