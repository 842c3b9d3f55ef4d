"""In-memory span tracer and the layer wrappers of the traced benchmark run.

Every wrapper is installed from outside the package: it replaces the name a
caller looks up (a module global, a class attribute or a ``ProblemSpec``
closure) with a function that records a span around the original call.
Nothing under ``src/`` is edited.  A span is ``(id, name, start, end,
parent, study)``; spans of one study share the study id.

Counters that need extra work to read (the LU fill builds ``L`` and ``U``)
are collected with the span clock paused, so they never inflate a span.
The clock pause does show in the wall time of a traced study, and so in the
reported tracing overhead.
"""

import functools
import importlib
import time
from contextlib import contextmanager


class TraceError(RuntimeError):
    """The trace cannot be trusted: a wrapper target is missing, a span
    that should fire never did, or the wrapped spans miss part of a study."""


class Tracer:
    def __init__(self, study):
        self.study = study
        self.spans = []
        self.counters = {}
        self.installed = set()
        self._stack = []
        self._paused = 0.0

    def now(self):
        """Span clock: wall time minus the time spent reading counters."""
        return time.perf_counter() - self._paused

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name, "start": self.now(),
                  "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "study": self.study}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = self.now()

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def add(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, owner, attr, name, observe=None):
        """Record span ``name`` around ``owner.attr``; ``observe(result,
        *args, **kwargs)`` runs afterwards with the clock paused."""
        target = _lookup(owner, attr)

        @functools.wraps(target)
        def traced(*args, **kwargs):
            with self.span(name):
                result = target(*args, **kwargs)
            if observe is not None:
                with self.paused():
                    observe(result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self.installed.add(name)

    def wrap_init(self, owner, attr, name):
        """Record span ``name`` around construction of class ``owner.attr``."""
        base = _lookup(owner, attr)
        tracer = self

        class Traced(base):
            def __init__(self, *args, **kwargs):
                with tracer.span(name):
                    super().__init__(*args, **kwargs)

        Traced.__name__ = Traced.__qualname__ = base.__name__
        setattr(owner, attr, Traced)
        self.installed.add(name)


def _lookup(owner, attr):
    try:
        return getattr(owner, attr)
    except AttributeError:
        label = getattr(owner, "__name__", type(owner).__name__)
        raise TraceError(f"wrapper target {label}.{attr} is missing") from None


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise TraceError(f"wrapper module {name} is missing") from exc


class _CountingLU:
    """SuperLU object that counts the right-hand-side columns it solves."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        self._tracer.add("vi_solver.backsolve_cols",
                         1 if rhs.ndim == 1 else rhs.shape[1])
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _LinalgProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``vi_solver`` only, so
    that its ``splu`` calls are traced and every other name is unchanged."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


def _trace_splu(tracer, vi_solver):
    linalg = _lookup(vi_solver, "spla")
    real = _lookup(linalg, "splu")

    @functools.wraps(real)
    def splu(A, *args, **kwargs):
        with tracer.span("vi_solver.splu"):
            lu = real(A, *args, **kwargs)
        with tracer.paused():
            tracer.maximum("vi_solver.lu_fill_max", lu.L.nnz + lu.U.nnz)
            tracer.maximum("vi_solver.splu_order_max", lu.shape[0])
        return _CountingLU(lu, tracer)

    vi_solver.spla = _LinalgProxy(linalg, splu)
    tracer.installed.add("vi_solver.splu")


def _row_count(rows):
    if rows is None:
        return 0
    return rows.shape[0] if hasattr(rows, "shape") else len(rows)


PROBLEM_CLOSURES = ("y_d", "f", "f_laplacian", "u_a", "u_b")
EXACT_CLOSURES = ("value", "gradient", "hessian")


def install(tracer, problem):
    """Wrap the public functions of every layer as the adaptive loop and the
    solver call them, and the data closures of ``problem``."""
    adaptive = _module("morley_ocp.adaptive")
    vi_solver = _module("morley_ocp.vi_solver")
    element = _module("morley_ocp.element")
    schur_limit = _lookup(vi_solver, "SCHUR_ROW_LIMIT")

    def last_nnz(result, *args, **kwargs):
        matrix = result[0]
        tracer.counters["assembly.nnz_final"] = getattr(matrix, "matrix",
                                                        matrix).nnz

    def solved(sol, *args, **kwargs):
        tracer.add("vi_solver.iterations", int(sol.iterations))

    def kkt(res, *args, **kwargs):
        tracer.maximum("vi_solver.kkt_worst", max(res))

    def eqp(result, A, b, rows, *args, **kwargs):
        if _row_count(rows) > schur_limit:
            tracer.add("vi_solver.saddle_calls", 1)

    def evaluated(result, *args, **kwargs):
        tracer.add("element.eval_points", result[0].size)

    tracer.wrap(adaptive, "initial_mesh", "mesh.initial_mesh")
    tracer.wrap(adaptive, "bisect", "mesh.bisect")
    tracer.wrap_init(adaptive, "DofMap", "element.DofMap")
    tracer.wrap(element.DofMap, "eval_function", "element.eval_function",
                evaluated)
    tracer.wrap(adaptive, "assemble_system", "assembly.assemble_system",
                last_nnz)
    tracer.wrap(adaptive, "assemble_constraints",
                "assembly.assemble_constraints")
    tracer.wrap(adaptive, "solve_vi", "vi_solver.solve_vi", solved)
    tracer.wrap(adaptive, "kkt_residual", "vi_solver.kkt_residual", kkt)
    tracer.wrap_init(vi_solver, "SpdSolver", "vi_solver.SpdSolver")
    tracer.wrap(vi_solver, "solve_equality_qp", "vi_solver.solve_equality_qp",
                eqp)
    _trace_splu(tracer, vi_solver)
    tracer.wrap(adaptive, "estimate", "estimator.estimate")
    tracer.wrap(adaptive, "true_error", "estimator.true_error")
    tracer.wrap(adaptive, "doerfler_mark", "adaptive.doerfler_mark")

    def points(result, x, *args, **kwargs):
        tracer.add("problems.data_points", getattr(x, "size", 1))

    for attr in PROBLEM_CLOSURES:
        if _lookup(problem, attr) is not None:
            tracer.wrap(problem, attr, f"problems.{attr}", points)
    exact = _lookup(problem, "exact")
    if exact is not None:
        for attr in EXACT_CLOSURES:
            tracer.wrap(exact, attr, f"problems.exact.{attr}", points)


# per-layer metric -> span name whose inclusive durations it sums
SPAN_SECONDS = {
    "element.dofmap_s": "element.DofMap",
    "element.eval_s": "element.eval_function",
    "estimator.estimate_s": "estimator.estimate",
    "estimator.true_error_s": "estimator.true_error",
    "vi_solver.solve_s": "vi_solver.solve_vi",
    "vi_solver.spd_factor_s": "vi_solver.SpdSolver",
    "vi_solver.eqp_s": "vi_solver.solve_equality_qp",
    "vi_solver.splu_s": "vi_solver.splu",
    "vi_solver.kkt_s": "vi_solver.kkt_residual",
    "assembly.system_s": "assembly.assemble_system",
    "assembly.constraints_s": "assembly.assemble_constraints",
    "mesh.bisect_s": "mesh.bisect",
    "adaptive.mark_s": "adaptive.doerfler_mark",
}
# per-layer metric -> span name whose calls it counts
SPAN_CALLS = {
    "element.eval_calls": "element.eval_function",
    "vi_solver.eqp_calls": "vi_solver.solve_equality_qp",
    "vi_solver.splu_calls": "vi_solver.splu",
    "mesh.bisect_calls": "mesh.bisect",
}
# counters read at the layer boundaries; zero when the layer never ran
COUNTERS = ("problems.data_points", "element.eval_points",
            "vi_solver.saddle_calls", "vi_solver.lu_fill_max",
            "vi_solver.splu_order_max", "vi_solver.backsolve_cols",
            "vi_solver.iterations", "vi_solver.kkt_worst",
            "assembly.nnz_final")

ROOT = "adaptive.adaptive_solve"
# largest share of a traced study the adaptive loop may spend outside the
# wrapped layer calls; it is 0.1-0.2 % when every call the loop makes is
# wrapped, so work moved into an unwrapped function fails the trace (leaving
# estimate unwrapped puts 2.5 % of an ex4-uniform study there)
ROOT_SELF_LIMIT = 0.01


def self_times(spans):
    """Span duration minus the time its direct children cover, checking on
    the way that every child lies inside its parent."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        p = s["parent"]
        if p is None:
            continue
        parent = spans[p]
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            raise TraceError(f"span {s['name']} escapes its parent "
                             f"{parent['name']}")
        own[p] -= s["end"] - s["start"]
    return own


def validate(tracer, bypassed, study_s):
    """Fail loudly unless every installed wrapper fired (or is expected to
    be bypassed on this workload and did not fire), no span nests in one of
    its own name, and the wrapped layers cover all but ROOT_SELF_LIMIT of
    the traced study time."""
    spans = tracer.spans
    fired = {s["name"] for s in spans}
    silent = tracer.installed - fired - set(bypassed)
    if silent:
        raise TraceError(f"spans never fired: {sorted(silent)}")
    unexpected = fired & set(bypassed)
    if unexpected:
        raise TraceError(f"spans fired on a workload that should bypass "
                         f"them: {sorted(unexpected)}")
    if not spans or spans[0]["name"] != ROOT or spans[0]["parent"] is not None:
        raise TraceError(f"first span is not the {ROOT} root")
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1:
        raise TraceError(f"{len(roots)} root spans, expected one")
    for s in spans:
        p = s["parent"]
        while p is not None:
            if spans[p]["name"] == s["name"]:
                raise TraceError(f"span {s['name']} nests in itself; its "
                                 f"inclusive time would count twice")
            p = spans[p]["parent"]
    own = self_times(spans)
    if min(own) < -1e-9:
        raise TraceError("children of a span cover more than the span")
    if own[0] > ROOT_SELF_LIMIT * study_s:
        raise TraceError(f"{own[0]:.3f} s of the {study_s:.3f} s traced study "
                         f"is outside every wrapped layer; a layer function "
                         f"the loop calls is not wrapped")
    return own


def layer_metrics(tracer, run, own):
    """Per-layer metrics of one traced study."""
    seconds, calls = {}, {}
    for s in tracer.spans:
        seconds[s["name"]] = seconds.get(s["name"], 0.0) + s["end"] - s["start"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    out = {m: seconds.get(name, 0.0) for m, name in SPAN_SECONDS.items()}
    # the reference error runs only on problems with an exact solution, and
    # none of those gates a change, so its time is reported where it runs
    if "estimator.true_error" not in calls:
        del out["estimator.true_error_s"]
    out.update({m: calls.get(name, 0) for m, name in SPAN_CALLS.items()})
    out.update({k: tracer.counters.get(k, 0) for k in COUNTERS})
    out["problems.data_s"] = sum(v for k, v in seconds.items()
                                 if k.startswith("problems."))
    eqp = out["vi_solver.eqp_calls"]
    out["vi_solver.accept_ratio"] = (calls.get("vi_solver.solve_vi", 0) / eqp
                                     if eqp else 0.0)
    out["adaptive.iterations"] = len(run.records)
    out["adaptive.dofs_cumulative"] = sum(r.dofs for r in run.records)
    out["adaptive.self_s"] = own[0]
    out["mesh.elements_final"] = run.mesh.n_elements
    return out
