"""SOLVE -> ESTIMATE -> MARK -> REFINE loop with run bookkeeping.

Marking uses the bulk (Doerfler) criterion on squared element indicators:
the minimal prefix of elements, ordered by decreasing indicator (ties by
ascending id), whose sum reaches ``theta`` times the total, extended by
the indicators equal to its last one up to rounding.  Refinement is
newest-vertex bisection.  Every iteration records DOF count, estimator
parts, errors against the reference solution when available, the control
multipliers' range and active-set sizes, KKT certificates, and wall time.
Each level's PDAS iteration starts from the previous level's active set;
in the box case the element rows carry it to the children through
``Mesh.parent``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import AssemblyError, assemble_constraints, assemble_system
from .element import DofMap, sample
from .estimator import estimate, true_error
from .mesh import bisect, initial_mesh
from .vi_solver import SolverError, kkt_residual, solve_vi

logger = logging.getLogger("morley_ocp.adaptive")

# the loop stops after this many iterations even below the DoF budget
MAX_ITERATIONS = 80

# indicators within this relative distance of the last marked one are
# marked too, so that indicators equal up to the solve's rounding (1e-11
# relative on the acceptance studies' finest meshes) are never split
TIE_TOLERANCE = 1e-10


class AdaptiveError(Exception):
    """A failed level of the study, with the adaptive iteration attached."""

    def __init__(self, message, iteration):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass
class AdaptConfig:
    theta: float = 0.3
    max_dofs: int = 30000
    uniform: bool = False
    initial_subdivisions: int = 4

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.initial_subdivisions < 1:
            raise ValueError("initial_subdivisions must be >= 1")


@dataclass
class RunRecord:
    """One adaptive iteration; plain data, serializable via ``asdict``."""

    iteration: int
    dofs: int
    elements: int
    eta_h: float
    eta1: float
    eta2: float
    eta3: float
    eta4: float
    eta5: float
    energy_error: Optional[float] = None
    l2_error: Optional[float] = None
    h2_error: Optional[float] = None
    eff_index: Optional[float] = None
    mu_h: float = 0.0
    lambda_min: float = 0.0
    lambda_max: float = 0.0
    n_active_lower: int = 0
    n_active_upper: int = 0
    state_active: bool = False
    kkt_stationarity: float = 0.0
    kkt_feasibility: float = 0.0
    kkt_complementarity: float = 0.0
    solver_iterations: int = 0
    osc: float = 0.0
    wall_ms: float = 0.0


@dataclass
class AdaptiveRun:
    """Record list plus the final mesh/solution for post-processing."""

    records: list
    mesh: object
    solution: object
    breakdown: object


def doerfler_mark(indicators, theta):
    """Bulk-criterion element set: sorted by indicator descending (ties by
    ascending id), the shortest prefix with sum >= theta * total, plus the
    elements within a relative TIE_TOLERANCE of its last indicator."""
    indicators = np.asarray(indicators, dtype=float)
    if not np.all(indicators >= 0):
        raise ValueError("indicators must be nonnegative numbers")
    total = indicators.sum()
    if total <= 0.0:
        raise ValueError("all-zero indicators: nothing to mark")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    order = np.lexsort((np.arange(len(indicators)), -indicators))
    ranked = indicators[order]
    k = int(np.searchsorted(np.cumsum(ranked), theta * total, side="left"))
    k = min(k, len(indicators) - 1)
    tie = ranked[k] * (1.0 - TIE_TOLERANCE)
    return np.sort(order[:int(np.searchsorted(-ranked, -tie, side="right"))])


def solve_on_mesh(problem, mesh, guess=None):
    """One SOLVE+ESTIMATE pass; returns (solution, breakdown, error_report,
    kkt), and the level's DofMap and system die with the call.  ``guess``
    is the starting active set, per constraint row."""
    dofmap = DofMap(mesh)
    yd = sample(problem.y_d, dofmap.points)
    A, b = assemble_system(dofmap, problem, yd)
    cons = assemble_constraints(dofmap, problem)
    solution = solve_vi(A, b, cons, guess)
    kkt = kkt_residual(A, b, cons, solution)
    breakdown = estimate(dofmap, solution, problem, yd)
    report = None
    if problem.exact is not None:
        report = true_error(dofmap, solution.coefficients, problem.exact,
                            problem.beta)
    return solution, breakdown, report, kkt


def adaptive_solve(problem, adapt=None):
    """Run the adaptive loop until the DOF budget or MAX_ITERATIONS.

    Returns an AdaptiveRun of the records and the last level; solver and
    assembly failures, running out of memory and a non-finite estimator
    raise AdaptiveError naming the iteration.
    """
    adapt = adapt or AdaptConfig()
    lo, hi = problem.square
    mesh = initial_mesh(lo, hi, adapt.initial_subdivisions)
    records = []
    guess = None

    for it in range(MAX_ITERATIONS):
        t0 = time.perf_counter()
        try:
            solution, breakdown, report, kkt = solve_on_mesh(problem, mesh,
                                                             guess)
        except (SolverError, AssemblyError) as exc:
            raise AdaptiveError(str(exc), it) from exc
        except MemoryError as exc:
            raise AdaptiveError(f"out of memory on {mesh.n_elements} "
                                "elements", it) from exc
        wall_ms = 1000.0 * (time.perf_counter() - t0)

        eta_sq = breakdown.eta_sq.sum(axis=1)
        etas, eta_h = np.sqrt(eta_sq), float(np.sqrt(eta_sq.sum()))
        # any NaN or infinite entry of the indicator table makes eta_h so
        if not np.isfinite(eta_h):
            raise AdaptiveError(f"estimator is not finite (eta_h = {eta_h})",
                                it)
        err = None if report is None else report.energy_error
        act = solution.active[1:]
        rec = RunRecord(
            iteration=it, dofs=solution.coefficients.size,
            elements=mesh.n_elements,
            eta_h=eta_h, eta1=float(etas[0]), eta2=float(etas[1]),
            eta3=float(etas[2]), eta4=float(etas[3]), eta5=float(etas[4]),
            energy_error=err,
            l2_error=None if report is None else report.l2_error,
            h2_error=None if report is None else report.h2_broken_seminorm_error,
            eff_index=eta_h / err if err else None,
            mu_h=float(solution.mu),
            lambda_min=float(solution.lam.min()),
            lambda_max=float(solution.lam.max()),
            n_active_lower=int(np.count_nonzero(act == -1)),
            n_active_upper=int(np.count_nonzero(act == 1)),
            state_active=bool(solution.active[0]),
            kkt_stationarity=kkt[0], kkt_feasibility=kkt[1],
            kkt_complementarity=kkt[2],
            solver_iterations=int(solution.iterations),
            osc=float(np.sqrt(np.sum(breakdown.osc_elem**2))),
            wall_ms=wall_ms,
        )
        records.append(rec)
        logger.info("it=%d dofs=%d eta=%.4e err=%s wall=%.0fms",
                    it, rec.dofs, rec.eta_h,
                    "-" if rec.energy_error is None else f"{rec.energy_error:.4e}",
                    wall_ms)

        if rec.dofs > adapt.max_dofs or it + 1 >= MAX_ITERATIONS:
            break
        if adapt.uniform:
            marked = np.arange(mesh.n_elements)
        elif not np.any(breakdown.element_indicators > 0):
            logger.info("it=%d all element indicators are zero; nothing to "
                        "mark, stopping", it)
            break
        else:
            marked = doerfler_mark(breakdown.element_indicators, adapt.theta)
        mesh = bisect(mesh, marked)
        guess = solution.active
        if problem.case == "box":
            guess = guess[np.r_[0, 1 + mesh.parent]]

    # every exit is a break before bisect, so these names hold the last level
    return AdaptiveRun(records, mesh, solution, breakdown)
