"""Adaptive bubble-enriched Morley FEM for elliptic optimal control with
integral state constraints."""

import os

__version__ = "0.1.0"


def thread_mode():
    """Value of MORLEY_OCP_THREADS: 0 means strict single-threaded
    deterministic mode (BLAS pinned to one thread, timing columns zeroed)."""
    raw = os.environ.get("MORLEY_OCP_THREADS", "")
    try:
        return int(raw)
    except ValueError:
        return -1


def deterministic_mode():
    return thread_mode() == 0


def _pin_threads():
    n = thread_mode()
    if n < 0:
        return
    count = "1" if n == 0 else str(n)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, count)


_pin_threads()  # before any numpy import below

from .mesh import Mesh, MeshError, bisect, initial_mesh, uniform_refine  # noqa: E402
from .element import DofMap, integrate  # noqa: E402
from .assembly import (ConstraintSet, assemble_constraints,  # noqa: E402
                       assemble_system, element_laplacian_rows)
from .vi_solver import (SolverError, SpdSolver, ViSolution,  # noqa: E402
                        kkt_residual, solve_equality_qp, solve_vi)
from .estimator import (ErrorReport, EstimatorBreakdown, estimate,  # noqa: E402
                        eta_edges, eta_interior, true_error)
from .adaptive import (AdaptConfig, AdaptiveError, AdaptiveRun, RunRecord,  # noqa: E402
                       adaptive_solve, doerfler_mark, solve_on_mesh)
from .problems import (ExactSolution, ProblemSpec, example,  # noqa: E402
                       manufactured)

__all__ = [
    "Mesh", "MeshError", "bisect", "initial_mesh", "uniform_refine",
    "DofMap", "integrate",
    "ConstraintSet", "assemble_constraints", "assemble_system",
    "element_laplacian_rows",
    "SolverError", "SpdSolver", "ViSolution",
    "kkt_residual", "solve_equality_qp", "solve_vi",
    "ErrorReport", "EstimatorBreakdown", "estimate", "eta_edges",
    "eta_interior", "true_error",
    "AdaptConfig", "AdaptiveError", "AdaptiveRun", "RunRecord",
    "adaptive_solve", "doerfler_mark", "solve_on_mesh",
    "ExactSolution", "ProblemSpec", "example", "manufactured",
    "deterministic_mode",
]
