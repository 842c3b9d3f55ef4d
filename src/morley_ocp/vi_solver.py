"""Solver for the discrete variational inequality (constrained QP).

The discrete problem minimizes ``1/2 x'Ax - b'x`` subject to
``lower <= R x <= upper``, where row 0 of R is the state row (lower bound
only) and the remaining rows are control rows: one integral row, or one
row per element with a box.  Both cases run the same primal-dual active
set iteration (Hintermueller, Ito and Kunisch, SIAM J. Optim. 13, 2002),
which handles one-sided and two-sided rows alike and can start from a
given active set; the adaptive loop passes the parent mesh's.

Every matrix is factored by SuperLU in symmetric mode (a fill-reducing
ordering of ``A + A'`` with diagonal pivots).  Equality-constrained
subproblems use a Schur complement on a factorization of A, made on first
use, when few rows are pinned, followed by one correction step that
restores the pinned rows to rounding level.  When many rows are pinned
they factor the regularized saddle ``[[A, R'], [R, -eps I]]``, which is
symmetric quasi-definite (Vanderbei, SIAM J. Optim. 5, 1995), with ``eps``
derived from the diagonal of A, and refine its answer against the true
bordered KKT system.  All solves share one iterative-refinement loop that
certifies the relative residual.  Multipliers follow the sign convention
``A x - b - R' nu = 0`` with ``nu = (mu, lam)``, nonnegative on
lower-active and nonpositive on upper-active rows.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ConstraintSet

logger = logging.getLogger("morley_ocp.vi_solver")

# pinned-row count above which equality solves switch to the bordered
# saddle factorization instead of the dense Schur complement
SCHUR_ROW_LIMIT = 64

# saddle regularization relative to max|diag A|; 1e-8..1e-14 all refine to
# the same ex4 answer, while with 1e-6 refinement stalls at a relative
# residual near 1e-4
SADDLE_REGULARIZATION = 1e-10

# at most this many refinement steps after the first solve; refinement
# stops once the relative residual meets LINEAR_TOLERANCE or a step no
# longer halves it, and a solve whose relative residual stays above
# RESIDUAL_LIMIT, or is NaN, is rejected
REFINE_STEPS = 8
LINEAR_TOLERANCE = 1e-12
RESIDUAL_LIMIT = 1e-6

# PDAS switching constant c and iteration cap (Hintermueller, Ito and
# Kunisch, SIAM J. Optim. 13, 2002)
PDAS_C = 1.0
PDAS_MAX_ITERATIONS = 50


class SolverError(Exception):
    pass


@dataclass
class ViSolution:
    """Certified solution of the discrete variational inequality.

    ``active`` is -1/0/+1 (lower-active/inactive/upper-active) per
    constraint row, row 0 the state row; ``mu`` is the state row's
    multiplier and ``lam`` holds the control rows' (one in the integral
    case, one per element in the box case).
    """

    coefficients: np.ndarray
    mu: float
    lam: np.ndarray
    active: np.ndarray
    iterations: int
    case: str


def _symmetric_splu(M):
    """SuperLU in symmetric mode: minimum-degree ordering of ``M + M'`` and
    diagonal pivots, for SPD and symmetric quasi-definite matrices."""
    return spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0, options={"SymmetricMode": True})


def _rel_residual(R, B):
    denom = np.linalg.norm(B, axis=0)
    num = np.linalg.norm(R, axis=0)
    return float(np.max(num / np.where(denom == 0, 1.0, denom)))


def _refine(K, solve, B):
    """Solve ``K X = B`` with the approximate inverse ``solve`` plus
    iterative refinement against ``K``.

    Refines until the relative residual meets LINEAR_TOLERANCE or stops
    falling (it no longer halves: the float64 floor of an ill-conditioned
    system), keeps the best iterate, and raises SolverError when that is
    still above RESIDUAL_LIMIT or NaN (a non-finite right-hand side).
    """
    X = solve(B)
    R = B - K @ X
    res = _rel_residual(R, B)
    for _ in range(REFINE_STEPS):
        if res <= LINEAR_TOLERANCE:
            break
        X1 = X + solve(R)
        R1 = B - K @ X1
        res1 = _rel_residual(R1, B)
        if res1 < res:
            X, R = X1, R1
        stalled = res1 > 0.5 * res
        res = min(res, res1)
        if stalled:
            break
    if not res <= RESIDUAL_LIMIT:
        raise SolverError(f"linear solve failed (relative residual "
                          f"{res:.2e})")
    if res > 1e2 * LINEAR_TOLERANCE:
        logger.debug("linear solve stalled at relative residual %.2e "
                     "(conditioning floor)", res)
    return X


class SpdSolver:
    """Symmetric-mode SuperLU factorization of a sparse SPD matrix; a
    failed factorization raises SolverError.

    ``solve`` refines iteratively until the relative residual meets
    LINEAR_TOLERANCE.
    """

    def __init__(self, A):
        self.A = A
        try:
            self._lu = _symmetric_splu(A)
        except RuntimeError as exc:
            raise SolverError(f"factorization failed ({exc})") from exc

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        single = rhs.ndim == 1
        B = rhs[:, None] if single else rhs
        X = _refine(self.A, self._lu.solve, B)
        return X[:, 0] if single else X


def _schur(x0, Y, R, targets):
    """Pin ``R x = targets`` given ``x0 = A^{-1} b`` and ``Y = A^{-1} R'``.

    Returns (x, multipliers).  One correction step with the same ``Y`` and
    Schur complement brings the pinned rows back to rounding level.
    """
    S = np.asarray(R @ Y)
    x, nu = x0, np.zeros(len(targets))
    for _ in range(2):
        try:
            dnu = np.linalg.solve(S, targets - R @ x)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular Schur complement: dependent active "
                              "rows") from exc
        if not np.all(np.isfinite(dnu)):
            raise SolverError("singular Schur complement: dependent active rows")
        x, nu = x + Y @ dnu, nu + dnu
    return x, nu


def solve_equality_qp(A, b, rows, targets, solver=None):
    """Minimize 1/2 x'Ax - b'x subject to rows @ x = targets.

    ``rows`` is a sparse (k, n) matrix of linearly independent
    functionals.  Returns (x, multipliers) with the stationarity convention
    ``A x - b - rows' @ multipliers = 0``.
    """
    targets = np.asarray(targets, dtype=float)
    k = rows.shape[0]
    if k == 0:
        return (solver or SpdSolver(A)).solve(b), np.zeros(0)
    if k <= SCHUR_ROW_LIMIT:
        solver = solver or SpdSolver(A)
        return _schur(solver.solve(b), solver.solve(rows.toarray().T), rows,
                      targets)

    n = A.shape[0]
    eps = SADDLE_REGULARIZATION * float(np.max(np.abs(A.diagonal())))
    # one copy of the saddle: factor it with -eps on the lower diagonal,
    # then zero those entries (the last stored entry of each of the last k
    # sorted columns) and refine against the true bordered system; stored
    # zeros of A or the rows would change SuperLU's ordering, so none are kept
    K = sp.bmat([[A, rows.T], [rows, sp.diags(np.full(k, -eps))]],
                format="csc")
    K.eliminate_zeros()
    K.sort_indices()
    try:
        lu = _symmetric_splu(K)
    except RuntimeError as exc:
        raise SolverError("saddle factorization failed (dependent active "
                          "rows?)") from exc
    K.data[K.indptr[n + 1:] - 1] = 0.0
    sol = _refine(K, lu.solve, np.concatenate([b, targets]))
    return sol[:n], -sol[n:]


def _load_scale(b):
    """max(1, max|b|): the scale of stationarity."""
    return max(1.0, float(np.max(np.abs(b))) if len(b) else 1.0)


def solve_vi(A, b, constraints: ConstraintSet, guess=None):
    """Primal-dual active set iteration over every constraint row.

    Each step pins the active rows to their bounds, solves that equality
    QP, and takes as the next lower (upper) set the rows with
    ``nu + PDAS_C * (bound - value) / size`` above (below) zero, where
    ``nu`` is the row's multiplier (zero on free rows), so row averages are
    compared; it stops when the sets repeat.  ``guess`` is the starting
    active set, -1/0/+1 per row as in ``ViSolution.active`` (None: nothing
    active).  The factor of A is built on first use and shared by every
    step that takes the Schur route.
    """
    rows, lower, upper, sizes = (constraints.rows, constraints.lower,
                                 constraints.upper, constraints.sizes)
    m = rows.shape[0]
    guess = np.zeros(m, int) if guess is None else np.asarray(guess)
    if guess.shape != (m,):
        raise SolverError(f"active-set guess has shape {guess.shape} for "
                          f"{m} constraint rows")
    if np.any(np.isinf(upper[guess == 1])):
        raise SolverError("active-set guess puts a row without an upper "
                          "bound at its upper bound")
    spd = functools.cache(lambda: SpdSolver(A))
    q_lo = lower / sizes
    q_up = upper / sizes

    act_lo = guess == -1
    act_up = guess == 1
    seen = set()
    for it in range(1, PDAS_MAX_ITERATIONS + 1):
        pinned = np.r_[np.flatnonzero(act_lo), np.flatnonzero(act_up)]
        targets = np.r_[lower[act_lo], upper[act_up]]
        solver = spd() if len(pinned) <= SCHUR_ROW_LIMIT else None
        x, nu_pinned = solve_equality_qp(A, b, rows[pinned], targets, solver)
        nu = np.zeros(m)
        nu[pinned] = nu_pinned

        q = (rows @ x) / sizes
        new_lo = nu + PDAS_C * (q_lo - q) > 0
        new_up = nu + PDAS_C * (q_up - q) < 0
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("pdas it=%d |A_a|=%d |A_b|=%d stat=%.3e", it,
                         int(new_lo.sum()), int(new_up.sum()),
                         np.linalg.norm(A @ x - b, np.inf))
        if np.array_equal(new_lo, act_lo) and np.array_equal(new_up, act_up):
            return ViSolution(
                coefficients=x, mu=float(nu[0]), lam=nu[1:],
                active=act_up.astype(np.int64) - act_lo, iterations=it,
                case=constraints.case)
        sig = (new_lo.tobytes(), new_up.tobytes())
        if sig in seen:
            raise SolverError("primal-dual active set is cycling "
                              "(ill-scaled switching constant?)")
        seen.add((act_lo.tobytes(), act_up.tobytes()))
        act_lo, act_up = new_lo, new_up
    raise SolverError(f"primal-dual active set did not converge in "
                      f"{PDAS_MAX_ITERATIONS} iterations")


def kkt_residual(A, b, constraints, solution):
    """(stationarity, feasibility, complementarity), all normalized.

    Stationarity is the max-norm residual of the multiplier identity
    divided by the max-norm of the load; feasibility and complementarity
    are normalized per row by max(1, |lower|, |upper|), an infinite upper
    bound left out.
    """
    x = solution.coefficients
    b = np.asarray(b, dtype=float)
    rows, lower, upper = constraints.rows, constraints.lower, constraints.upper
    nu = np.r_[solution.mu, solution.lam]
    r = A @ x - b - rows.T @ nu
    vals = rows @ x
    finite_up = np.where(np.isinf(upper), 0.0, upper)
    scale = np.maximum(1.0, np.maximum(np.abs(lower), np.abs(finite_up)))
    # reduced with np.max, which keeps a NaN term (Python's max(0.0, nan)
    # is 0.0); a zero multiplier times a NaN bound stays NaN as well
    feas = np.max(np.maximum(lower - vals, vals - upper) / scale, initial=0.0)
    comp = np.abs(nu * (vals - np.where(nu < 0, upper, lower))) / scale
    stationarity = float(np.max(np.abs(r))) / _load_scale(b)
    return stationarity, float(feas), float(np.max(comp, initial=0.0))
