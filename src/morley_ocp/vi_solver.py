"""Solver for the discrete variational inequality (constrained QP).

The discrete problem minimizes ``1/2 x'Ax - b'x`` subject to
``lower <= R x <= upper``, where row 0 of R is the state row (lower bound
only) and the remaining rows are control rows: one integral row, or one
row per element with a box.  Both cases run the same primal-dual active
set iteration (Hintermueller, Ito and Kunisch, SIAM J. Optim. 13, 2002),
which handles one-sided and two-sided rows alike and can start from a
given active set; the adaptive loop passes the parent mesh's.

Every matrix is factored by SuperLU in symmetric mode (a fill-reducing
ordering of ``A + A'`` with diagonal pivots).  Each equality-constrained
subproblem is the bordered KKT system ``[[A, R'], [R, 0]]``, and one
iterative-refinement loop against that true system solves and certifies
every one of them: it accepts an answer only if its relative residual is
small.  The loop is preconditioned by one of two approximate inverses.
When few rows are pinned it is block elimination with a Schur complement
on a factorization of A, made on first use and shared across the PDAS
steps.  When many rows are pinned it is a factorization of the
regularized saddle ``[[A, R'], [R, -eps I]]``, which is symmetric
quasi-definite (Vanderbei, SIAM J. Optim. 5, 1995), with ``eps`` derived
from the diagonal of A.  Multipliers follow the sign convention
``A x - b - R' nu = 0`` with ``nu = (mu, lam)``, nonnegative on
lower-active and nonpositive on upper-active rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ConstraintSet

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

# switching quantities within this of zero, relative to max(1, |bound
# averages|), count as zero: on a degenerate row (bound met with a zero
# multiplier, as ex3's control row) the free row's violation and the
# pinned row's multiplier are rounding noise of either sign, and switching
# on that noise can cycle
PDAS_ROUNDING = 1e-12

# SuperLU's supernode relaxation and panel width, at their smallest: with
# fill unchanged to 0.01 %, every factor of an ex4-adaptive study took
# 214 ms in total against 339 ms with the defaults (ex4-uniform 183 against
# 271 ms), and a 119,513-row uniform saddle 288-399 against 510-592 ms.
# SciPy 1.17.1 corrupts its heap on ex4 saddles with relax=80 at the
# default panel width and with relax = panel_size = 40; keep relax small
# and no larger than panel_size
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 2


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


def _symmetric_splu(M):
    """SuperLU in symmetric mode: minimum-degree ordering of ``M + M'`` and
    diagonal pivots, for SPD and symmetric quasi-definite matrices.  A
    singular factor (RuntimeError) or a failed allocation inside SuperLU
    (SystemError, "malloc fails ...") raises SolverError."""
    try:
        return spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0, relax=SUPERLU_RELAX,
                         panel_size=SUPERLU_PANEL_SIZE,
                         options={"SymmetricMode": True})
    except (RuntimeError, SystemError) as exc:
        raise SolverError(f"factorization failed ({exc})") from exc


def _rel_residual(r, b):
    return float(np.linalg.norm(r) / (np.linalg.norm(b) or 1.0))


def _refine(matvec, solve, b):
    """Solve ``K z = b`` with the approximate inverse ``solve`` plus
    iterative refinement against ``matvec``, the product with ``K``.

    Refines until the relative residual meets LINEAR_TOLERANCE or stops
    falling (it no longer halves: the float64 floor of an ill-conditioned
    system), keeps the best iterate, and raises SolverError when that is
    still above RESIDUAL_LIMIT or NaN (a non-finite right-hand side).
    """
    z = solve(b)
    r = b - matvec(z)
    res = _rel_residual(r, b)
    for _ in range(REFINE_STEPS):
        if res <= LINEAR_TOLERANCE:
            break
        z1 = z + solve(r)
        r1 = b - matvec(z1)
        res1 = _rel_residual(r1, b)
        if res1 < res:
            z, r = z1, r1
        stalled = res1 > 0.5 * res
        res = min(res, res1)
        if stalled:
            break
    if not res <= RESIDUAL_LIMIT:
        raise SolverError(f"linear solve failed (relative residual "
                          f"{res:.2e})")
    return z


class SpdSolver:
    """Symmetric-mode SuperLU factorization ``lu`` of a sparse SPD matrix;
    a failed factorization raises SolverError."""

    def __init__(self, A):
        self.lu = _symmetric_splu(A)


def solve_equality_qp(A, b, rows, targets, spd):
    """Minimize 1/2 x'Ax - b'x subject to rows @ x = targets.

    ``rows`` is a sparse (k, n) matrix of linearly independent functionals
    and ``spd`` a factory returning a shared SpdSolver of A, called only on
    the Schur route.  Returns (x, multipliers) with
    the stationarity convention ``A x - b - rows' @ multipliers = 0``.
    """
    n, k = A.shape[0], rows.shape[0]
    if k <= SCHUR_ROW_LIMIT:
        # block elimination with Y = A^{-1} R' and the Schur complement R Y
        lu = spd().lu
        Y = lu.solve(rows.toarray().T)
        S = np.asarray(rows @ Y)

        def solve(z):
            u = lu.solve(z[:n])
            try:
                y = np.linalg.solve(S, rows @ u - z[n:])
            except np.linalg.LinAlgError as exc:
                raise SolverError("singular Schur complement: dependent "
                                  "active rows") from exc
            return np.r_[u - Y @ y, y]
    else:
        # the saddle with -eps on the lower diagonal
        eps = SADDLE_REGULARIZATION * float(np.max(np.abs(A.diagonal())))
        K = sp.bmat([[A, rows.T], [rows, sp.diags(np.full(k, -eps))]],
                    format="csc")
        solve = _symmetric_splu(K).solve

    def bordered(z):
        return np.r_[A @ z[:n] + rows.T @ z[n:], rows @ z[:n]]

    sol = _refine(bordered, solve, np.r_[b, targets])
    return sol[:n], -sol[n:]


def solve_vi(A, b, constraints: ConstraintSet, guess=None):
    """Primal-dual active set iteration over every constraint row.

    Each step pins the active rows to their bounds, solves that equality
    QP, and takes as the next lower (upper) set the rows with
    ``nu + PDAS_C * (bound - value) / size`` above (below) zero by more
    than PDAS_ROUNDING, where ``nu`` is the row's multiplier (zero on free
    rows), so row averages are compared; it stops when the sets repeat.  ``guess`` is the starting
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
    tol = PDAS_ROUNDING * np.maximum(1.0, np.maximum(
        np.abs(q_lo), np.abs(np.where(np.isinf(q_up), 0.0, q_up))))

    act_lo = guess == -1
    act_up = guess == 1
    seen = set()
    for it in range(1, PDAS_MAX_ITERATIONS + 1):
        pinned = np.r_[np.flatnonzero(act_lo), np.flatnonzero(act_up)]
        targets = np.r_[lower[act_lo], upper[act_up]]
        x, nu_pinned = solve_equality_qp(A, b, rows[pinned], targets, spd)
        nu = np.zeros(m)
        nu[pinned] = nu_pinned

        q = (rows @ x) / sizes
        new_lo = nu + PDAS_C * (q_lo - q) > tol
        new_up = nu + PDAS_C * (q_up - q) < -tol
        if np.array_equal(new_lo, act_lo) and np.array_equal(new_up, act_up):
            return ViSolution(
                coefficients=x, mu=float(nu[0]), lam=nu[1:],
                active=act_up.astype(np.int64) - act_lo, iterations=it)
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
    divided by max(1, max-norm of the load); feasibility and complementarity
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
    stationarity = np.max(np.abs(r)) / max(1.0, np.max(np.abs(b)))
    return float(stationarity), float(feas), float(np.max(comp, initial=0.0))
