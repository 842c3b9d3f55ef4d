"""Solvers for the discrete variational inequality (constrained QP).

The discrete problem minimizes ``1/2 x'Ax - b'x`` over linear inequality
constraints.  Two structures occur:

* integral case: two scalar rows (state mean, control mean), solved by
  exact enumeration of the four active-set candidates, which share one
  back-solve for ``A^{-1} b`` and one for ``A^{-1}`` of both rows;
* box case: the scalar state row plus per-element control boxes, solved by
  a primal-dual active set iteration with an outer enumeration over the
  state row, started from a given active set (the adaptive loop passes
  the parent mesh's sets: a warm start as in Hintermueller, Ito and
  Kunisch, SIAM J. Optim. 13, 2002).

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
``A x - b - mu * state_row - sum(lambda_T * row_T) = 0`` with ``mu >= 0``
and ``lambda`` nonnegative on lower-active, nonpositive on upper-active
rows.
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

# multiplier signs are checked against this times the load scale, primal
# feasibility against this times max(1, |bound|)
COMPLEMENTARITY_TOLERANCE = 1e-9


class SolverError(Exception):
    pass


@dataclass
class ViSolution:
    """Certified solution of the discrete variational inequality."""

    coefficients: np.ndarray
    mu: float
    lam: float | np.ndarray          # scalar (integral) or per-element (box)
    active_state: bool
    active_control: bool | np.ndarray  # flag, or per-element -1/0/+1 (lower/in/upper)
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

    ``rows`` is a (k, n) array or sparse matrix of linearly independent
    functionals.  Returns (x, multipliers) with the stationarity convention
    ``A x - b - rows' @ multipliers = 0``.
    """
    targets = np.asarray(targets, dtype=float)
    k = 0 if rows is None else (rows.shape[0] if sp.issparse(rows)
                                else len(rows))
    if k == 0:
        return (solver or SpdSolver(A)).solve(b), np.zeros(0)

    R = rows if sp.issparse(rows) else sp.csr_matrix(np.atleast_2d(rows))
    if k <= SCHUR_ROW_LIMIT:
        solver = solver or SpdSolver(A)
        return _schur(solver.solve(b), solver.solve(R.toarray().T), R, targets)

    n = A.shape[0]
    eps = SADDLE_REGULARIZATION * float(np.max(np.abs(A.diagonal())))
    # one copy of the saddle: factor it with -eps on the lower diagonal,
    # then zero those entries (the last stored entry of each of the last k
    # sorted columns) and refine against the true bordered system; stored
    # zeros of A or R would change SuperLU's ordering, so none are kept
    K = sp.bmat([[A, R.T], [R, sp.diags(np.full(k, -eps))]], format="csc")
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
    """max(1, max|b|): the scale of multiplier signs and stationarity."""
    return max(1.0, float(np.max(np.abs(b))) if len(b) else 1.0)


def _feas_tol(bound):
    return COMPLEMENTARITY_TOLERANCE * max(1.0, abs(bound))


def solve_case_i(A, b, constraints: ConstraintSet):
    """Exact active-set enumeration for the two-scalar-row case.

    Tries the candidates {}, {state}, {control}, {state, control} in order
    and accepts the first that is primal feasible with correctly signed
    multipliers.  ``x0 = A^{-1} b`` and ``Y = A^{-1} [s c]`` are computed
    once; each pinned candidate is then a Schur solve of at most 2x2.
    """
    if constraints.case != "integral":
        raise SolverError("solve_case_i needs an integral-case ConstraintSet")
    solver = SpdSolver(A)
    rows = np.vstack([constraints.state_row, constraints.control_row])
    bounds = np.array([constraints.state_bound, constraints.control_bound])
    sign_tol = COMPLEMENTARITY_TOLERANCE * _load_scale(b)
    feas_tol = np.array([_feas_tol(d) for d in bounds])

    x0 = solve_equality_qp(A, b, None, [], solver)[0]
    Y = solver.solve(rows.T)
    candidates = [(), (0,), (1,), (0, 1)]
    for tried, active in enumerate(candidates, start=1):
        pinned = list(active)
        nu = np.zeros(2)
        x = x0
        if pinned:
            x, nu[pinned] = _schur(x0, Y[:, pinned], rows[pinned],
                                   bounds[pinned])
        if np.any(nu < -sign_tol):
            continue
        free = [i for i in range(2) if i not in active]
        if np.any(rows[free] @ x < bounds[free] - feas_tol[free]):
            continue
        logger.debug("case-i accepted active set %s after %d candidates",
                     active, tried)
        return ViSolution(
            coefficients=x, mu=max(float(nu[0]), 0.0),
            lam=max(float(nu[1]), 0.0),
            active_state=0 in active, active_control=1 in active,
            iterations=tried, case="integral")
    raise SolverError("no active-set candidate is feasible with correctly "
                      "signed multipliers (Slater violation or bad data)")


def solve_case_ii(A, b, constraints: ConstraintSet, guess=None):
    """Primal-dual active set iteration for per-element control boxes.

    The scalar state row is handled by an outer enumeration (inactive
    branch first); inside, the standard PDAS switching rule on the
    element-average residuals updates the sets until they repeat.  Both
    branches start from ``guess`` (-1/0/+1 per element as in
    ``active_control``; None is empty) and share a lazily built factor of A.
    """
    if constraints.case != "box":
        raise SolverError("solve_case_ii needs a box-case ConstraintSet")
    s, ds = constraints.state_row, constraints.state_bound
    areas = constraints.areas
    if areas is None:
        raise SolverError("box-case ConstraintSet is missing element areas")
    guess = np.zeros(len(areas), int) if guess is None else np.asarray(guess)
    if guess.shape != areas.shape:
        raise SolverError(f"active-set guess has shape {guess.shape} for "
                          f"{len(areas)} elements")
    spd = functools.cache(lambda: SpdSolver(A))
    sign_tol = COMPLEMENTARITY_TOLERANCE * _load_scale(b)

    last_error = None
    for state_active in (False, True):
        try:
            result = _pdas(A, b, constraints, spd, state_active, areas, guess)
        except SolverError as exc:
            last_error = exc
            continue
        x, mu, lam, act, iters = result
        if state_active and mu < -sign_tol:
            last_error = SolverError("state-active branch produced mu < 0")
            continue
        if not state_active and s @ x < ds - _feas_tol(ds):
            last_error = SolverError("state-inactive branch is infeasible")
            continue
        return ViSolution(
            coefficients=x, mu=max(mu, 0.0), lam=lam,
            active_state=state_active, active_control=act,
            iterations=iters, case="box")
    raise SolverError(f"primal-dual active set failed on both state branches: "
                      f"{last_error}")


def _pdas(A, b, constraints, spd, state_active, areas, guess):
    s, ds = constraints.state_row, constraints.state_bound
    rows, lower, upper = (constraints.element_rows, constraints.lower,
                          constraints.upper)
    nt = rows.shape[0]
    s_row = sp.csr_matrix(s)
    q_lo = lower / areas
    q_up = upper / areas

    lam = np.zeros(nt)
    act_lo = guess == -1
    act_up = guess == 1
    seen = set()
    for it in range(1, PDAS_MAX_ITERATIONS + 1):
        ids_lo = np.flatnonzero(act_lo)
        ids_up = np.flatnonzero(act_up)
        R = rows[np.r_[ids_lo, ids_up]]
        targets = np.r_[lower[ids_lo], upper[ids_up]]
        if state_active:
            R = sp.vstack([s_row, R], format="csr")
            targets = np.r_[ds, targets]
        solver = spd() if len(targets) <= SCHUR_ROW_LIMIT else None
        x, nu = solve_equality_qp(A, b, R, targets, solver)

        mu = 0.0
        off = 0
        if state_active:
            mu, off = float(nu[0]), 1
        lam = np.zeros(nt)
        lam[ids_lo] = nu[off:off + len(ids_lo)]
        lam[ids_up] = nu[off + len(ids_lo):]

        r = np.asarray(rows @ x)
        q_r = r / areas
        new_lo = lam + PDAS_C * (q_lo - q_r) > 0
        new_up = lam + PDAS_C * (q_up - q_r) < 0
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("pdas it=%d state=%s |A_a|=%d |A_b|=%d stat=%.3e",
                         it, state_active, int(new_lo.sum()),
                         int(new_up.sum()),
                         np.linalg.norm(A @ x - b, np.inf))
        if np.array_equal(new_lo, act_lo) and np.array_equal(new_up, act_up):
            act = np.zeros(nt, dtype=np.int64)
            act[act_lo] = -1
            act[act_up] = 1
            return x, mu, lam, act, it
        sig = (new_lo.tobytes(), new_up.tobytes())
        if sig in seen:
            raise SolverError("primal-dual active set is cycling "
                              "(ill-scaled switching constant?)")
        seen.add((act_lo.tobytes(), act_up.tobytes()))
        act_lo, act_up = new_lo, new_up
    raise SolverError(f"primal-dual active set did not converge in "
                      f"{PDAS_MAX_ITERATIONS} iterations")


def solve_vi(A, b, constraints, guess=None):
    """Dispatch on the constraint case (``guess``: see solve_case_ii)."""
    if constraints.case == "integral":
        return solve_case_i(A, b, constraints)
    return solve_case_ii(A, b, constraints, guess)


def kkt_residual(A, b, constraints, solution):
    """(stationarity, feasibility, complementarity), all normalized.

    Stationarity is the max-norm residual of the multiplier identity
    divided by the max-norm of the load; feasibility and complementarity
    are normalized by the constraint scales.
    """
    x = solution.coefficients
    b = np.asarray(b, dtype=float)
    s, ds = constraints.state_row, constraints.state_bound
    r = A @ x - b - solution.mu * s
    sval = float(s @ x)
    scale_s = max(1.0, abs(ds))
    # collected and reduced with np.max, which keeps a NaN term (Python's
    # max(0.0, nan) is 0.0)
    feas = [(ds - sval) / scale_s]
    comp = [abs(solution.mu * (ds - sval)) / scale_s]

    if constraints.case == "integral":
        c, dc = constraints.control_row, constraints.control_bound
        r = r - solution.lam * c
        cval = float(c @ x)
        scale_c = max(1.0, abs(dc))
        feas.append((dc - cval) / scale_c)
        comp.append(abs(solution.lam * (dc - cval)) / scale_c)
    else:
        rows, lower, upper = (constraints.element_rows, constraints.lower,
                              constraints.upper)
        lam = np.asarray(solution.lam)
        r = r - rows.T @ lam
        vals = np.asarray(rows @ x)
        scale = np.maximum(1.0, np.maximum(np.abs(lower), np.abs(upper)))
        feas.append(np.max(np.maximum(lower - vals, vals - upper) / scale,
                           initial=0.0))
        comp_el = np.where(lam > 0, lam * (vals - lower),
                           np.where(lam < 0, lam * (vals - upper), 0.0))
        comp.append(np.max(np.abs(comp_el) / scale, initial=0.0))

    stationarity = float(np.max(np.abs(r))) / _load_scale(b)
    return (stationarity, float(np.max(feas, initial=0.0)),
            float(np.max(comp)))
