import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from morley_ocp import vi_solver
from morley_ocp.element import DofMap
from morley_ocp.mesh import initial_mesh, uniform_refine
from morley_ocp.problems import ProblemSpec, example, manufactured
from morley_ocp.vi_solver import (SolverError, kkt_residual,
                                  solve_equality_qp, solve_vi)

from conftest import assemble, constraints, random_mesh
from oracles import exhaustive_box_solve, projected_gradient


def setup_case_i(problem, mesh):
    dm = DofMap(mesh)
    A, b = assemble(dm, problem)
    cons = constraints(dm, problem)
    return dm, A, b, cons


# -- linear solves: equality QPs without rows ---------------------------

def _no_rows(n):
    return sp.csr_matrix((0, n))


def test_solve_spd_zero_rhs():
    A = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    x, nu = solve_equality_qp(A, np.zeros(3), _no_rows(3), [],
                              lambda: vi_solver.SpdSolver(A))
    assert np.all(x == 0) and len(nu) == 0


def test_solve_spd_diagonal():
    d = np.array([2.0, 4.0, 8.0, 16.0])
    A = sp.csr_matrix(np.diag(d))
    rhs = np.array([2.0, 4.0, 8.0, 16.0])
    x, _ = solve_equality_qp(A, rhs, _no_rows(4), [],
                             lambda: vi_solver.SpdSolver(A))
    assert np.allclose(x, np.ones(4), atol=1e-14)


def test_solve_spd_random_matrix_residual():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((50, 50))
    A = sp.csr_matrix(M @ M.T + 50 * np.eye(50))
    b = rng.standard_normal(50)
    x, _ = solve_equality_qp(A, b, _no_rows(50), [],
                             lambda: vi_solver.SpdSolver(A))
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-12


def test_singular_factorization_raises():
    A = sp.csr_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(SolverError, match="factorization failed"):
        solve_equality_qp(A, np.ones(2), _no_rows(2), [],
                          lambda: vi_solver.SpdSolver(A))


def test_nan_rhs_raises():
    # a NaN residual compares false against every limit; it must not pass
    A = sp.csr_matrix(np.diag([1.0, 2.0]))
    with pytest.raises(SolverError, match="linear solve failed"):
        solve_equality_qp(A, np.array([np.nan, 1.0]), _no_rows(2), [],
                          lambda: vi_solver.SpdSolver(A))


def test_pdas_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(vi_solver, "PDAS_MAX_ITERATIONS", 1)
    prob = example(4)
    mesh = initial_mesh(0.0, 1.0, 2)
    dm = DofMap(mesh)
    A, b = assemble(dm, prob)
    cons = constraints(dm, prob)
    with pytest.raises(SolverError, match="did not converge in 1 iterations"):
        solve_vi(A, b, cons)


# -- equality-constrained QP ---------------------------------------------

def test_equality_qp_no_rows(unit_cross):
    dm, A, b, cons = setup_case_i(manufactured(0), unit_cross)
    x, nu = solve_equality_qp(A, b, sp.csr_matrix((0, len(b))), [],
                              lambda: vi_solver.SpdSolver(A))
    assert len(nu) == 0
    assert np.linalg.norm(A @ x - b, np.inf) < 1e-9 * np.abs(b).max()


def test_equality_qp_single_row(unit_cross):
    dm, A, b, cons = setup_case_i(manufactured(0), unit_cross)
    t = 0.123
    state = cons.rows[[0]]
    x, nu = solve_equality_qp(A, b, state, [t], lambda: vi_solver.SpdSolver(A))
    assert (state @ x)[0] == pytest.approx(t, abs=1e-10)
    r = A @ x - b - state.T @ nu
    assert np.abs(r).max() < 1e-10 * max(1, np.abs(b).max())


def test_equality_qp_two_rows(unit_cross):
    dm, A, b, cons = setup_case_i(manufactured(0), unit_cross)
    rows = cons.rows                # the state and the control row
    targets = [0.05, 1.5]
    x, nu = solve_equality_qp(A, b, rows, targets,
                              lambda: vi_solver.SpdSolver(A))
    assert (rows @ x)[0] == pytest.approx(0.05, abs=1e-10)
    assert (rows @ x)[1] == pytest.approx(1.5, abs=1e-9)
    r = A @ x - b - rows.T @ nu
    assert np.abs(r).max() < 1e-10 * max(1, np.abs(b).max())


def _two_row_case():
    dm, A, b, cons = setup_case_i(manufactured(1), initial_mesh(0.0, 1.0, 1))
    return A, b, cons.rows, np.array([0.02, 0.7])


def _ex4_pinned_case():
    # the state row plus 100 element averages of ex4 pinned to their lower
    # or upper bounds, as in a PDAS step: more rows than SCHUR_ROW_LIMIT
    dm = DofMap(uniform_refine(initial_mesh(0.0, 1.0, 4), 2))
    prob = example(4)
    A, b = assemble(dm, prob)
    cons = constraints(dm, prob)
    lo, up = np.arange(1, 201, 4), np.arange(2, 201, 4)
    return A, b, cons.rows[np.r_[0, lo, up]], np.r_[cons.lower[0],
                                                     cons.lower[lo],
                                                     cons.upper[up]]


def test_equality_qp_saddle_path_matches_schur(monkeypatch):
    import morley_ocp.vi_solver as vs
    # only the Schur route factors A on its own
    built = []
    spd = vs.SpdSolver
    monkeypatch.setattr(vs, "SpdSolver", lambda A: built.append(A) or spd(A))
    for case in (_two_row_case, _ex4_pinned_case):
        A, b, R, targets = case()
        k = R.shape[0]
        built.clear()
        monkeypatch.setattr(vs, "SCHUR_ROW_LIMIT", k)
        x1, nu1 = solve_equality_qp(A, b, R, targets,
                                    lambda: vi_solver.SpdSolver(A))
        assert len(built) == 1
        monkeypatch.setattr(vs, "SCHUR_ROW_LIMIT", k - 1)
        x2, nu2 = solve_equality_qp(A, b, R, targets,
                                    lambda: vi_solver.SpdSolver(A))
        assert len(built) == 1
        assert np.allclose(x1, x2, atol=1e-9)
        assert np.allclose(nu1, nu2, atol=1e-9)
        # both refined answers satisfy the true KKT system
        for x, nu in ((x1, nu1), (x2, nu2)):
            assert np.abs(R @ x - targets).max() <= 1e-10 * max(
                1.0, np.abs(targets).max())
            r = A @ x - b - R.T @ nu
            assert np.abs(r).max() <= 1e-9 * np.abs(b).max()


def test_equality_qp_calls_the_factor_factory_only_on_the_schur_route(
        monkeypatch):
    A, b, R, targets = _two_row_case()
    calls = []

    def spd():
        calls.append(1)
        return vi_solver.SpdSolver(A)

    monkeypatch.setattr(vi_solver, "SCHUR_ROW_LIMIT", R.shape[0] - 1)
    solve_equality_qp(A, b, R, targets, spd)
    assert calls == []
    monkeypatch.setattr(vi_solver, "SCHUR_ROW_LIMIT", R.shape[0])
    solve_equality_qp(A, b, R, targets, spd)
    assert calls == [1]


class _PoorLU:
    """A factor whose solves come back scaled by 0.1: an approximate inverse
    whose refinement steps shrink the residual by 0.9 at best."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return 0.1 * self.lu.solve(rhs)


def test_poor_approximate_inverse_fails_the_certificate(monkeypatch):
    # every route is refined against the true bordered system and rejected
    # when its residual stays above RESIDUAL_LIMIT
    real = vi_solver._symmetric_splu
    monkeypatch.setattr(vi_solver, "_symmetric_splu",
                        lambda M: _PoorLU(real(M)))
    for case in (_two_row_case, _ex4_pinned_case):
        A, b, R, targets = case()
        for limit in (R.shape[0], R.shape[0] - 1):      # Schur, saddle
            monkeypatch.setattr(vi_solver, "SCHUR_ROW_LIMIT", limit)
            with pytest.raises(SolverError, match="linear solve failed"):
                solve_equality_qp(A, b, R, targets,
                                  lambda: vi_solver.SpdSolver(A))


def test_equality_qp_saddle_dependent_rows_raise():
    # the regularized saddle factor is nonsingular even for a repeated row;
    # refining against the true system must still expose the inconsistency
    import morley_ocp.vi_solver as vs
    A, b, R, targets = _ex4_pinned_case()
    assert R.shape[0] > vs.SCHUR_ROW_LIMIT
    R = sp.vstack([R, R[1]], format="csr")
    targets = np.r_[targets, targets[1] + max(1.0, abs(targets[1]))]
    with pytest.raises(SolverError):
        solve_equality_qp(A, b, R, targets, lambda: vi_solver.SpdSolver(A))


# -- integral case --------------------------------------------------------

def test_case_i_unconstrained(unit_cross):
    prob = manufactured(3)          # slack bounds by construction
    dm, A, b, cons = setup_case_i(prob, unit_cross)
    sol = solve_vi(A, b, cons)
    assert sol.mu == 0.0 and np.all(sol.lam == 0.0)
    assert np.all(sol.active == 0)
    assert sol.iterations == 1


def test_case_i_state_active_manufactured():
    prob = manufactured(5, active_state=True)
    mesh = uniform_refine(initial_mesh(0.0, 1.0, 2), 1)
    dm, A, b, cons = setup_case_i(prob, mesh)
    sol = solve_vi(A, b, cons)
    assert sol.active[0] == -1 and sol.mu > 0
    assert np.all(sol.lam == 0.0)
    assert (cons.rows @ sol.coefficients)[0] == pytest.approx(
        cons.lower[0], abs=1e-10)
    # the mean functional is exact on the discrete space, so the designed
    # multiplier is recovered at rounding level already on coarse meshes
    assert abs(sol.mu - prob.multipliers["mu"]) < 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_case_i_matches_projected_gradient_and_enumeration(seed):
    mesh = random_mesh(seed, max_elements=16)
    # bounds chosen to make constraints bind for some seeds
    prob = manufactured(seed, active_state=bool(seed % 2))
    dm, A, b, cons = setup_case_i(prob, mesh)
    sol = solve_vi(A, b, cons)
    rows, bounds = list(cons.rows.toarray()), list(cons.lower)

    x_pg = projected_gradient(A.toarray(), b, rows, bounds)
    scale = 1 + np.abs(sol.coefficients).max()
    assert np.abs(sol.coefficients - x_pg).max() / scale < 1e-8

    # independent dense enumeration of the four candidates
    Ad = A.toarray()
    best = None
    for active in [(), (0,), (1,), (0, 1)]:
        k = len(active)
        K = np.zeros((len(b) + k, len(b) + k))
        K[:len(b), :len(b)] = Ad
        R = np.array([rows[i] for i in active]) if k else np.zeros((0, len(b)))
        K[:len(b), len(b):] = R.T
        K[len(b):, :len(b)] = R
        rhs = np.concatenate([b, [bounds[i] for i in active]])
        try:
            solvec = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            continue
        x, mults = solvec[:len(b)], -solvec[len(b):]
        if any(m < -1e-9 for m in mults):
            continue
        feasible = all(rows[i] @ x >= bounds[i] - 1e-9 * max(1, abs(bounds[i]))
                       for i in range(2) if i not in active)
        if feasible:
            best = x
            break
    assert best is not None
    assert np.abs(sol.coefficients - best).max() / scale < 1e-8


def test_case_i_infeasible_data_raises(unit_cross):
    # contradictory dependent rows make the feasible set empty
    prob = manufactured(2)
    dm, A, b, cons = setup_case_i(prob, unit_cross)
    cons.rows = sp.vstack([cons.rows[0], -cons.rows[0]], format="csr")
    cons.lower = np.array([1.0, 1.0])
    with pytest.raises(SolverError):
        solve_vi(A, b, cons)


# -- box case (PDAS) ------------------------------------------------------

def box_problem(lo=-50.0, hi=50.0, delta3=-100.0, beta=1.0, tilt=0.0):
    # with tilt 400 the unconstrained element averages on the 4-element
    # criss-cross are 1.60 / 7.69 / 1.60 / -4.49 and the state mean 0.219
    return ProblemSpec(
        domain=(0.0, 0.0, 1.0, 1.0), beta=beta,
        y_d=lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y) * 20.0
                          + tilt * (x - 0.5)),
        f=None, f_laplacian=None, delta3=delta3,
        u_a=lambda x, y: np.full_like(np.asarray(x, float), lo),
        u_b=lambda x, y: np.full_like(np.asarray(x, float), hi))


def test_case_ii_unconstrained_single_iteration(unit_cross):
    prob = box_problem(lo=-1e4, hi=1e4, delta3=-1e4)
    dm = DofMap(unit_cross)
    A, b = assemble(dm, prob)
    cons = constraints(dm, prob)
    sol = solve_vi(A, b, cons)
    assert sol.iterations == 1
    assert np.all(sol.lam == 0.0) and sol.mu == 0.0
    assert np.all(sol.active == 0)


def test_case_ii_example4_certificate():
    prob = example(4)
    mesh = uniform_refine(initial_mesh(0.0, 1.0, 2), 1)
    dm = DofMap(mesh)
    A, b = assemble(dm, prob)
    cons = constraints(dm, prob)
    sol = solve_vi(A, b, cons)
    stat, feas, comp = kkt_residual(A, b, cons, sol)
    assert stat <= 1e-8 and feas <= 1e-9 and comp <= 1e-9
    lam = sol.lam
    act = sol.active[1:]
    assert np.all(lam[act == -1] >= -1e-9)
    assert np.all(lam[act == 1] <= 1e-9)
    assert np.all(lam[act == 0] == 0.0)
    assert np.any(act != 0)        # the box does bind for these data


@pytest.mark.parametrize("cfg", [
    # boxes bind on both sides
    (dict(lo=-2.0, hi=3.0, delta3=-100.0), False, [0, 1, 0, -1]),
    # the lower edge sits at zero
    (dict(lo=0.0, hi=2.0, delta3=-100.0), False, [0, 1, 0, -1]),
    # the state row binds as well
    (dict(lo=-2.0, hi=3.0, delta3=0.3), True, [0, 1, 0, -1]),
])
def test_case_ii_matches_exhaustive_enumeration(unit_cross, cfg):
    box, state, pattern = cfg
    prob = box_problem(**box, tilt=400.0)
    dm = DofMap(unit_cross)
    A, b = assemble(dm, prob)
    cons = constraints(dm, prob)
    sol = solve_vi(A, b, cons)
    assert (sol.active[0] == -1) == state
    np.testing.assert_array_equal(sol.active[1:], pattern)
    x_ref, mu_ref, lam_ref = exhaustive_box_solve(
        A.toarray(), b, cons.rows, cons.lower, cons.upper)
    scale = 1 + np.abs(x_ref).max()
    assert np.abs(sol.coefficients - x_ref).max() / scale < 1e-8
    assert sol.mu == pytest.approx(mu_ref, abs=1e-7 * (1 + abs(mu_ref)))
    assert np.allclose(sol.lam, lam_ref,
                       atol=1e-7 * (1 + np.abs(lam_ref).max()))


def test_case_ii_eight_element_enumeration():
    from morley_ocp.mesh import bisect

    mesh = initial_mesh(0.0, 1.0, 1)
    mesh = bisect(mesh, range(mesh.n_elements))
    assert mesh.n_elements == 8
    prob = box_problem(lo=-2.0, hi=3.0, delta3=-100.0, tilt=400.0)
    dm = DofMap(mesh)
    A, b = assemble(dm, prob)
    cons = constraints(dm, prob)
    sol = solve_vi(A, b, cons)
    # both boxes bind, on every element
    assert sol.active[0] == 0
    np.testing.assert_array_equal(sol.active[1:],
                                  [-1, 1, 1, 1, 1, -1, -1, -1])
    x_ref, mu_ref, lam_ref = exhaustive_box_solve(
        A.toarray(), b, cons.rows, cons.lower, cons.upper)
    scale = 1 + np.abs(x_ref).max()
    assert np.abs(sol.coefficients - x_ref).max() / scale < 1e-8


def test_case_ii_certificate_on_sixteen_elements():
    mesh = initial_mesh(0.0, 1.0, 2)
    assert mesh.n_elements == 16
    prob = box_problem(lo=-2.0, hi=2.0, delta3=-100.0)
    dm = DofMap(mesh)
    A, b = assemble(dm, prob)
    cons = constraints(dm, prob)
    sol = solve_vi(A, b, cons)
    stat, feas, comp = kkt_residual(A, b, cons, sol)
    assert max(stat, feas, comp) <= 1e-9


# -- warm start and factorization on first use -----------------------------

def _box_system(prob, mesh):
    dm = DofMap(mesh)
    A, b = assemble(dm, prob)
    return A, b, constraints(dm, prob)


WARM_START_CASES = {
    # the 16-element certificate problem: nothing binds
    "sixteen": lambda: (box_problem(lo=-2.0, hi=2.0, delta3=-100.0),
                        initial_mesh(0.0, 1.0, 2)),
    # state row and every upper box bind
    "sixteen-state": lambda: (box_problem(lo=-2.0, hi=2.0, delta3=0.3),
                              initial_mesh(0.0, 1.0, 2)),
    "ex4": lambda: (example(4), initial_mesh(0.0, 1.0, 4)),
}


@pytest.mark.parametrize("name", sorted(WARM_START_CASES))
def test_case_ii_warm_start_from_solution_takes_one_iteration(name):
    A, b, cons = _box_system(*WARM_START_CASES[name]())
    cold = solve_vi(A, b, cons)
    warm = solve_vi(A, b, cons, cold.active)
    assert warm.iterations == 1
    np.testing.assert_array_equal(warm.active, cold.active)
    scale = np.abs(cold.coefficients).max()
    assert np.abs(warm.coefficients - cold.coefficients).max() <= 1e-12 * scale


@pytest.mark.parametrize("name", sorted(WARM_START_CASES))
def test_case_ii_adversarial_guess_reaches_cold_solution(name):
    A, b, cons = _box_system(*WARM_START_CASES[name]())
    nt = cons.rows.shape[0] - 1
    cold = solve_vi(A, b, cons)
    scale = np.abs(cold.coefficients).max()
    rng = np.random.default_rng(8)
    # the state row has no upper bound, so its guess is -1 or 0
    for guess in (np.r_[-1, np.ones(nt, dtype=np.int64)],
                  np.r_[0, rng.integers(-1, 2, nt)]):
        sol = solve_vi(A, b, cons, guess)
        np.testing.assert_array_equal(sol.active, cold.active)
        assert np.abs(sol.coefficients - cold.coefficients).max() <= (
            1e-12 * scale)
        assert max(kkt_residual(A, b, cons, sol)) <= 1e-9


def _count_spd_factorizations(monkeypatch):
    built = []
    real = vi_solver.SpdSolver

    def counting(A):
        built.append(A)
        return real(A)

    monkeypatch.setattr(vi_solver, "SpdSolver", counting)
    return built


def test_case_ii_factors_spd_only_when_a_solve_uses_it(monkeypatch):
    # warm: every iteration pins more rows than SCHUR_ROW_LIMIT, so every
    # solve takes the saddle route and A is never factored on its own
    A, b, cons = _box_system(example(4),
                             uniform_refine(initial_mesh(0.0, 1.0, 4), 2))
    cold = solve_vi(A, b, cons)
    assert np.count_nonzero(cold.active) > vi_solver.SCHUR_ROW_LIMIT
    built = _count_spd_factorizations(monkeypatch)
    warm = solve_vi(A, b, cons, cold.active)
    assert warm.iterations == 1 and built == []
    # cold: every step takes the Schur route, and they share one factor
    A, b, cons = _box_system(*WARM_START_CASES["sixteen-state"]())
    sol = solve_vi(A, b, cons)
    assert sol.active[0] == -1 and sol.iterations > 1 and len(built) == 1


def test_superlu_panel_options_keep_the_saddle_fill(monkeypatch):
    # the smallest supernode relaxation and panel width speed up SuperLU
    # and leave the fill of a uniform ex4 saddle no higher than SuperLU's
    # defaults do; SciPy 1.17.1 corrupts its heap with large relax values
    assert 1 <= vi_solver.SUPERLU_RELAX <= vi_solver.SUPERLU_PANEL_SIZE
    A, b, cons = _box_system(example(4),
                             uniform_refine(initial_mesh(0.0, 1.0, 4), 4))
    cold = solve_vi(A, b, cons)
    factored = []
    real = vi_solver._symmetric_splu
    monkeypatch.setattr(vi_solver, "_symmetric_splu",
                        lambda M: factored.append(M) or real(M))
    solve_vi(A, b, cons, cold.active)
    K = factored[0]
    assert K.shape[0] == A.shape[0] + np.count_nonzero(cold.active)
    assert K.shape[0] > A.shape[0] + vi_solver.SCHUR_ROW_LIMIT
    lu = real(K)
    default = spla.splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0, options={"SymmetricMode": True})
    assert lu.L.nnz + lu.U.nnz <= default.L.nnz + default.U.nnz


# 16 elements: the state row and 16 element rows
@pytest.mark.parametrize("guess", [np.zeros(16), np.zeros(18),
                                   np.zeros((17, 1))])
def test_case_ii_guess_of_wrong_shape_raises(guess):
    A, b, cons = _box_system(*WARM_START_CASES["sixteen"]())
    with pytest.raises(SolverError, match="guess has shape"):
        solve_vi(A, b, cons, guess)


def test_guess_upper_active_without_upper_bound_raises(unit_cross):
    # the state row and the integral control row have no upper bound, so
    # a guess cannot pin them there
    A, b, cons = _box_system(*WARM_START_CASES["sixteen"]())
    with pytest.raises(SolverError, match="without an upper bound"):
        solve_vi(A, b, cons, np.r_[1, np.zeros(16, int)])
    _, A, b, cons = setup_case_i(manufactured(0), unit_cross)
    with pytest.raises(SolverError, match="without an upper bound"):
        solve_vi(A, b, cons, np.array([0, 1]))


def test_degenerate_rows_do_not_stall_pdas():
    # every row's lower bound is its value at the unconstrained minimizer:
    # each row is met with a zero multiplier, so started with all rows
    # pinned, PDAS sees only rounding-level multipliers and violations;
    # switching on their signs (PDAS_ROUNDING = 0) does not settle in 50
    # iterations
    import dataclasses
    dm = DofMap(uniform_refine(initial_mesh(0.0, 1.0, 4), 2))
    prob = example(4)
    A, b = assemble(dm, prob)
    cons = constraints(dm, prob)
    x, _ = solve_equality_qp(A, b, cons.rows[:0], [],
                             lambda: vi_solver.SpdSolver(A))
    values = cons.rows @ x
    cons = dataclasses.replace(cons, lower=values,
                               upper=np.r_[np.inf, values[1:] + 1.0])
    sol = solve_vi(A, b, cons, -np.ones(len(values), int))
    assert not np.any(sol.active) and sol.iterations <= 3
    assert max(kkt_residual(A, b, cons, sol)) <= 1e-12


# -- KKT residual ----------------------------------------------------------

def test_kkt_residual_zero_problem(unit_cross):
    prob = manufactured(0)
    dm, A, b, cons = setup_case_i(prob, unit_cross)
    b = np.zeros_like(b)
    cons.lower = np.array([-1.0, -1.0])
    sol = solve_vi(A, b, cons)
    assert kkt_residual(A, b, cons, sol) == (0.0, 0.0, 0.0)


def test_kkt_residual_detects_perturbation(unit_cross):
    prob = manufactured(1)
    dm, A, b, cons = setup_case_i(prob, unit_cross)
    sol = solve_vi(A, b, cons)
    stat0, _, _ = kkt_residual(A, b, cons, sol)
    assert stat0 <= 1e-8
    sol.coefficients = sol.coefficients.copy()
    sol.coefficients[0] += 1e-3
    stat1, _, _ = kkt_residual(A, b, cons, sol)
    assert stat1 > 1e-6


def test_kkt_residual_keeps_nan_violation(unit_cross):
    # a NaN bound must not read as a satisfied constraint
    _, A, b, cons = setup_case_i(manufactured(1), unit_cross)
    sol = solve_vi(A, b, cons)
    cons.lower[1] = np.nan          # the control row's bound
    _, feas, comp = kkt_residual(A, b, cons, sol)
    assert np.isnan(feas) and np.isnan(comp)

    prob = box_problem()
    dm = DofMap(unit_cross)
    A, b = assemble(dm, prob)
    cons = constraints(dm, prob)
    sol = solve_vi(A, b, cons)
    cons.upper[1] = np.nan          # the first element's upper box
    _, feas, _ = kkt_residual(A, b, cons, sol)
    assert np.isnan(feas)


# -- optimality properties --------------------------------------------------

def _project_feasible(x, rows, bounds):
    for _ in range(32):
        viol = [k for k in range(2) if rows[k] @ x < bounds[k]]
        if not viol:
            return x
        if len(viol) == 1:
            r, bd = rows[viol[0]], bounds[viol[0]]
            x = x + (bd - r @ x) / (r @ r) * r
        else:
            R = np.array(rows)
            lam = np.linalg.solve(R @ R.T, np.array(bounds) - R @ x)
            x = x + R.T @ lam
    return x


def test_energy_optimality_under_feasible_perturbations():
    mesh = uniform_refine(initial_mesh(0.0, 1.0, 1), 1)
    prob = manufactured(4, active_state=True)
    dm, A, b, cons = setup_case_i(prob, mesh)
    sol = solve_vi(A, b, cons)
    x = sol.coefficients
    rows, bounds = list(cons.rows.toarray()), list(cons.lower)
    J = lambda v: 0.5 * v @ (A @ v) - b @ v
    J0 = J(x)
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = rng.standard_normal(len(x))
        w = _project_feasible(x + 1e-2 * d / np.linalg.norm(d), rows, bounds)
        assert J(w) >= J0 - 1e-9 * max(1.0, abs(J0))


def test_discrete_variational_inequality():
    mesh = uniform_refine(initial_mesh(0.0, 1.0, 1), 1)
    prob = manufactured(6, active_state=True)
    dm, A, b, cons = setup_case_i(prob, mesh)
    sol = solve_vi(A, b, cons)
    x = sol.coefficients
    rows, bounds = list(cons.rows.toarray()), list(cons.lower)
    rng = np.random.default_rng(10)
    scale = max(1.0, abs(0.5 * x @ (A @ x) - b @ x))
    for _ in range(20):
        w = _project_feasible(rng.standard_normal(len(x)), rows, bounds)
        lhs = (A @ x) @ (w - x)
        rhs = b @ (w - x)
        assert lhs >= rhs - 1e-9 * scale


def test_scaling_robustness(unit_cross):
    prob = manufactured(8, active_state=True)
    dm, A, b, cons = setup_case_i(prob, unit_cross)
    sol1 = solve_vi(A, b, cons)
    s = 37.5
    import copy
    cons2 = copy.copy(cons)
    cons2.lower = s * cons.lower
    sol2 = solve_vi(A, s * b, cons2)
    assert np.allclose(sol2.coefficients, s * sol1.coefficients,
                       rtol=1e-10, atol=1e-10 * np.abs(sol1.coefficients).max())
    assert sol2.mu == pytest.approx(s * sol1.mu, rel=1e-10, abs=1e-12)
    assert sol2.lam == pytest.approx(s * sol1.lam, rel=1e-10, abs=1e-12)
