import dataclasses
import gc

import numpy as np
import pytest

from morley_ocp import cli
from morley_ocp.adaptive import (AdaptConfig, AdaptiveError, RunRecord,
                                 adaptive_solve, doerfler_mark, solve_on_mesh)
from morley_ocp.element import DofMap
from morley_ocp.mesh import initial_mesh
from morley_ocp.problems import example, manufactured
from morley_ocp.vi_solver import SolverError

from conftest import fit_slope
from oracles import assert_conforming


def _rec(i, dofs, eta):
    return RunRecord(iteration=i, dofs=dofs, elements=dofs, eta_h=eta,
                     eta1=0, eta2=0, eta3=0, eta4=0, eta5=0)


# -- marking ---------------------------------------------------------------

def test_doerfler_example():
    marked = doerfler_mark([9.0, 4.0, 1.0, 1.0], 0.3)
    assert list(marked) == [0]


def test_doerfler_near_one_marks_all_nonzero():
    ind = np.array([5.0, 0.0, 3.0, 2.0])
    marked = doerfler_mark(ind, 0.999)
    assert set(marked) == {0, 2, 3}


def test_doerfler_relabeling_equivariance():
    rng = np.random.default_rng(0)
    ind = rng.uniform(0, 1, size=37)
    ind[rng.choice(37, size=5, replace=False)] = 0.5  # force ties
    marked = doerfler_mark(ind, 0.41)
    perm = rng.permutation(37)
    ind2 = np.empty_like(ind)
    ind2[perm] = ind                    # new index of old element i
    marked2 = doerfler_mark(ind2, 0.41)
    # same mass is selected either way
    assert ind[marked].sum() == pytest.approx(ind2[marked2].sum(), rel=1e-13)
    assert len(marked) == len(marked2)


def test_doerfler_minimality():
    rng = np.random.default_rng(1)
    ind = rng.uniform(0.1, 1.0, size=50)
    theta = 0.3
    marked = doerfler_mark(ind, theta)
    total = ind.sum()
    assert ind[marked].sum() >= theta * total
    smallest = marked[np.argmin(ind[marked])]
    rest = [t for t in marked if t != smallest]
    assert ind[rest].sum() < theta * total


def test_doerfler_marks_whole_tie_groups():
    # groups of indicators equal up to their last bits, as symmetric data on
    # a symmetric mesh give them; the minimal prefix ends inside the group
    # of 3s, and which of its members rounding puts first must not matter
    rng = np.random.default_rng(2)
    ind = rng.permutation(np.repeat([5.0, 3.0, 2.0, 1.0], [2, 4, 3, 5]))
    marked = doerfler_mark(ind, 0.4)
    assert set(marked) == set(np.flatnonzero(ind >= 3.0))
    for _ in range(20):
        noisy = ind * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, len(ind)))
        np.testing.assert_array_equal(doerfler_mark(noisy, 0.4), marked)


def test_doerfler_rejects_bad_input():
    with pytest.raises(ValueError):
        doerfler_mark([0.0, 0.0], 0.3)
    with pytest.raises(ValueError):
        doerfler_mark([1.0], 1.5)
    with pytest.raises(ValueError):
        doerfler_mark([-1.0, 2.0], 0.3)
    with pytest.raises(ValueError):
        doerfler_mark([1.0, np.nan, 2.0, 0.5], 0.3)


# -- slope fitting -----------------------------------------------------------

def test_fit_slope_exact_half():
    recs = [_rec(i, d, d**-0.5) for i, d in enumerate([10, 20, 40, 80, 160])]
    assert fit_slope(recs, 5) == pytest.approx(-0.5, abs=1e-12)


def test_fit_slope_constant_and_linear():
    recs = [_rec(i, d, 7.0) for i, d in enumerate([10, 100, 1000])]
    assert fit_slope(recs, 3) == pytest.approx(0.0, abs=1e-12)
    recs = [_rec(i, d, 5.0 / d) for i, d in enumerate([10, 100, 1000])]
    assert fit_slope(recs, 3) == pytest.approx(-1.0, abs=1e-12)


def test_fit_slope_window_validation():
    recs = [_rec(0, 10, 1.0)]
    with pytest.raises(ValueError):
        fit_slope(recs, 2)
    with pytest.raises(ValueError):
        fit_slope(recs * 3, 1)


@pytest.mark.parametrize("subdivisions", [2.5, 0.5, 0, float("nan")])
def test_adapt_config_rejects_non_integral_subdivisions(subdivisions):
    # 2.5 used to pass the check and run on the 16 elements of 2
    with pytest.raises(ValueError, match="initial_subdivisions"):
        AdaptConfig(initial_subdivisions=subdivisions)
    assert AdaptConfig(initial_subdivisions=2.0).initial_subdivisions == 2


# -- adaptive loop -----------------------------------------------------------

def test_single_iteration_run(monkeypatch):
    import morley_ocp.adaptive as adaptive

    monkeypatch.setattr(adaptive, "MAX_ITERATIONS", 1)
    run = adaptive_solve(manufactured(0), AdaptConfig(initial_subdivisions=2))
    assert len(run.records) == 1
    assert run.mesh.n_elements == 16   # initial criss-cross, never refined


def test_dofs_increase_and_meshes_conform():
    run = adaptive_solve(manufactured(1, active_state=True),
                         AdaptConfig(max_dofs=800, initial_subdivisions=1))
    dofs = [r.dofs for r in run.records]
    assert all(b > a for a, b in zip(dofs, dofs[1:]))
    assert dofs[-1] > 800
    assert_conforming(run.mesh, 0.0, 1.0)
    assert all(r.kkt_stationarity <= 1e-8 for r in run.records)


def test_deterministic_records():
    cfg = AdaptConfig(max_dofs=600, initial_subdivisions=1)
    r1 = adaptive_solve(manufactured(2), cfg).records
    r2 = adaptive_solve(manufactured(2), cfg).records
    assert len(r1) == len(r2)
    for a, b in zip(r1, r2):
        da, db = dataclasses.asdict(a), dataclasses.asdict(b)
        da.pop("wall_ms")
        db.pop("wall_ms")
        assert da == db


def test_uniform_mode_matches_slope():
    # smooth data on a convex domain: uniform refinement is optimal too;
    # the error slope is clean (-0.50 measured), the estimator still
    # carries the decaying data-term transient and may only be steeper
    run = adaptive_solve(example(1),
                         AdaptConfig(uniform=True, max_dofs=10000,
                                     initial_subdivisions=2))
    dofs = [r.dofs for r in run.records]
    assert dofs[-1] > 10000
    s_err = fit_slope(run.records, 3, "energy_error")
    assert -0.65 <= s_err <= -0.35
    assert fit_slope(run.records, 3) <= -0.35


def test_zero_indicators_stop_with_the_record(monkeypatch):
    # an exactly resolved solution has nothing to mark: the loop stops and
    # keeps the record it appended instead of raising from doerfler_mark
    import dataclasses
    import morley_ocp.adaptive as adaptive

    real = adaptive.estimate

    def zero_indicators(*args, **kwargs):
        breakdown = real(*args, **kwargs)
        return dataclasses.replace(
            breakdown,
            element_indicators=np.zeros_like(breakdown.element_indicators))

    monkeypatch.setattr(adaptive, "estimate", zero_indicators)
    run = adaptive_solve(manufactured(0),
                         AdaptConfig(max_dofs=10**6, initial_subdivisions=1))
    assert len(run.records) == 1
    assert run.records[0].dofs == DofMap(run.mesh).n_dofs
    assert run.solution is not None


def test_solver_failure_names_the_iteration(monkeypatch, capsys, tmp_path):
    # a solver failure on the first refined mesh surfaces as AdaptiveError
    # at iteration 1, and `solve` turns it into exit code 3
    import morley_ocp.adaptive as adaptive

    real = adaptive.solve_vi

    def failing_second_call():
        calls = []

        def solve_vi(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise SolverError("injected failure")
            return real(*args, **kwargs)
        return solve_vi

    monkeypatch.setattr(adaptive, "solve_vi", failing_second_call())
    with pytest.raises(AdaptiveError) as info:
        adaptive_solve(manufactured(0), AdaptConfig(initial_subdivisions=1))
    assert info.value.iteration == 1

    monkeypatch.setattr(adaptive, "solve_vi", failing_second_call())
    code = cli.run(["solve", "--problem", "manufactured", "--subdivisions",
                    "1", "--out", str(tmp_path / "run")])
    assert code == 3
    assert "study failed: iteration 1" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["solve_vi", "bisect"])
def test_out_of_memory_is_a_solver_failure(monkeypatch, capsys, tmp_path,
                                           name):
    # a MemoryError from the linear algebra or from refining the level must
    # end as AdaptiveError, and `solve` as exit code 3, not as a traceback
    # with exit code 1
    import morley_ocp.adaptive as adaptive

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(adaptive, name, out_of_memory)
    with pytest.raises(AdaptiveError, match="out of memory on 4 elements") \
            as info:
        adaptive_solve(manufactured(0), AdaptConfig(initial_subdivisions=1))
    assert info.value.iteration == 0

    code = cli.run(["solve", "--problem", "manufactured", "--subdivisions",
                    "1", "--out", str(tmp_path / "run")])
    assert code == 3
    err = capsys.readouterr().err
    assert "study failed: iteration 0: out of memory" in err
    assert not (tmp_path / "run").exists()


def test_superlu_malloc_failure_is_a_solver_failure(monkeypatch, capsys,
                                                    tmp_path):
    # SuperLU reports a failed allocation as SystemError ("malloc fails for
    # local dworkptr[]"); it must end as AdaptiveError and exit code 3
    from morley_ocp import vi_solver

    def splu(*args, **kwargs):
        raise SystemError("malloc fails for local dworkptr[].")

    monkeypatch.setattr(vi_solver.spla, "splu", splu)
    with pytest.raises(AdaptiveError, match="factorization failed") as info:
        adaptive_solve(manufactured(0), AdaptConfig(initial_subdivisions=1))
    assert info.value.iteration == 0

    code = cli.run(["solve", "--problem", "manufactured", "--subdivisions",
                    "1", "--out", str(tmp_path / "run")])
    assert code == 3
    assert "study failed: iteration 0" in capsys.readouterr().err


def test_nan_data_fail_the_first_iteration():
    # NaN data must not end as a normal study with eta_h = nan and a stop
    # on "all element indicators are zero"
    prob = example(4)
    y_d = prob.y_d
    prob = dataclasses.replace(
        prob, y_d=lambda x, y: np.where(x > 0.7, np.nan, y_d(x, y)))
    with pytest.raises(AdaptiveError) as info:
        adaptive_solve(prob, AdaptConfig(max_dofs=2000))
    assert info.value.iteration == 0


@pytest.mark.parametrize("uniform", [False, True], ids=["adaptive", "uniform"])
@pytest.mark.parametrize("nan_where", [lambda x: True, lambda x: x > 0.5],
                         ids=["everywhere", "x>0.5"])
def test_nan_estimator_fails_the_first_iteration(monkeypatch, capsys, tmp_path,
                                                 nan_where, uniform):
    # f_laplacian enters only the estimator: NaN on every element used to
    # end the study with eta_h = nan and "all element indicators are zero",
    # NaN on some elements with doerfler_mark's ValueError (exit code 2)
    import morley_ocp.problems as problems

    prob = example(2)
    f_lap = prob.f_laplacian
    prob = dataclasses.replace(prob, f_laplacian=lambda x, y: np.where(
        nan_where(x), np.nan, f_lap(x, y)))
    with pytest.raises(AdaptiveError, match="estimator is not finite") \
            as info:
        adaptive_solve(prob, AdaptConfig(max_dofs=2000, uniform=uniform))
    assert info.value.iteration == 0

    monkeypatch.setattr(problems, "example", lambda name: prob)
    code = cli.run(["solve", "--problem", "ex2", "--max-dofs", "2000",
                    "--out", str(tmp_path / "run")]
                   + ["--uniform"] * uniform)
    assert code == 3
    assert "study failed: iteration 0: estimator is not finite" \
        in capsys.readouterr().err


@pytest.mark.parametrize("name, field, match", [
    ("ex4", "u_b", "non-finite Q_T"),
    ("ex2", "f", "source integral is not finite"),
], ids=["ex4-u_b", "ex2-f"])
def test_nan_constraint_data_fail_the_first_iteration(monkeypatch, capsys,
                                                      tmp_path, name, field,
                                                      match):
    # a NaN box bound or source integral makes assemble_constraints raise
    # AssemblyError; it must end the study as AdaptiveError naming the
    # iteration, and `solve` as exit code 3, not as a traceback
    import morley_ocp.problems as problems

    prob = example(int(name[2:]))
    data = getattr(prob, field)
    prob = dataclasses.replace(prob, **{field: lambda x, y: np.where(
        x > 0.5, np.nan, data(x, y))})
    with pytest.raises(AdaptiveError, match=match) as info:
        adaptive_solve(prob, AdaptConfig(max_dofs=2000))
    assert info.value.iteration == 0

    monkeypatch.setattr(problems, "example", lambda name: prob)
    code = cli.run(["solve", "--problem", name, "--max-dofs", "2000",
                    "--out", str(tmp_path / "run")])
    assert code == 3
    assert "study failed: iteration 0: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_each_level_frees_the_previous_mesh_and_dofmap(monkeypatch):
    # the loop holds one level at a time: when a level's DofMap is built,
    # no earlier level's DofMap or Mesh is alive
    import weakref
    import morley_ocp.adaptive as adaptive

    refs, alive = [], []

    class Watched(DofMap):
        def __init__(self, mesh):
            alive.append(sum(ref() is not None for ref in refs))
            super().__init__(mesh)
            refs.extend((weakref.ref(self), weakref.ref(mesh)))

    monkeypatch.setattr(adaptive, "DofMap", Watched)
    run = adaptive_solve(example(4), AdaptConfig(max_dofs=1500))
    assert len(alive) == len(run.records) > 3
    assert alive == [0] * len(alive)
    # the run keeps the last level's mesh, and no DofMap
    assert [ref() for ref in refs[1::2]] == [None] * (len(alive) - 1) \
        + [run.mesh]
    assert all(ref() is None for ref in refs[::2])


def test_study_leaves_no_cyclic_garbage():
    # every object a level builds, its refinement included, is freed by
    # reference counting alone, so no level's tables wait for the cyclic
    # collector while the next level assembles and factors
    gc.collect()
    gc.disable()
    try:
        run = adaptive_solve(example(4), AdaptConfig(max_dofs=1500))
        assert run.records[-1].dofs > 1500
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- problem data ------------------------------------------------------------

@pytest.mark.parametrize("name, constants", [
    ("ex3", {"y_d": 3.3}),
    ("ex1", {"f": 2.0, "f_laplacian": 0.0}),
    ("ex4", {"y_d": 3.3, "u_a": 0.0, "u_b": 30.0}),
])
def test_constant_data_closures_match_full_arrays(name, constants):
    # a data closure may return a scalar; the study is the one whose
    # closures return the same constant as an array of the points' shape
    problem = example(int(name[2:]))
    scalar = dataclasses.replace(
        problem, **{k: (lambda x, y, v=v: v) for k, v in constants.items()})
    full = dataclasses.replace(
        problem, **{k: (lambda x, y, v=v: np.full_like(x, v))
                    for k, v in constants.items()})
    cfg = AdaptConfig(max_dofs=500)
    got = adaptive_solve(scalar, cfg).records
    want = adaptive_solve(full, cfg).records
    assert len(got) == len(want)
    for a, b in zip(got, want):
        da, db = dataclasses.asdict(a), dataclasses.asdict(b)
        da.pop("wall_ms")
        db.pop("wall_ms")
        assert da == db


@pytest.mark.parametrize("name, per_element", [
    ("ex1", {"y_d": [16], "f": [16], "f_laplacian": [16],
             "exact.value": [25], "exact.hessian": [25]}),
    ("ex4", {"y_d": [16], "u_a": [16], "u_b": [16]}),
    ("ex2", {"y_d": [16], "f": [16], "f_laplacian": [16],
             "exact.value": [25], "exact.hessian": [25]}),
])
def test_solve_on_mesh_samples_each_data_closure_once(monkeypatch, name,
                                                      per_element):
    # one level reads y_d, f, f_laplacian and the box bounds once at the 16
    # points per element of DofMap.points (the load and int_Omega f share
    # the one sample of f), and the exact solution once at the 25 error
    # points; assembly runs in several chunks and still shares the samples
    import morley_ocp.assembly as assembly

    monkeypatch.setattr(assembly, "_CHUNK", 6)
    problem = example(int(name[2:]))
    calls = {}

    def counted(key, fn):
        def closure(x, y):
            calls.setdefault(key, []).append(np.size(x))
            return fn(x, y)
        return closure

    for key in ("y_d", "f", "f_laplacian", "u_a", "u_b"):
        if getattr(problem, key) is not None:
            setattr(problem, key, counted(key, getattr(problem, key)))
    if problem.exact is not None:
        for key in ("value", "gradient", "hessian"):
            setattr(problem.exact, key,
                    counted(f"exact.{key}", getattr(problem.exact, key)))
    mesh = initial_mesh(*problem.square, 2)
    solve_on_mesh(problem, mesh)
    nt = mesh.n_elements
    assert nt > assembly._CHUNK
    assert calls == {k: [q * nt for q in v] for k, v in per_element.items()}


# ex2 is left out: its warm start saves no PDAS iteration at this budget
@pytest.mark.parametrize("name", ["ex1", "ex3", "ex4"])
def test_warm_start_keeps_the_study_and_saves_iterations(monkeypatch, name):
    # the same study with every level's PDAS started from empty sets
    import morley_ocp.adaptive as adaptive
    from morley_ocp import vi_solver

    problem = example(int(name[2:]))
    cfg = AdaptConfig(max_dofs=2000)
    warm = adaptive_solve(problem, cfg).records
    monkeypatch.setattr(adaptive, "solve_vi",
                        lambda A, b, cons, guess=None:
                        vi_solver.solve_vi(A, b, cons))
    cold = adaptive_solve(problem, cfg).records
    assert [r.dofs for r in warm] == [r.dofs for r in cold]
    assert [r.state_active for r in warm] == [r.state_active for r in cold]
    for key in ("n_active_lower", "n_active_upper"):
        assert [getattr(r, key) for r in warm] == [getattr(r, key) for r in cold]
    for key in ("lambda_min", "lambda_max"):
        np.testing.assert_allclose([getattr(r, key) for r in warm],
                                   [getattr(r, key) for r in cold],
                                   rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose([r.eta_h for r in warm],
                               [r.eta_h for r in cold], rtol=1e-12)
    assert (sum(r.solver_iterations for r in warm)
            < sum(r.solver_iterations for r in cold))
