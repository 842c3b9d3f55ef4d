"""Acceptance criteria, one test per criterion, with a PASS/FAIL line each.

The adaptive studies are run once per session and shared.

Criterion 3 checks the reliability bound ``||y - y_h||_h <= C_rel eta_h``
at every recorded iteration of the first three problems, with one
mesh-independent constant ``C_REL = 2`` (oscillation is left out of the
right-hand side, so the check is stricter than the bound).  The method
proves such a constant exists; it does not promise ``C_rel <= 1``.  On ex3
(zero source) the interior and Laplacian-jump terms are O(h^2) and fade,
the second-normal-derivative jumps are superconvergent, and eta_h tends to
its normal-derivative-jump term alone, which stays at 0.48-0.57 of the
energy error along the study and at 0.577 on uniform meshes.  That gives
``C_rel`` of about 1/0.577 = 1.73 there; 2 is the next round value above it
and the same factor that criterion 2 allows.  The PASS line still names the
first iteration, if any, where eta_h falls below the energy error.
"""

import subprocess
import sys

import numpy as np
import pytest

from morley_ocp.adaptive import AdaptConfig, adaptive_solve
from morley_ocp.assembly import assemble_constraints
from morley_ocp.element import DofMap, sample
from morley_ocp.estimator import eta_edges, eta_interior
from morley_ocp.mesh import bisect, initial_mesh
from morley_ocp.problems import ProblemSpec, example, manufactured
from morley_ocp.vi_solver import solve_vi

from conftest import assemble, child_env, fit_slope, random_mesh
from oracles import (assemble_dense, assert_conforming, dof_index,
                     estimator_terms, exhaustive_box_solve, interpolate,
                     min_angle, projected_gradient)


from conftest import ACCEPTANCE_LINES


def report(criterion, ok, detail):
    line = f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def ex1_run():
    return adaptive_solve(example(1), AdaptConfig(theta=0.3, max_dofs=45000))


@pytest.fixture(scope="session")
def ex2_run():
    return adaptive_solve(example(2), AdaptConfig(theta=0.3, max_dofs=25000))


@pytest.fixture(scope="session")
def ex3_run():
    return adaptive_solve(example(3), AdaptConfig(theta=0.3, max_dofs=30000))


@pytest.fixture(scope="session")
def ex4_run():
    return adaptive_solve(example(4), AdaptConfig(theta=0.3, max_dofs=20000))


def test_criterion_1_optimal_decay_ex1(ex1_run):
    rs = ex1_run.records
    assert rs[-1].dofs >= 30000
    s_eta = fit_slope(rs, 6)
    s_err = fit_slope(rs, 6, "energy_error")
    ok = -0.6 <= s_eta <= -0.4 and -0.6 <= s_err <= -0.4
    report(1, ok, f"ex1 to {rs[-1].dofs} DoFs: eta slope {s_eta:.3f}, "
                  f"error slope {s_err:.3f} (required in [-0.6, -0.4])")


@pytest.mark.parametrize("which", ["ex1", "ex3"])
def test_criterion_2_efficiency_band(which, ex1_run, ex3_run):
    run = {"ex1": ex1_run, "ex3": ex3_run}[which]
    eff = [r.eff_index for r in run.records[-5:]]
    band = max(eff) / min(eff)
    report(2, band <= 2.0,
           f"{which} efficiency indices last 5 iterations "
           f"[{min(eff):.3f}, {max(eff):.3f}], max/min {band:.3f} <= 2")


# One reliability constant for ex1-ex3; derived in the module docstring.
C_REL = 2.0


@pytest.mark.parametrize("which", ["ex1", "ex2", "ex3"])
def test_criterion_3_reliability(which, ex1_run, ex2_run, ex3_run):
    run = {"ex1": ex1_run, "ex2": ex2_run, "ex3": ex3_run}[which]
    rs = run.records
    ratios = [r.energy_error / r.eta_h for r in rs]
    worst = rs[int(np.argmax(ratios))]
    below = next((r for r in rs if r.eta_h < r.energy_error), None)
    crossing = ("eta_h >= energy error throughout" if below is None else
                f"first eta_h < energy error at iteration {below.iteration} "
                f"(dofs={below.dofs}: eta_h={below.eta_h:.4e}, "
                f"energy_error={below.energy_error:.4e})")
    report(3, max(ratios) <= C_REL,
           f"{which}: energy error <= {C_REL:g} * eta_h at every iteration "
           f"(max err/eta {max(ratios):.3f} at iteration {worst.iteration}, "
           f"dofs={worst.dofs}); {crossing}")


def _poly_problem(beta):
    return ProblemSpec(
        domain=(0.0, 0.0, 1.0, 1.0), beta=beta,
        y_d=lambda x, y: 1.0 + x**2 * y - 2 * x * y**2 + 0.5 * x,
        f=lambda x, y: x * y - 0.3,
        f_laplacian=lambda x, y: np.zeros_like(np.asarray(x, float)),
        delta1=-10.0, delta2=-10.0)


def test_criterion_4a_matrix_oracle():
    worst = 0.0
    for seed in range(10):
        mesh = random_mesh(seed, max_elements=16)
        dm = DofMap(mesh)
        beta = [1.0, 0.5, 2.0, 0.1, 1.0, 3.0, 0.25, 1.5, 1.0, 0.75][seed]
        A, _ = assemble(dm, _poly_problem(beta))
        dense = A.toarray()
        oracle = assemble_dense(mesh, dm, beta)
        worst = max(worst, np.abs(dense - oracle).max() / np.abs(oracle).max())
    report("4a", worst < 1e-12,
           f"A_h vs dense degree-8 oracle on 10 random meshes: "
           f"max relative deviation {worst:.2e} < 1e-12")


def test_criterion_4b_estimator_oracle():
    worst = 0.0
    for seed in range(10):
        mesh = random_mesh(100 + seed, max_elements=16)
        dm = DofMap(mesh)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(dm.n_dofs)
        mu = float(rng.uniform(0, 2))
        lam = rng.uniform(-1, 1, size=mesh.n_elements)
        prob = _poly_problem(beta=float(rng.uniform(0.2, 3.0)))
        e1, e5 = eta_interior(dm, u, mu, lam, prob,
                              sample(prob.y_d, dm.points))
        e2, e3, e4 = eta_edges(dm, u, prob.beta)
        got = np.array([e1.sum(), e2.sum(), e3.sum(), e4.sum(), e5.sum()])
        want = np.array(estimator_terms(mesh, dm, u, mu, lam, prob)[0])
        worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    report("4b", worst < 1e-12,
           f"eta terms vs brute-force quadrature on 10 random meshes: "
           f"max relative deviation {worst:.2e} < 1e-12")


def test_criterion_4c_case_i_oracles():
    worst = 0.0
    for seed in range(10):
        mesh = random_mesh(200 + seed, max_elements=16)
        prob = manufactured(seed, active_state=bool(seed % 2))
        dm = DofMap(mesh)
        A, b = assemble(dm, prob)
        cons = assemble_constraints(dm, prob)
        sol = solve_vi(A, b, cons)
        x_pg = projected_gradient(A.toarray(), b, list(cons.rows.toarray()),
                                  list(cons.lower))
        scale = 1 + np.abs(sol.coefficients).max()
        worst = max(worst, np.abs(sol.coefficients - x_pg).max() / scale)
    report("4c", worst < 1e-8,
           f"case-i PDAS vs projected-gradient oracle on 10 meshes: "
           f"max deviation {worst:.2e} < 1e-8")


def test_criterion_4d_case_ii_oracle():
    worst = 0.0
    # the tilted y_d makes the boxes bind on both sides, at a zero lower
    # edge, and together with the state row
    for k, (lo, hi, d3) in enumerate([(-2.0, 3.0, -100.0),
                                      (0.0, 2.0, -100.0),
                                      (-2.0, 3.0, 0.3)]):
        mesh = initial_mesh(0.0, 1.0, 1)
        prob = ProblemSpec(
            domain=(0.0, 0.0, 1.0, 1.0), beta=1.0,
            y_d=lambda x, y: (20.0 * np.sin(np.pi * x) * np.sin(np.pi * y)
                              + 400.0 * (x - 0.5)),
            f=None, f_laplacian=None, delta3=d3,
            u_a=lambda x, y, lo=lo: np.full_like(np.asarray(x, float), lo),
            u_b=lambda x, y, hi=hi: np.full_like(np.asarray(x, float), hi))
        dm = DofMap(mesh)
        A, b = assemble(dm, prob)
        cons = assemble_constraints(dm, prob)
        sol = solve_vi(A, b, cons)
        assert (sol.active[0] == -1) == (d3 > 0)
        assert list(sol.active[1:]) == [0, 1, 0, -1]
        x_ref, mu_ref, lam_ref = exhaustive_box_solve(
            A.toarray(), b, cons.rows, cons.lower, cons.upper)
        scale = 1 + np.abs(x_ref).max()
        worst = max(worst, np.abs(sol.coefficients - x_ref).max() / scale)
    report("4d", worst < 1e-8,
           f"case-ii PDAS vs exhaustive enumeration (3^4 x 2 patterns) on "
           f"4-element meshes: max deviation {worst:.2e} < 1e-8")


def test_criterion_5_kkt_certificates(ex1_run, ex2_run, ex3_run, ex4_run):
    worst = {"stationarity": 0.0, "feasibility": 0.0, "complementarity": 0.0}
    for run in (ex1_run, ex2_run, ex3_run, ex4_run):
        for r in run.records:
            worst["stationarity"] = max(worst["stationarity"], r.kkt_stationarity)
            worst["feasibility"] = max(worst["feasibility"], r.kkt_feasibility)
            worst["complementarity"] = max(worst["complementarity"],
                                           r.kkt_complementarity)
        sol = run.solution
        lam, act = sol.lam, sol.active[1:]
        assert sol.mu >= 0.0
        assert np.all(lam[act == -1] >= 0)
        assert np.all(lam[act == 1] <= 0)
        assert np.all(lam[act == 0] == 0)
    ok = (worst["stationarity"] <= 1e-8 and worst["feasibility"] <= 1e-9
          and worst["complementarity"] <= 1e-9)
    report(5, ok, "every recorded solve: stationarity "
                  f"{worst['stationarity']:.2e} <= 1e-8, feasibility "
                  f"{worst['feasibility']:.2e} <= 1e-9, complementarity "
                  f"{worst['complementarity']:.2e} <= 1e-9; signs verified")


SMOOTH = [
    ("sin.sin", lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
     lambda x, y: np.stack([np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1),
     lambda x, y: -2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)),
    ("sin2.sin2", lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
     lambda x, y: 2 * np.pi * np.stack(
         [np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y),
          np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)], axis=-1),
     lambda x, y: -8 * np.pi**2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)),
    ("poly-bubble", lambda x, y: x * (1 - x) * y * (1 - y),
     lambda x, y: np.stack([(1 - 2 * x) * y * (1 - y),
                            x * (1 - x) * (1 - 2 * y)], axis=-1),
     lambda x, y: -2 * y * (1 - y) - 2 * x * (1 - x)),
    ("mixed", lambda x, y: np.sin(np.pi * x) * y * (1 - y),
     lambda x, y: np.stack([np.pi * np.cos(np.pi * x) * y * (1 - y),
                            np.sin(np.pi * x) * (1 - 2 * y)], axis=-1),
     lambda x, y: -np.pi**2 * np.sin(np.pi * x) * y * (1 - y)
     - 2 * np.sin(np.pi * x)),
    ("steep", lambda x, y: (x * (1 - x))**2 * np.sin(np.pi * y),
     lambda x, y: np.stack([2 * x * (1 - x) * (1 - 2 * x) * np.sin(np.pi * y),
                            np.pi * (x * (1 - x))**2 * np.cos(np.pi * y)], axis=-1),
     lambda x, y: (2 - 12 * x + 12 * x**2) * np.sin(np.pi * y)
     - np.pi**2 * (x * (1 - x))**2 * np.sin(np.pi * y)),
]


def test_criterion_6_interpolation_identities():
    from oracles import tri_quad
    mesh = bisect(initial_mesh(0.0, 1.0, 3), range(12))
    dm = DofMap(mesh)
    from morley_ocp.assembly import element_laplacian_rows
    rows = element_laplacian_rows(dm)
    worst_int = worst_lap = 0.0
    for _, f, g, lap in SMOOTH:
        u = interpolate(dm, f, g)
        lhs = float(mesh.areas @ u[dof_index(dm)[2]])
        ref = 0.0
        lap_ref = np.empty(mesh.n_elements)
        for t in range(mesh.n_elements):
            pts, w = tri_quad(*mesh.vertices[mesh.elements[t]], 8)
            ref += float(w @ f(pts[:, 0], pts[:, 1]))
            lap_ref[t] = float(w @ lap(pts[:, 0], pts[:, 1]))
        worst_int = max(worst_int, abs(lhs - ref))
        worst_lap = max(worst_lap,
                        float(np.abs(np.asarray(rows @ u)
                                     + lap_ref).max()))
    ok = worst_int <= 1e-10 and worst_lap <= 1e-10
    report("6 (identities)", ok,
           f"5 smooth fields: |int I_h(xi) - int xi| <= {worst_int:.2e}, "
           f"per-element |int Delta(I_h xi) - int Delta xi| <= {worst_lap:.2e} "
           f"(both <= 1e-10)")

    # members of the continuous constraint set interpolate into the
    # discrete one (state and control rows at their exact values)
    prob = example(1)
    cons = assemble_constraints(dm, prob)
    feasible = [
        SMOOTH[0], SMOOTH[2], SMOOTH[3], SMOOTH[4],
        ("boundary-case", SMOOTH[1][1], SMOOTH[1][2], SMOOTH[1][3]),
    ]
    worst_state = worst_ctrl = -np.inf
    for _, f, g, lap in feasible:
        u = interpolate(dm, f, g)
        sviol, cviol = cons.lower - cons.rows @ u
        # continuous membership margins, by quadrature
        mass = lapint = 0.0
        for t in range(mesh.n_elements):
            pts, w = tri_quad(*mesh.vertices[mesh.elements[t]], 8)
            mass += float(w @ f(pts[:, 0], pts[:, 1]))
            lapint += float(w @ lap(pts[:, 0], pts[:, 1]))
        assert mass >= prob.delta2 - 1e-12          # xi in K (state)
        assert -lapint >= cons.lower[1] - 1e-9      # xi in K (control)
        worst_state = max(worst_state, float(sviol))
        worst_ctrl = max(worst_ctrl, float(cviol))
    ok2 = worst_state <= 1e-10 and worst_ctrl <= 1e-10
    report("6 (I_h K in K_h)", ok2,
           f"5 feasible fields: worst discrete state violation "
           f"{worst_state:.2e}, control violation {worst_ctrl:.2e} "
           f"(both <= 1e-10)")


def test_criterion_7_mesh_stress():
    rng = np.random.default_rng(2024)
    mesh = initial_mesh(0.0, 1.0, 2)
    worst_angle = 90.0
    for it in range(200):
        marked = rng.choice(mesh.n_elements,
                            size=min(2, mesh.n_elements), replace=False)
        mesh = bisect(mesh, marked)
        assert_conforming(mesh, 0.0, 1.0)
        worst_angle = min(worst_angle, min_angle(mesh))
        assert worst_angle >= 10.0
    report(7, True, f"200 NVB iterations: conforming throughout, area "
                    f"conserved to 1e-12, min angle {worst_angle:.1f} >= 10 deg "
                    f"({mesh.n_elements} elements at the end)")


def test_criterion_8_ex4_estimator_only(ex4_run):
    rs = ex4_run.records
    assert rs[-1].dofs >= 20000
    s = fit_slope(rs, 6)
    worst = max(max(r.kkt_stationarity, r.kkt_feasibility,
                    r.kkt_complementarity) for r in rs)
    ok = s <= -0.3 and worst <= 1e-8
    report(8, ok, f"ex4 to {rs[-1].dofs} DoFs: eta slope {s:.3f} <= -0.3, "
                  f"worst KKT residual {worst:.2e}; no exact solution used")


def test_criterion_9_determinism(tmp_path):
    env = child_env()
    outs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "morley_ocp", "solve", "--problem", "ex1",
             "--max-dofs", "1500", "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outs.append((out / "convergence.csv").read_bytes())
    ok = outs[0] == outs[1]
    report(9, ok, f"repeat single-threaded runs: convergence.csv "
                  f"byte-identical ({len(outs[0])} bytes)")
