import numpy as np
import pytest

from morley_ocp.assembly import assemble_constraints
from morley_ocp.element import DofMap, sample
from morley_ocp.estimator import (data_oscillation, estimate, eta_edges,
                                  eta_interior, true_error)
from morley_ocp.mesh import Mesh, initial_mesh, uniform_refine
from morley_ocp.problems import ExactSolution, ProblemSpec, example, manufactured
from morley_ocp.vi_solver import solve_vi

from conftest import assemble, random_mesh
from oracles import estimator_terms, interpolate


def poly_problem(beta=1.0):
    return ProblemSpec(
        domain=(0.0, 0.0, 1.0, 1.0), beta=beta,
        y_d=lambda x, y: 1.0 + x**2 * y - 2 * x * y**2,
        f=lambda x, y: x * y,
        f_laplacian=lambda x, y: np.zeros_like(np.asarray(x, float)),
        case="integral", delta1=-10.0, delta2=-10.0)


class FakeSolution:
    def __init__(self, coefficients, mu=0.0, lam=0.0):
        self.coefficients = coefficients
        self.mu = mu
        self.lam = lam


def test_eta1_vanishes_when_data_matches(unit_cross):
    dm = DofMap(unit_cross)
    prob = ProblemSpec(domain=(0, 0, 1, 1), beta=1.0,
                       y_d=lambda x, y: np.zeros_like(np.asarray(x, float)),
                       f=None, f_laplacian=None, case="integral",
                       delta1=-1.0, delta2=-1.0)
    e1, e5 = eta_interior(dm, np.zeros(dm.n_dofs), 0.0,
                          np.zeros(unit_cross.n_elements), prob,
                          sample(prob.y_d, dm.points))
    assert np.all(e1 == 0) and np.all(e5 == 0)


def test_eta1_reference_triangle(reference_triangle_mesh):
    # y_h = 0, mu = 0, y_d = 1, beta = 1: eta1^2 = h^4 |T| = 4 * 1/2 = 2
    m = reference_triangle_mesh
    dm = DofMap(m)
    prob = ProblemSpec(domain=(0, 0, 1, 1), beta=1.0,
                       y_d=lambda x, y: np.ones_like(np.asarray(x, float)),
                       f=None, f_laplacian=None, case="integral",
                       delta1=-1.0, delta2=-1.0)
    e1, _ = eta_interior(dm, np.zeros(dm.n_dofs), 0.0, np.zeros(1), prob,
                         sample(prob.y_d, dm.points))
    assert e1[0] == pytest.approx(2.0, rel=1e-13)


def test_edge_terms_zero_for_zero_function(unit_cross):
    dm = DofMap(unit_cross)
    e2, e3, e4 = eta_edges(dm, np.zeros(dm.n_dofs), 1.0)
    assert np.all(e2 == 0) and np.all(e3 == 0) and np.all(e4 == 0)


def test_edge_terms_interior_only(unit_cross):
    dm = DofMap(unit_cross)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(dm.n_dofs)
    e2, e3, e4 = eta_edges(dm, u, 1.0)
    b = ~unit_cross.interior_edges
    assert np.all(e2[b] == 0) and np.all(e3[b] == 0) and np.all(e4[b] == 0)
    assert e2[~b].sum() > 0
    # a mesh with no interior edge gives zeros on every (boundary) edge
    one = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]], [0])
    dm = DofMap(one)
    terms = eta_edges(dm, rng.standard_normal(dm.n_dofs), 1.0)
    for term in terms:
        np.testing.assert_array_equal(term, np.zeros(3))


def test_interpolated_quadratic_edge_terms_match_oracle(unit_cross):
    # the edge-mean jump of the interpolant of a quadratic vanishes; the
    # computed eta2 must equal the brute-force value either way
    dm = DofMap(unit_cross)
    u = interpolate(dm, lambda x, y: x * (1 - x),
                    lambda x, y: np.stack(
                        [1 - 2 * x, np.zeros_like(np.asarray(x, float))],
                        axis=-1))
    prob = poly_problem()
    lam = np.zeros(unit_cross.n_elements)
    (o1, o2, o3, o4, o5), _ = estimator_terms(unit_cross, dm, u,
                                              0.0, lam, prob)
    e2, e3, e4 = eta_edges(dm, u, prob.beta)
    assert e2.sum() == pytest.approx(o2, rel=1e-12, abs=1e-13)
    assert e3.sum() == pytest.approx(o3, rel=1e-12, abs=1e-13)
    assert e4.sum() == pytest.approx(o4, rel=1e-12, abs=1e-13)


def test_bubble_on_one_element_eta4(split_square_mesh):
    # element-average DOF set to one on a single element: the Laplacian
    # gradient jump equals that of the cubic bubble
    m = split_square_mesh
    dm = DofMap(m)
    u = np.zeros(dm.n_dofs)
    u[dm.bubble_dof[0]] = 1.0
    beta = 2.0
    e2, e3, e4 = eta_edges(dm, u, beta)
    prob = poly_problem(beta=beta)
    (o1, o2, o3, o4, o5), _ = estimator_terms(m, dm, u, 0.0, np.zeros(2),
                                              prob)
    ids = np.flatnonzero(m.interior_edges)
    assert len(ids) == 1
    assert e4[ids[0]] == pytest.approx(o4, rel=1e-12)
    assert e4[ids[0]] > 0
    assert e2.sum() == pytest.approx(o2, rel=1e-12)
    assert e3.sum() == pytest.approx(o3, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_terms_match_bruteforce_oracle(seed):
    mesh = random_mesh(seed, max_elements=16)
    dm = DofMap(mesh)
    rng = np.random.default_rng(seed + 100)
    u = rng.standard_normal(dm.n_dofs)
    mu = float(rng.uniform(0, 2))
    lam = rng.uniform(-1, 1, size=mesh.n_elements)
    prob = poly_problem(beta=[1.0, 0.25, 3.0][seed])
    e1, e5 = eta_interior(dm, u, mu, lam, prob, sample(prob.y_d, dm.points))
    e2, e3, e4 = eta_edges(dm, u, prob.beta)
    (o1, o2, o3, o4, o5), o_edges = estimator_terms(mesh, dm, u, mu, lam, prob)
    assert e1.sum() == pytest.approx(o1, rel=1e-12)
    assert e2.sum() == pytest.approx(o2, rel=1e-12)
    assert e3.sum() == pytest.approx(o3, rel=1e-12)
    assert e4.sum() == pytest.approx(o4, rel=1e-12)
    assert e5.sum() == pytest.approx(o5, rel=1e-12)
    # edge by edge: each jump pairs the two traces at the same points
    for got, want in zip((e2, e3, e4), o_edges):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_estimate_totals_bookkeeping(unit_cross):
    prob = manufactured(0)
    dm = DofMap(unit_cross)
    A, b = assemble(dm, prob)
    cons = assemble_constraints(dm, prob)
    sol = solve_vi(A, b, cons)
    yd = sample(prob.y_d, dm.points)
    bd = estimate(dm, sol, prob, yd)
    lam = np.broadcast_to(sol.lam, (unit_cross.n_elements,))
    e1, e5 = eta_interior(dm, sol.coefficients, sol.mu, lam, prob, yd)
    assert bd.eta_sq.shape == (5, unit_cross.n_elements)
    assert np.array_equal(bd.eta_sq[0], e1)
    assert np.array_equal(bd.eta_sq[4], e5)
    # the element rows of the edge terms redistribute the full edge mass
    for row, edge in zip(bd.eta_sq[1:4], eta_edges(dm, sol.coefficients,
                                                   prob.beta)):
        assert edge.sum() > 0
        assert row.sum() == pytest.approx(edge.sum(), rel=1e-14)
    assert np.array_equal(bd.element_indicators, bd.eta_sq.sum(axis=0))
    assert np.all(bd.element_indicators >= 0)


def test_beta_homogeneity(unit_cross):
    dm = DofMap(unit_cross)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(dm.n_dofs)
    mu = 0.3
    lam = rng.uniform(0, 1, size=unit_cross.n_elements)

    prob1 = ProblemSpec(domain=(0, 0, 1, 1), beta=1.0,
                        y_d=lambda x, y: x - y, f=None, f_laplacian=None,
                        case="integral", delta1=-1.0, delta2=-1.0)
    prob2 = ProblemSpec(domain=(0, 0, 1, 1), beta=2.0,
                        y_d=lambda x, y: x - y, f=None, f_laplacian=None,
                        case="integral", delta1=-1.0, delta2=-1.0)
    a1, a5 = eta_interior(dm, u, mu, lam, prob1,
                          sample(prob1.y_d, dm.points))
    b1, b5 = eta_interior(dm, u, mu, lam, prob2,
                          sample(prob2.y_d, dm.points))
    assert np.allclose(b1, 0.5 * a1, rtol=1e-13)
    assert np.allclose(b5, 0.5 * a5, rtol=1e-13)
    a2, a3, a4 = eta_edges(dm, u, 1.0)
    b2, b3, b4 = eta_edges(dm, u, 2.0)
    for a, b in ((a2, b2), (a3, b3), (a4, b4)):
        assert np.allclose(b, 2.0 * a, rtol=1e-13)


def test_relabeling_invariance():
    # permute vertex ids and element order; totals must not change
    mesh = uniform_refine(initial_mesh(0.0, 1.0, 1), 1)
    dm = DofMap(mesh)
    rng = np.random.default_rng(12)
    u = rng.standard_normal(dm.n_dofs)
    prob = poly_problem()
    lam = rng.uniform(-1, 1, size=mesh.n_elements)
    e1, e5 = eta_interior(dm, u, 0.5, lam, prob, sample(prob.y_d, dm.points))
    e2, e3, e4 = eta_edges(dm, u, prob.beta)

    vperm = rng.permutation(mesh.n_vertices)     # new id of old vertex i
    eperm = rng.permutation(mesh.n_elements)
    verts2 = np.empty_like(mesh.vertices)
    verts2[vperm] = mesh.vertices
    tris2 = vperm[mesh.elements][eperm]
    mesh2 = Mesh(verts2, tris2, mesh.refinement_edge[eperm])
    dm2 = DofMap(mesh2)

    # map coefficients: vertices by id, edges by endpoint set (sign flips
    # with the stored normal), elements by order
    u2 = np.zeros(dm2.n_dofs)
    for v in range(mesh.n_vertices):
        d1 = dm.vertex_dof[v]
        d2 = dm2.vertex_dof[vperm[v]]
        assert (d1 < 0) == (d2 < 0)
        if d1 >= 0:
            u2[d2] = u[d1]
    key2id = {tuple(sorted(mesh2.edges[e])): e for e in range(mesh2.n_edges)}
    for e in range(mesh.n_edges):
        key = tuple(sorted(vperm[mesh.edges[e]]))
        e2_ = key2id[key]
        n1 = mesh.edge_normals[e]
        n2 = mesh2.edge_normals[e2_]
        sign = 1.0 if n1 @ n2 > 0 else -1.0
        u2[dm2.edge_dof[e2_]] = sign * u[dm.edge_dof[e]]
    inv_eperm = np.argsort(eperm)
    lam2 = np.empty_like(lam)
    for t in range(mesh.n_elements):
        u2[dm2.bubble_dof[np.flatnonzero(eperm == t)[0]]] = u[dm.bubble_dof[t]]
    lam2 = lam[inv_eperm]

    f1, f5 = eta_interior(dm2, u2, 0.5, lam2, prob,
                          sample(prob.y_d, dm2.points))
    f2, f3, f4 = eta_edges(dm2, u2, prob.beta)
    assert f1.sum() == pytest.approx(e1.sum(), rel=1e-12)
    assert f5.sum() == pytest.approx(e5.sum(), rel=1e-12)
    assert f2.sum() == pytest.approx(e2.sum(), rel=1e-12)
    assert f3.sum() == pytest.approx(e3.sum(), rel=1e-12)
    assert f4.sum() == pytest.approx(e4.sum(), rel=1e-12)


def test_eta_decreases_under_uniform_refinement_ex1():
    prob = example(1)
    mesh = initial_mesh(0.0, 1.0, 2)
    last = None
    for _ in range(4):
        dm = DofMap(mesh)
        A, b = assemble(dm, prob)
        cons = assemble_constraints(dm, prob)
        sol = solve_vi(A, b, cons)
        bd = estimate(dm, sol, prob, sample(prob.y_d, dm.points))
        eta_h = np.sqrt(bd.eta_sq.sum())
        if last is not None:
            assert eta_h <= 1.05 * last
        last = eta_h
        mesh = uniform_refine(mesh, 1)


def test_true_error_reproduction(unit_cross):
    dm = DofMap(unit_cross)
    q = ExactSolution(
        value=lambda x, y: x * (1 - x),
        gradient=lambda x, y: np.stack(
            [1 - 2 * x, np.zeros_like(np.asarray(x, float))], axis=-1),
        hessian=lambda x, y: np.broadcast_to(
            np.array([[-2.0, 0.0], [0.0, 0.0]]),
            np.shape(np.asarray(x)) + (2, 2)))
    u = interpolate(dm, q.value, q.gradient)
    rep = true_error(dm, u, q, beta=1.0)
    assert rep.energy_error <= 1e-10
    assert rep.l2_error <= 1e-11


def test_true_error_zero_function_ex3():
    prob = example(3)
    # fine enough that the degree-8 quadrature resolves the trig integrands
    mesh = initial_mesh((-1, -1), (1, 1), 8)
    dm = DofMap(mesh)
    rep = true_error(dm, np.zeros(dm.n_dofs), prob.exact, prob.beta)
    # |y*|_{H2}^2 = 1 and ||y*||^2 = 1/(4 pi^4) on (-1,1)^2
    assert rep.h2_broken_seminorm_error == pytest.approx(1.0, rel=1e-9)
    assert rep.l2_error == pytest.approx(1.0 / (2 * np.pi**2), rel=1e-9)
    assert rep.energy_error == pytest.approx(
        np.sqrt(1.0 + 1.0 / (4 * np.pi**4)), rel=1e-9)


def test_oscillation_reported_not_added(unit_cross):
    dm = DofMap(unit_cross)
    prob = poly_problem()
    osc = data_oscillation(unit_cross, sample(prob.y_d, dm.points))
    assert np.all(osc >= 0)
    assert osc.sum() > 0
    # constant data oscillate nowhere
    const = ProblemSpec(domain=(0, 0, 1, 1), beta=1.0,
                        y_d=lambda x, y: np.full_like(np.asarray(x, float), 3.3),
                        f=None, f_laplacian=None, case="integral",
                        delta1=-1.0, delta2=-1.0)
    assert np.allclose(data_oscillation(unit_cross,
                                        sample(const.y_d, dm.points)),
                       0.0, atol=1e-12)
