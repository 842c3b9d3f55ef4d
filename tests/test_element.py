import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morley_ocp.element import (DofMap, ElementError, _edge_bary, edge_rule,
                                integrate, triangle_rule, bary_monomial_integral)
from morley_ocp.mesh import Mesh, initial_mesh, uniform_refine

from conftest import random_mesh
from oracles import (barycentric, dof_matrices, eval_function_einsum,
                     interpolate, tri_quad)


def evaluate(dm, u, element, bary):
    """(value, gradient, hessian) of coefficients ``u`` at one barycentric
    point."""
    val, grad, hess = dm.eval_function(u, np.reshape(bary, (1, 3)))
    return float(val[element, 0]), grad[element, 0], hess[element, 0]


# -- quadrature --------------------------------------------------------

def test_triangle_rule_weight_normalization():
    for d in (1, 2, 4, 6, 8, 10):
        r = triangle_rule(d)
        assert r.weights.sum() == pytest.approx(1.0, rel=1e-13)
        assert np.all(r.weights > 0)
        assert np.all(r.points >= -1e-14) and np.all(r.points <= 1 + 1e-14)


def test_triangle_rule_point_counts():
    # the plain collapsed rule: m = (degree + 3) // 2 points per direction
    for d, n in ((6, 16), (8, 25), (10, 36)):
        assert len(triangle_rule(d).weights) == n
        assert triangle_rule(d).points.shape == (n, 3)


def test_triangle_rule_bubble_integral():
    r = triangle_rule(6)
    val = (r.points.prod(axis=1) @ r.weights)
    assert val == pytest.approx(1.0 / 60.0, rel=1e-13)


def test_edge_rule_quintic():
    r = edge_rule(5)
    assert (r.points**5) @ r.weights == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_quadrature_factory_errors():
    with pytest.raises(ElementError):
        triangle_rule(11)
    with pytest.raises(ElementError):
        edge_rule(22)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_triangle_rule_exactness_vs_factorial_formula(a, b, c):
    deg = a + b + c
    if deg > 10:
        return
    r = triangle_rule(max(deg, 1))
    val = (r.points[:, 0]**a * r.points[:, 1]**b * r.points[:, 2]**c) @ r.weights
    assert val == pytest.approx(bary_monomial_integral((a, b, c)), rel=1e-12)


# -- primitive basis ---------------------------------------------------

def test_primitive_derivative_tables_match_central_differences():
    # lam is treated as three independent variables, as in the tables;
    # the primitives are at most cubic, so the differences are exact up to
    # h^2 / 6 for the values and up to rounding for the first derivatives
    from morley_ocp.element import prim_d2lam, prim_dlam, prim_values

    lam = np.random.default_rng(7).random((20, 3))
    h = 1e-4
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        dv = (prim_values(lam + e) - prim_values(lam - e)) / (2 * h)
        assert np.abs(dv - prim_dlam(lam)[..., k]).max() < 1e-8
        dd = (prim_dlam(lam + e) - prim_dlam(lam - e)) / (2 * h)
        assert np.abs(dd - prim_d2lam(lam)[..., k]).max() < 1e-10


# -- combined 7-DOF nodal basis ---------------------------------------

def test_seven_dof_duality_identity():
    for seed in range(3):
        mesh = random_mesh(seed, max_elements=12)
        dm = DofMap(mesh)
        I = np.einsum("tij,tjk->tik", dof_matrices(dm), dm.C)
        assert np.abs(I - np.eye(7)).max() < 1e-12


def _sliver(aspect):
    # two mirrored flat triangles on the unit base; height / base = aspect
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, aspect],
                          [0.5, -aspect]]),
                np.array([[0, 1, 2], [1, 0, 3]]), np.array([2, 2]))


def _assert_basis_matches_inverse(mesh):
    # the reference inverse times the per-element transform gives, up to
    # rounding, the inverse of each element's own DOF matrix
    dm = DofMap(mesh)
    C_inv = np.linalg.inv(dof_matrices(dm))
    assert np.abs(dm.C - C_inv).max() <= 1e-13 * np.abs(C_inv).max()


@pytest.mark.parametrize("seed", [0, 1])
def test_nodal_basis_matches_inverse_on_bisected_meshes(seed):
    _assert_basis_matches_inverse(random_mesh(seed, max_elements=1000))


@pytest.mark.parametrize("aspect", [1e-2, 1e-4, 1e-6])
def test_nodal_basis_matches_inverse_on_slivers(aspect):
    _assert_basis_matches_inverse(_sliver(aspect))


def test_nodal_basis_matches_independent_construction(split_square_mesh):
    # the oracle builds the same dual basis from scratch (monomials, its
    # own quadrature); the two constructions must agree pointwise
    from morley_ocp.element import prim_values, prim_dlam
    from oracles import OracleElement

    m = split_square_mesh
    dm = DofMap(m)
    rng = np.random.default_rng(2)
    for t in range(m.n_elements):
        el = OracleElement(m, t)
        lam = rng.dirichlet([1, 1, 1], size=6)
        xy = lam @ m.vertices[m.elements[t]]
        P = prim_values(lam)                       # (q, 7)
        vals_pkg = P @ dm.C[t]                     # (q, 7) nodal values
        dP = prim_dlam(lam)
        grads_pkg = np.einsum("qik,kx,ij->qjx", dP, m.grad_lambda[t], dm.C[t])
        for q in range(len(lam)):
            vals_orc = [el.shape_value(j, xy[q]) for j in range(7)]
            grads_orc = [el.shape_grad(j, xy[q]) for j in range(7)]
            assert np.allclose(vals_pkg[q], vals_orc, atol=1e-11)
            assert np.allclose(grads_pkg[q], grads_orc, atol=1e-10)


def test_hessian_matches_fd_of_gradient():
    mesh = uniform_refine(initial_mesh(0.0, 1.0, 1), 1)
    dm = DofMap(mesh)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(dm.n_dofs)
    t = 3
    lam0 = np.array([0.3, 0.4, 0.3])
    x0 = lam0 @ mesh.vertices[mesh.elements[t]]
    h = 1e-6
    _, _, H = evaluate(dm, u, t, lam0)
    for d, e in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
        bp = barycentric(mesh, [t], (x0 + e)[None, :])[0]
        bm = barycentric(mesh, [t], (x0 - e)[None, :])[0]
        _, gp, _ = evaluate(dm, u, t, bp)
        _, gm, _ = evaluate(dm, u, t, bm)
        fd = (gp - gm) / (2 * h)
        assert np.allclose(H[:, d], fd, rtol=1e-6, atol=1e-6 * np.abs(H).max())


def test_eval_function_matches_einsum_formula():
    mesh = uniform_refine(random_mesh(3, max_elements=12), 1)
    dm = DofMap(mesh)
    u = np.random.default_rng(8).standard_normal(dm.n_dofs)

    def assert_close(got, ref):
        for g, r in zip(got, ref):
            assert g.shape == r.shape
            assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max()

    # the degree-8 rule, and the Gauss points of the three local edges
    # (the estimator's jump terms)
    edge_points = np.concatenate([_edge_bary(k, edge_rule(5).points)
                                  for k in range(3)])
    for bary in (triangle_rule(8).points, edge_points):
        assert_close(dm.eval_function(u, bary),
                     eval_function_einsum(dm, u, bary))


# -- interpolation -----------------------------------------------------

SMOOTH_FIELDS = [
    (lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
     lambda x, y: np.stack([np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1),
     lambda x, y: -2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)),
    (lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y),
     lambda x, y: np.stack([2 * np.pi * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y),
                            2 * np.pi * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)], axis=-1),
     lambda x, y: -8 * np.pi**2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)),
    (lambda x, y: x * (1 - x) * y * (1 - y),
     lambda x, y: np.stack([(1 - 2 * x) * y * (1 - y),
                            x * (1 - x) * (1 - 2 * y)], axis=-1),
     lambda x, y: -2 * y * (1 - y) - 2 * x * (1 - x)),
    (lambda x, y: (x * (1 - x))**2 * np.sin(np.pi * y),
     lambda x, y: np.stack([2 * x * (1 - x) * (1 - 2 * x) * np.sin(np.pi * y),
                            np.pi * (x * (1 - x))**2 * np.cos(np.pi * y)], axis=-1),
     lambda x, y: (2 - 12 * x + 12 * x**2) * np.sin(np.pi * y)
     - np.pi**2 * (x * (1 - x))**2 * np.sin(np.pi * y)),
    (lambda x, y: np.sin(np.pi * x) * y * (1 - y),
     lambda x, y: np.stack([np.pi * np.cos(np.pi * x) * y * (1 - y),
                            np.sin(np.pi * x) * (1 - 2 * y)], axis=-1),
     lambda x, y: -np.pi**2 * np.sin(np.pi * x) * y * (1 - y)
     - 2 * np.sin(np.pi * x)),
]


def test_interpolate_reproduces_quadratic(unit_cross):
    # a quadratic vanishing at the boundary vertices of the 4-element
    # criss-cross (its only boundary vertices are the corners)
    dm = DofMap(unit_cross)

    def q(x, y):
        return x * (1 - x)

    def qg(x, y):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return np.stack([1 - 2 * x, z], axis=-1)

    u = interpolate(dm, q, qg)
    rng = np.random.default_rng(1)
    for t in range(unit_cross.n_elements):
        lam = rng.dirichlet([1, 1, 1], size=4)
        xy = lam @ unit_cross.vertices[unit_cross.elements[t]]
        vals, _, _ = dm.eval_function(u, lam)
        assert np.allclose(vals[t], q(xy[:, 0], xy[:, 1]), atol=1e-12)


@pytest.mark.parametrize("case", range(len(SMOOTH_FIELDS)))
def test_interpolation_conservation_identities(case):
    # int I_h(xi) = int xi and per-element int Delta I_h(xi) = int Delta xi
    f, g, lap = SMOOTH_FIELDS[case]
    mesh = uniform_refine(initial_mesh(0.0, 1.0, 2), 2)
    dm = DofMap(mesh)
    u = interpolate(dm, f, g)
    # interpolant integral is exactly |T| . Q_T
    lhs = float(mesh.areas @ u[dm.bubble_dof])
    rhs = sum(float(tri_quad(*mesh.vertices[mesh.elements[t]], 8)[1]
                    @ f(*tri_quad(*mesh.vertices[mesh.elements[t]], 8)[0].T))
              for t in range(mesh.n_elements))
    assert lhs == pytest.approx(rhs, abs=1e-10)

    from morley_ocp.assembly import element_laplacian_rows
    rows = element_laplacian_rows(dm)
    neg_lap_int = np.asarray(rows @ u)
    for t in range(mesh.n_elements):
        pts, w = tri_quad(*mesh.vertices[mesh.elements[t]], 8)
        ref = -float(w @ lap(pts[:, 0], pts[:, 1]))
        assert neg_lap_int[t] == pytest.approx(ref, abs=1e-10)


def test_nonconformity_is_real():
    mesh = uniform_refine(initial_mesh(0.0, 1.0, 1), 2)
    dm = DofMap(mesh)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(dm.n_dofs)
    e = int(np.flatnonzero(mesh.interior_edges)[0])
    plus, minus = mesh.edge_elements[e]
    a, b = mesh.vertices[mesh.edges[e]]
    n = mesh.edge_normals[e]
    rule = edge_rule(5)
    pts = a[None] + rule.points[:, None] * (b - a)[None]
    gp = dm.eval_function(u, barycentric(mesh, np.full(len(pts), plus), pts))[1]
    gm = dm.eval_function(u, barycentric(mesh, np.full(len(pts), minus), pts))[1]
    jump = gp[plus] - gm[minus]
    jump_n = jump @ n
    assert abs(jump_n @ rule.weights) < 1e-12          # mean forced by the DOF
    t = np.array([-n[1], n[0]])
    jump_t = jump @ t
    assert np.abs(jump_t).max() > 1e-3                 # tangential jump persists


def test_evaluate_zero_and_continuity(unit_cross):
    dm = DofMap(unit_cross)
    v, g, H = evaluate(dm, np.zeros(dm.n_dofs), 0, (1/3, 1/3, 1/3))
    assert v == 0 and np.all(g == 0) and np.all(H == 0)

    rng = np.random.default_rng(4)
    u = rng.standard_normal(dm.n_dofs)
    # vertex shared by all four elements: the center
    center = 4
    for t in range(unit_cross.n_elements):
        loc = np.flatnonzero(unit_cross.elements[t] == center)[0]
        lam = np.eye(3)[loc]
        v_t, _, _ = evaluate(dm, u, t, lam)
        if t == 0:
            ref = v_t
        assert v_t == pytest.approx(ref, abs=1e-12)


def test_integrate_matches_oracle():
    mesh = initial_mesh(0.0, 1.0, 2)
    val = integrate(mesh, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert val == pytest.approx(4.0 / np.pi**2, rel=1e-10)
