import numpy as np
import pytest

from morley_ocp.assembly import AssemblyError, element_laplacian_rows
from morley_ocp.element import DATA_RULE, DofMap, sample
from morley_ocp.mesh import initial_mesh, uniform_refine
from morley_ocp.problems import ProblemSpec, example

from conftest import assemble, constraints, random_mesh
from oracles import assemble_dense, dof_index, interpolate, tri_quad


def poly_problem(beta=1.0, with_f=True):
    """Polynomial data so quadrature comparisons are exact."""
    f = (lambda x, y: 1.0 + x * y - y**2) if with_f else None
    flap = (lambda x, y: -2.0 * np.ones_like(np.asarray(x, float))) if with_f else None
    return ProblemSpec(
        domain=(0.0, 0.0, 1.0, 1.0), beta=beta,
        y_d=lambda x, y: x**2 * y - 3 * x + 1,
        f=f, f_laplacian=flap, delta1=-10.0, delta2=-10.0)


def test_system_is_spd():
    mesh = uniform_refine(initial_mesh(0.0, 1.0, 1), 1)
    dm = DofMap(mesh)
    A, _ = assemble(dm, poly_problem())
    assert abs(A - A.T).max() < 1e-12 * abs(A).max()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(dm.n_dofs)
        assert x @ (A @ x) > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matrix_matches_dense_oracle(seed):
    mesh = random_mesh(seed, max_elements=64)
    dm = DofMap(mesh)
    beta = [1.0, 0.5, 2.0][seed]
    A, _ = assemble(dm, poly_problem(beta=beta))
    dense = A.toarray()
    oracle = assemble_dense(mesh, dm, beta)
    scale = np.abs(oracle).max()
    assert np.abs(dense - oracle).max() < 1e-12 * scale


@pytest.mark.parametrize("seed", [0, 1])
def test_load_matches_oracle(seed):
    # polynomial y_d (degree 3) and f (degree 2): the degree-6 rule is exact
    from oracles import OracleElement

    mesh = random_mesh(seed, max_elements=12)
    dm = DofMap(mesh)
    prob = poly_problem(beta=0.7)
    _, b = assemble(dm, prob)
    ref = np.zeros(dm.n_dofs)
    for t in range(mesh.n_elements):
        el = OracleElement(mesh, t)
        pts, w = tri_quad(*el.p, 8)
        for i, d in enumerate(dm.cell_dofs[t]):
            if d < 0:
                continue
            for q, wq in zip(pts, w):
                lap = np.trace(el.shape_hess(i, q))
                ref[d] += wq * (prob.y_d(*q) * el.shape_value(i, q)
                                - prob.beta * prob.f(*q) * lap)
    assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()


def test_zero_data_gives_zero_load(unit_cross):
    dm = DofMap(unit_cross)
    prob = ProblemSpec(domain=(0, 0, 1, 1), beta=1.0,
                       y_d=lambda x, y: np.zeros_like(np.asarray(x, float)),
                       f=None, f_laplacian=None, delta1=-1.0, delta2=-1.0)
    _, b = assemble(dm, prob)
    assert np.all(b == 0)


def test_state_row_equals_interpolant_integral():
    mesh = uniform_refine(initial_mesh(0.0, 1.0, 2), 1)
    dm = DofMap(mesh)
    cons = constraints(dm, poly_problem())

    def f(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def g(x, y):
        return np.stack([np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)

    u = interpolate(dm, f, g)
    ref = sum(float(w @ f(*pts.T)) for pts, w in
              (tri_quad(*mesh.vertices[mesh.elements[t]], 8)
               for t in range(mesh.n_elements)))
    assert (cons.rows @ u)[0] == pytest.approx(ref, abs=1e-12)


def test_element_row_on_bubble(reference_triangle_mesh):
    # the pure bubble on the reference triangle: int_T(-Delta b_T) = 40
    m = reference_triangle_mesh
    dm = DofMap(m)

    def b(x, y):
        return 60.0 * x * y * (1 - x - y)

    def bg(x, y):
        return np.stack([60.0 * y * (1 - 2 * x - y),
                         60.0 * x * (1 - x - 2 * y)], axis=-1)

    u = interpolate(dm, b, bg)
    rows = element_laplacian_rows(dm)
    assert (rows @ u)[0] == pytest.approx(40.0, rel=1e-13)


def test_element_row_structure(split_square_mesh):
    # row entries are -sign * h_e on the element's edge DOFs
    m = split_square_mesh
    dm = DofMap(m)
    assert dm.cell_dofs.dtype == np.int32
    _, edge_dof, _ = dof_index(dm)
    rows = element_laplacian_rows(dm).tocoo()
    for t, d, v in zip(rows.row, rows.col, rows.data):
        k = np.flatnonzero(edge_dof[m.elem_edges[t]] == d)[0]
        gid = m.elem_edges[t, k]
        sign = 1.0 if m.edge_elements[gid, 0] == t else -1.0
        assert v == pytest.approx(-sign * m.edge_lengths[gid], rel=1e-14)


def test_control_row_is_boundary_flux(unit_cross):
    # interior edge contributions cancel in the global control row
    dm = DofMap(unit_cross)
    _, edge_dof, bubble_dof = dof_index(dm)
    cons = constraints(dm, poly_problem(with_f=False))
    row = cons.rows[1].toarray().ravel()
    for e in range(unit_cross.n_edges):
        d = edge_dof[e]
        if not unit_cross.interior_edges[e]:
            assert row[d] != 0.0
        else:
            assert row[d] == pytest.approx(0.0, abs=1e-15)
    assert np.all(row[bubble_dof] == 0.0)


def test_control_bound_includes_source_integral():
    mesh = initial_mesh(0.0, 1.0, 2)
    dm = DofMap(mesh)
    cons = constraints(dm, poly_problem(with_f=True))
    # delta1' = delta1 + int f with f = 1 + xy - y^2
    f_int = 1.0 + 0.25 - 1.0 / 3.0
    assert cons.lower[1] == pytest.approx(-10.0 + f_int, abs=1e-12)


def test_source_integral_reads_f_at_the_data_points():
    # ex2's bound delta1 + int f is sum_T |T| Q_T(f) at the DATA_RULE points
    # DofMap.points; the degree-6 rule's error to the exact 16 pi^2 is
    # 6.9e-8 relative on 2 subdivisions and 2.4e-10 on 4
    problem = example(2)
    exact = problem.delta1 + 16.0 * np.pi**2
    errors = []
    for n in (2, 4):
        dm = DofMap(initial_mesh(0.0, 1.0, n))
        bound = constraints(dm, problem).lower[1]
        Q = [sample(problem.f, dm.points[t]) @ DATA_RULE.weights
             for t in range(dm.mesh.n_elements)]
        ref = problem.delta1 + sum(a * q for a, q in zip(dm.mesh.areas, Q))
        assert bound == pytest.approx(ref, rel=1e-13)
        errors.append(abs(bound - exact) / abs(exact))
    assert errors[1] <= 1e-9
    assert errors[0] >= 200.0 * errors[1]


def test_box_constraints_and_validation():
    mesh = initial_mesh(0.0, 1.0, 1)
    dm = DofMap(mesh)
    problem = example(4)
    cons = constraints(dm, problem)
    assert problem.case == "box" and cons.rows.shape[0] == 1 + mesh.n_elements
    assert np.allclose(cons.lower[1:], 0.0)
    assert np.allclose(cons.upper[1:], 30.0 * mesh.areas)
    # the state row: delta3 below, no upper bound, averaged over |Omega|
    assert cons.lower[0] == example(4).delta3 and cons.upper[0] == np.inf
    np.testing.assert_allclose(cons.sizes, np.r_[1.0, mesh.areas],
                               rtol=1e-14)
    bad = example(4)
    bad.u_a, bad.u_b = bad.u_b, bad.u_a
    with pytest.raises(AssemblyError):
        constraints(dm, bad)


def test_nonfinite_constraint_data_rejected():
    dm = DofMap(initial_mesh(0.0, 1.0, 2))
    # ex4 has u_a = 0 < u_b = 30; each replacement keeps u_a < u_b where finite
    nan_right = lambda x, y: np.where(x > 0.7, np.nan, 1.0 + 0 * x)  # noqa: E731
    inf = lambda x, y: np.full_like(np.asarray(x, float), np.inf)  # noqa: E731
    for field, fn in (("u_a", nan_right), ("u_b", nan_right), ("u_b", inf)):
        bad = example(4)
        setattr(bad, field, fn)
        with pytest.raises(AssemblyError, match="non-finite"):
            constraints(dm, bad)
    bad = poly_problem()
    bad.f = nan_right
    with pytest.raises(AssemblyError, match="source integral"):
        constraints(dm, bad)


def test_qh_commutation_on_interpolants():
    # element rows applied to I_h(xi) equal int_T(-Delta xi)  (tested per
    # element in test_element; here through the ConstraintSet aggregate)
    mesh = uniform_refine(initial_mesh(0.0, 1.0, 2), 1)
    dm = DofMap(mesh)
    cons = constraints(dm, poly_problem(with_f=False))

    def f(x, y):
        return x * (1 - x) * y * (1 - y)

    def g(x, y):
        return np.stack([(1 - 2 * x) * y * (1 - y),
                         x * (1 - x) * (1 - 2 * y)], axis=-1)

    def lap(x, y):
        return -2 * y * (1 - y) - 2 * x * (1 - x)

    u = interpolate(dm, f, g)
    ref = -sum(float(w @ lap(*pts.T)) for pts, w in
               (tri_quad(*mesh.vertices[mesh.elements[t]], 8)
                for t in range(mesh.n_elements)))
    assert (cons.rows @ u)[1] == pytest.approx(ref, abs=1e-11)


def test_no_kernel_smallest_eigenvalue(unit_cross):
    dm = DofMap(unit_cross)
    A, _ = assemble(dm, poly_problem())
    M = A.toarray()
    # inverse iteration
    rng = np.random.default_rng(1)
    x = rng.standard_normal(dm.n_dofs)
    for _ in range(200):
        x = np.linalg.solve(M, x)
        x /= np.linalg.norm(x)
    lam_min = x @ (M @ x)
    assert lam_min > 0


def test_system_matrix_owns_compact_arrays(unit_cross):
    # the sparse product S' B S returns views into buffers sized for the
    # structural nonzeros; the returned matrix must not keep those alive,
    # and must have no duplicate or unsorted entries
    A, _ = assemble(DofMap(unit_cross), poly_problem())
    assert A.has_canonical_format
    for arr in (A.data, A.indices):
        assert arr.base is None or arr.base.nbytes == arr.nbytes


def test_system_matrix_stores_no_exact_zeros():
    # on this uniform ex4 level 1,920 couplings cancel exactly; a stored
    # zero would enter SuperLU's ordering of A and of the saddle
    dm = DofMap(uniform_refine(initial_mesh(0.0, 1.0, 4), 4))
    A, _ = assemble(dm, example(4))
    assert np.count_nonzero(A.data == 0.0) == 0
