import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import morley_ocp.adaptive as adaptive
import morley_ocp.problems as problems
from morley_ocp.mesh import Mesh, MeshError, bisect, initial_mesh, uniform_refine

from oracles import (assert_conforming, barycentric, bisect_recursive,
                     edge_elements_loop, edges_lexicographic, min_angle)


def test_unit_cross_counts(unit_cross):
    assert unit_cross.n_elements == 4
    assert unit_cross.n_vertices == 5
    assert unit_cross.n_edges == 8


def test_area_conservation_initial():
    m = initial_mesh((-1.0, -1.0), (1.0, 1.0), 2)
    assert m.areas.sum() == pytest.approx(4.0, rel=1e-14)


def test_min_angle_criss_cross():
    m = initial_mesh(0.0, 1.0, 4)
    assert min_angle(m) == pytest.approx(45.0, abs=1e-9)


def test_degenerate_domain_rejected():
    with pytest.raises(MeshError):
        initial_mesh(1.0, 1.0, 2)
    with pytest.raises(MeshError):
        initial_mesh(0.0, 1.0, 0)


def test_vertex_id_out_of_range_rejected():
    # edges are keyed by lo * n_vertices + hi, which needs ids in range; a
    # negative id would otherwise index from the end of the vertex array
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="out of range"):
        Mesh(verts, np.array([[0, 1, 2], [0, 2, -1]]), np.array([1, 2]))


@pytest.mark.parametrize("verts", [
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    [0.0, 1.0, 0.5],
    0.0,
], ids=["nv_by_3", "flat", "scalar"])
def test_vertex_array_shape_rejected(verts):
    # (nv, 3) failed inside the topology build with a numpy ValueError and
    # a 1-D array with an IndexError
    with pytest.raises(MeshError, match=r"vertices must be \(nv, 2\)"):
        Mesh(verts, np.array([[0, 1, 2]]), np.array([0]))


@pytest.mark.parametrize("edge", [[3], [-1], [0, 1], [[0]]])
def test_refinement_edge_out_of_range_rejected(edge):
    # bisect would read -1 as edge 2 and fail on 3 or a wrong length with
    # an IndexError
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="refinement edge"):
        Mesh(verts, np.array([[0, 1, 2]]), np.array(edge))


def test_bisect_empty_is_identity(unit_cross):
    assert bisect(unit_cross, []) is unit_cross


def test_bisect_one_element_conforming(unit_cross):
    # the marked element's refinement edge is a boundary cell side, so a
    # single compatible split suffices: 4 -> 5 elements, still conforming
    out = bisect(unit_cross, [0])
    assert_conforming(out, 0.0, 1.0)
    assert out.n_elements == unit_cross.n_elements + 1
    # the marked element is replaced by its two halves
    assert sorted(out.areas) == pytest.approx([0.125, 0.125, 0.25, 0.25, 0.25],
                                              rel=1e-14)


def test_uniform_refinement_preserves_min_angle(unit_cross):
    # right isoceles triangles bisected at the hypotenuse stay similar
    m = unit_cross
    base = min_angle(m)
    for _ in range(5):
        m = bisect(m, range(m.n_elements))
        assert_conforming(m, 0.0, 1.0)
        assert min_angle(m) >= base - 1e-9
        assert m.areas.sum() == pytest.approx(1.0, rel=1e-12)
    assert m.n_elements == 4 * 2**5


def test_marked_generation_increases(unit_cross):
    m = uniform_refine(unit_cross, 1)
    marked = [0, 3]
    out = bisect(m, marked)
    # marked parents disappear; their area is covered by higher generations,
    # and each generation halves the area
    assert out.n_elements > m.n_elements
    parents = {frozenset(m.elements[t]) for t in marked}
    assert not parents & {frozenset(t) for t in out.elements}
    assert out.areas.min() <= 0.5 * m.areas[marked].min() * (1 + 1e-12)


def test_refinement_edge_is_longest_edge():
    m = initial_mesh(0.0, 1.0, 2)
    for t in range(m.n_elements):
        k = m.refinement_edge[t]
        assert m.edge_lengths[m.elem_edges[t, k]] == pytest.approx(
            m.h_elements[t], rel=1e-12)


def test_element_geometry_reference(reference_triangle_mesh):
    m = reference_triangle_mesh
    assert m.areas[0] == pytest.approx(0.5, rel=1e-14)
    assert m.h_elements[0] == pytest.approx(np.sqrt(2.0), rel=1e-14)
    # gradient of the first barycentric coordinate of (0,0),(1,0),(0,1)
    assert np.allclose(m.grad_lambda[0, 0], [-1.0, -1.0])
    assert np.allclose(m.grad_lambda[0].sum(axis=0), 0.0, atol=1e-14)


def test_grad_lambda_partition_of_unity():
    m = initial_mesh((-1.0, -1.0), (1.0, 1.0), 3)
    assert np.abs(m.grad_lambda.sum(axis=1)).max() < 1e-12


def test_jump_frame_boundary_and_interior(unit_cross):
    m = unit_cross
    for e in range(m.n_edges):
        plus, minus = m.edge_elements[e]
        n = m.edge_normals[e]
        assert np.hypot(*n) == pytest.approx(1.0, rel=1e-14)
        mid = 0.5 * m.vertices[m.edges[e]].sum(axis=0)
        cp = m.vertices[m.elements[plus]].mean(axis=0)
        if minus < 0:
            # outward on the boundary
            assert n @ (cp - mid) < 0
        else:
            cm = m.vertices[m.elements[minus]].mean(axis=0)
            assert n @ (cp - mid) < 0 < n @ (cm - mid)


def test_normal_flips_with_endpoint_order():
    # relabeling the vertices reverses the canonical edge orientation and
    # with it the stored normal
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    ref = np.array([1, 2])         # the diagonal, in both elements
    m1 = Mesh(verts, tris, ref)
    perm = np.array([3, 2, 1, 0])  # new id of old vertex i
    inv = np.argsort(perm)
    m2 = Mesh(verts[inv], perm[tris], ref)
    # the shared diagonal is 0-2 in both meshes but with swapped endpoints
    def diag_normal(m):
        for e in range(m.n_edges):
            if m.interior_edges[e]:
                return m.edge_normals[e]
        raise AssertionError
    assert np.allclose(diag_normal(m1), -diag_normal(m2))


def test_closure_produces_conforming_mesh(unit_cross):
    m = uniform_refine(unit_cross, 2)
    out = bisect(m, [0])
    assert_conforming(out, 0.0, 1.0)
    for e in range(out.n_edges):
        plus, minus = out.edge_elements[e]
        assert (minus < 0) == (not out.interior_edges[e])
    assert not out.interior_edges.flags.writeable


@pytest.mark.parametrize("build", [
    lambda: initial_mesh(0.0, 1.0, 2),
    lambda: Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]], [0]),
    lambda: bisect(uniform_refine(initial_mesh(0.0, 1.0, 1), 1), [0, 3]),
], ids=["initial_mesh", "by_hand", "bisect"])
def test_mesh_arrays_are_read_only(build):
    # a write to a geometry array would corrupt every later DofMap and
    # assembly on the mesh
    mesh = build()
    arrays = {k: v for k, v in vars(mesh).items() if isinstance(v, np.ndarray)}
    assert {"vertices", "edge_lengths", "areas", "h_elements",
            "grad_lambda"} <= arrays.keys()
    assert [k for k, v in arrays.items() if v.flags.writeable] == []


def test_mesh_copies_its_input_arrays():
    # the read-only flags belong to the mesh's own copies: the caller's
    # contiguous float64 and int64 arrays stay writable and unshared
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    e = np.array([[0, 1, 2]], dtype=np.int64)
    r = np.array([0], dtype=np.int64)
    m = Mesh(v, e, r)
    for given, kept in ((v, m.vertices), (e, m.elements),
                        (r, m.refinement_edge)):
        assert given.flags.writeable
        assert not np.shares_memory(given, kept)


def test_export_text(tmp_path, unit_cross):
    path = tmp_path / "mesh.txt"
    unit_cross.export_text(path)
    lines = path.read_text().strip().splitlines()
    nv, nt = map(int, lines[0].split())
    assert nv == 5 and nt == 4
    assert len(lines) == 1 + nv + nt
    x, y = map(float, lines[1].split())
    assert (x, y) == (0.0, 0.0)


def test_marked_out_of_range(unit_cross):
    with pytest.raises(MeshError):
        bisect(unit_cross, [99])


def test_marked_must_be_integers(unit_cross):
    # a boolean mask would be read as the ids 1 and 0 (elements 0 and 1
    # instead of 0 and 3), and 1.7 would silently become element 1
    with pytest.raises(MeshError, match="integers"):
        bisect(unit_cross, [True, False, False, True])
    with pytest.raises(MeshError, match="integers"):
        bisect(unit_cross, [1.7])


def test_closure_depth_cap(monkeypatch, unit_cross):
    # with the cap at zero, any recursive closure step must be reported as
    # an incompatible assignment
    import morley_ocp.mesh as mm
    # a non-uniform refinement leaves children whose refinement edges
    # disagree with their unsplit neighbors
    m = bisect(unit_cross, [0])
    needs_closure = None
    for t in range(m.n_elements):
        k = m.refinement_edge[t]
        gid = m.elem_edges[t, k]
        plus, minus = m.edge_elements[gid]
        if minus < 0:
            continue
        nb = minus if plus == t else plus
        knb = m.refinement_edge[nb]
        if m.elem_edges[nb, knb] != gid:
            needs_closure = t
            break
    assert needs_closure is not None
    monkeypatch.setattr(mm, "CLOSURE_DEPTH_CAP", 0)
    with pytest.raises(MeshError):
        mm.bisect(m, [needs_closure])


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**6),
                min_size=1, max_size=8))
def test_random_refinement_stays_conforming(marks):
    m = initial_mesh(0.0, 1.0, 1)
    for mark in marks:
        m = bisect(m, [mark % m.n_elements])
        np.testing.assert_array_equal(m.edge_elements, edge_elements_loop(m))
    assert_conforming(m, 0.0, 1.0)
    assert min_angle(m) >= 45.0 - 1e-9


def _check_parent_map(old, new):
    parent = new.parent
    assert parent.shape == (new.n_elements,) and not parent.flags.writeable
    # every element of the old mesh has at least one child, and the
    # children's areas add up to it
    np.testing.assert_allclose(
        np.bincount(parent, weights=new.areas, minlength=old.n_elements),
        old.areas, rtol=1e-13)
    # every child's centroid lies inside its parent
    centroids = new.vertices[new.elements].mean(axis=1)
    assert np.all(barycentric(old, parent, centroids) > -1e-12)
    # an element the bisection left alone maps to the same vertex set
    # (bisection keeps the old vertex ids and appends the midpoints)
    assert np.array_equal(new.vertices[:old.n_vertices], old.vertices)
    kept = np.bincount(parent, minlength=old.n_elements)[parent] == 1
    assert np.array_equal(np.sort(new.elements[kept], axis=1),
                          np.sort(old.elements[parent[kept]], axis=1))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=10**6),
                         min_size=1, max_size=4),
                min_size=1, max_size=5))
def test_random_refinement_parent_map(mark_sets):
    m = initial_mesh(0.0, 1.0, 1)
    assert m.parent is None
    for marks in mark_sets:
        new = bisect(m, [mark % m.n_elements for mark in marks])
        _check_parent_map(m, new)
        m = new
    _check_parent_map(m, uniform_refine(m))


def test_hanging_node_is_not_conforming():
    # the diagonal 0-2 meets the edges 0-4 and 4-2 of the other two
    # elements only at the hanging node 4: the areas cover the square, but
    # three single-element edges lie inside it
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.5, 0.5]]),
             np.array([[0, 1, 2], [0, 4, 3], [4, 2, 3]]),
             np.array([1, 1, 0]))
    assert m.areas.sum() == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(AssertionError, match="off the boundary"):
        assert_conforming(m, 0.0, 1.0)
    # one triangle stacked on itself: every edge has two elements
    twice = Mesh(m.vertices, np.array([[0, 1, 4], [0, 1, 4]]),
                 np.array([2, 2]))
    with pytest.raises(AssertionError, match="areas sum"):
        assert_conforming(twice, 0.0, 1.0)


def _assert_same_bisection(mesh, marked):
    """``bisect`` and the dict-based recursive reference give identical
    arrays, and the edges are numbered in lexicographic order."""
    new, ref = bisect(mesh, marked), bisect_recursive(mesh, marked)
    for name in ("vertices", "elements", "refinement_edge", "parent",
                 "edges", "edge_elements", "elem_edges"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    edges, elem_edges = edges_lexicographic(new)
    np.testing.assert_array_equal(new.edges, edges)
    np.testing.assert_array_equal(new.elem_edges, elem_edges)
    return new


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=2),
       st.lists(st.lists(st.integers(min_value=0, max_value=10**6),
                         min_size=1, max_size=12),
                min_size=1, max_size=6))
# in the last round a closure bisects children made earlier in the same
# call, and then their children, whose neighbors across the halves of a
# split edge come from the table's pairing of the two split elements
@example(1, [[1, 0, 2, 1, 1, 0, 3, 3, 2, 3, 3], [3, 6, 0, 6, 0, 5, 0],
             [3, 10, 8, 7], [4, 15, 15, 7, 17, 11, 6, 6, 15, 3, 11]])
def test_bisect_matches_recursive_reference(subdivisions, mark_sets):
    # several marks per round on meshes refined unevenly by the rounds
    # before, so closures run through chains of neighbors; at most
    # 6 rounds of 12 marks keep the mesh to a few hundred elements
    m = initial_mesh(0.0, 1.0, subdivisions)
    for marks in mark_sets:
        m = _assert_same_bisection(m, [mark % m.n_elements for mark in marks])
    assert_conforming(m, 0.0, 1.0)


def test_bisect_matches_reference_on_graded_closure():
    # grading toward the point (0.3, 0.6), which never becomes a vertex:
    # each round marks the elements that hold it, and their refinement edges
    # disagree with their neighbors', so the closure bisects a chain of
    # elements (13 beyond the marked ones in the last rounds)
    m = initial_mesh(0.0, 1.0, 2)
    longest = 0
    for _ in range(10):
        everywhere = np.arange(m.n_elements)
        lam = barycentric(m, everywhere, np.tile([0.3, 0.6], (m.n_elements, 1)))
        holders = np.flatnonzero(np.all(lam > -1e-12, axis=1))
        new = _assert_same_bisection(m, holders)
        longest = max(longest, new.n_elements - m.n_elements - len(holders))
        m = new
    assert longest >= 10
    assert_conforming(m, 0.0, 1.0)


def test_bisect_matches_reference_along_ex4_study(monkeypatch):
    # every level of an adaptive ex4 study, with its Doerfler marks
    calls = []

    def checked(mesh, marked):
        calls.append(len(marked))
        return _assert_same_bisection(mesh, marked)

    monkeypatch.setattr(adaptive, "bisect", checked)
    run = adaptive.adaptive_solve(problems.example(4),
                                 adaptive.AdaptConfig(theta=0.3, max_dofs=2000))
    assert run.records[-1].dofs > 2000
    assert len(calls) == len(run.records) - 1 >= 5
