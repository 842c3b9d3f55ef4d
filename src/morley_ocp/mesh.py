"""Conforming 2D triangulations with newest-vertex-bisection refinement.

A :class:`Mesh` is immutable once built: refinement returns a new mesh.
Every element carries a refinement edge (the edge opposite its newest
vertex); :func:`bisect` performs recursive compatible bisection so the
result is always conforming.  It finds neighbors in a per-element table
made from the input mesh's ``edge_elements`` and updated locally by each
split, so a call costs one pass over the arrays plus work proportional to
the number of splits.

Conventions
-----------
* Element vertices are ordered counter-clockwise; local edge ``k`` is the
  edge opposite local vertex ``k``.
* Global edges store their endpoints with the lower vertex id first.  The
  edge normal is the unit tangent (first endpoint -> second) rotated by
  +90 degrees, except on the boundary where the normal is flipped to point
  outward if necessary.
* Counter-clockwise neighbours run a shared edge in opposite directions.
  The "plus" element is the one that runs it from its higher vertex id;
  the normal points out of it, i.e. from plus to minus.
"""

from __future__ import annotations

import numpy as np

CLOSURE_DEPTH_CAP = 64

# local index of the next and the previous vertex, counter-clockwise
_NEXT = (1, 2, 0)
_PREV = (2, 0, 1)


class MeshError(Exception):
    """Raised for invalid mesh input or a failed refinement closure."""


class Mesh:
    """Conforming triangulation with NVB bookkeeping.

    Parameters are taken as given (no reordering): elements must be
    counter-clockwise.  :func:`initial_mesh` builds the coarse mesh and
    :func:`bisect` every refined one.  The geometry is computed with the
    topology in one construction pass, and every array is read-only.

    Attributes
    ----------
    vertices : (nv, 2) float array
    elements : (nt, 3) int array, counter-clockwise vertex ids
    refinement_edge : (nt,) int array, local edge index 0..2
    edges : (ne, 2) int array, endpoint ids with the lower id first
    edge_elements : (ne, 2) int array, [plus, minus]; minus is -1 on the
        boundary
    edge_normals : (ne, 2) float array, unit normals (outward on boundary)
    edge_lengths : (ne,) float array
    areas : (nt,) float array, element areas |T| (positive)
    h_elements : (nt,) float array, element diameters h_T (longest edge)
    grad_lambda : (nt, 3, 2) float array, constant gradients of the
        barycentric coordinates
    interior_edges : (ne,) bool array, True where an edge has two elements
    elem_edges : (nt, 3) int array, global edge id of local edge k
    vertex_on_boundary : (nv,) bool array
    parent : (nt,) int array or None; for a mesh made by :func:`bisect`,
        the id of each element's ancestor in the mesh that was bisected
        (None for :func:`initial_mesh` and meshes built by hand)
    """

    def __init__(self, vertices, elements, refinement_edge, parent=None):
        # copies: the loop below makes every array read-only
        self.vertices = np.array(vertices, dtype=float)
        self.elements = np.array(elements, dtype=np.int64)
        self.refinement_edge = np.array(refinement_edge, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be (nv, 2)")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("non-finite vertex coordinates")
        if (self.elements.ndim != 2 or self.elements.shape[1] != 3
                or len(self.elements) == 0):
            raise MeshError("elements must be (nt, 3) with nt >= 1")
        if self.refinement_edge.shape != (len(self.elements),):
            raise MeshError(f"refinement edge array has shape "
                            f"{self.refinement_edge.shape} for "
                            f"{len(self.elements)} elements")
        if np.any((self.refinement_edge < 0) | (self.refinement_edge > 2)):
            raise MeshError("refinement edge outside the local edges 0, 1, 2")
        self.parent = None if parent is None else np.array(parent, np.int64)
        self._build_topology()
        for a in (self.vertices, self.elements, self.refinement_edge,
                  self.edges, self.edge_elements, self.edge_normals,
                  self.edge_lengths, self.interior_edges, self.elem_edges,
                  self.vertex_on_boundary, self.areas, self.h_elements,
                  self.grad_lambda, self.parent):
            if a is not None:
                a.flags.writeable = False

    # -- construction ------------------------------------------------

    def _build_topology(self):
        nt, nv = len(self.elements), len(self.vertices)
        if self.elements.min() < 0 or self.elements.max() >= nv:
            raise MeshError("element vertex id out of range")
        p = self.vertices[self.elements]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]   # twice |T|, signed
        if np.any(area2 <= 0):
            raise MeshError("element with non-positive signed area")
        e0 = self.elements[:, [1, 2]]
        e1 = self.elements[:, [2, 0]]
        e2 = self.elements[:, [0, 1]]
        all_edges = np.concatenate([e0, e1, e2])
        keys = np.sort(all_edges, axis=1)
        # lo * nv + hi sorts like the pair (lo, hi), so the edges come out in
        # lexicographic order
        ukeys, inverse = np.unique(keys[:, 0] * nv + keys[:, 1],
                                   return_inverse=True)
        uniq = np.stack([ukeys // nv, ukeys % nv], axis=1)
        self.edges = uniq
        self.elem_edges = inverse.reshape(3, nt).T.copy()

        ne = len(uniq)
        counts = np.bincount(inverse, minlength=ne)
        if counts.max() > 2:
            raise MeshError("edge shared by more than two elements")

        tang = self.vertices[uniq[:, 1]] - self.vertices[uniq[:, 0]]
        lengths = np.hypot(tang[:, 0], tang[:, 1])
        tang = tang / lengths[:, None]
        normals = np.stack([-tang[:, 1], tang[:, 0]], axis=1)

        # entry i of ``inverse`` is an edge of element i % nt; the normal
        # points into an element that runs its edge ``forward`` (from the
        # lower id), so sorting on it puts "plus" in slot 0, and a boundary
        # edge whose element runs it forward gets its normal flipped
        forward = all_edges[:, 0] < all_edges[:, 1]
        order = np.argsort(2 * inverse + forward, kind="stable")
        gid = inverse[order]
        second = np.r_[False, gid[1:] == gid[:-1]]
        adj = np.full((ne, 2), -1, dtype=np.int64)
        adj[gid, second.astype(np.int64)] = order % nt
        normals[forward[order[~second]]] *= -1.0
        boundary = counts == 1

        self.edge_elements = adj
        self.edge_normals = normals
        self.edge_lengths = lengths
        self.interior_edges = ~boundary

        vb = np.zeros(len(self.vertices), dtype=bool)
        vb[uniq[boundary].ravel()] = True
        self.vertex_on_boundary = vb

        self.areas = 0.5 * area2
        self.h_elements = lengths[self.elem_edges].max(axis=1)
        # grad(lambda_i): the edge opposite vertex i, run from vertex i + 1
        # to vertex i + 2, rotated by +90 degrees and divided by 2|T|
        g = np.empty((nt, 3, 2))
        for i in range(3):
            d = p[:, _PREV[i]] - p[:, _NEXT[i]]
            g[:, i, 0] = -d[:, 1]
            g[:, i, 1] = d[:, 0]
        g /= area2[:, None, None]
        self.grad_lambda = g

    # -- sizes and flags ----------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_edges(self):
        return len(self.edges)

    # -- geometry -----------------------------------------------------

    def physical_points(self, bary):
        """Physical coordinates of shared barycentric points on all elements.

        ``bary`` is (nq, 3); the result is (nt, nq, 2).
        """
        p = self.vertices[self.elements]
        return np.matmul(np.asarray(bary, dtype=float), p)

    def export_text(self, path):
        """Write the plain-text node/element format.

        First line: vertex and element counts; then one vertex per line
        ("x y") and one element per line ("v0 v1 v2").
        """
        lines = [f"{self.n_vertices} {self.n_elements}"]
        lines += [f"{float(x)!r} {float(y)!r}" for x, y in self.vertices]
        lines += [f"{a} {b} {c}" for a, b, c in self.elements]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def initial_mesh(lower, upper, subdivisions):
    """Criss-cross triangulation of the axis-aligned square [lower, upper]^2.

    Each of the ``subdivisions**2`` cells is split into four triangles by
    its center.  Every refinement edge is the cell side (the unique longest
    edge), which makes the assignment NVB-compatible.
    """
    if not subdivisions >= 1 or subdivisions % 1:
        raise MeshError("subdivisions must be an integer >= 1")
    n = int(subdivisions)
    x0, y0 = (float(lower), float(lower)) if np.isscalar(lower) else map(float, lower)
    x1, y1 = (float(upper), float(upper)) if np.isscalar(upper) else map(float, upper)
    if x1 <= x0 or y1 <= y0:
        raise MeshError("degenerate domain")
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    mx, my = np.meshgrid(cx, cy, indexing="xy")
    centers = np.stack([mx.ravel(), my.ravel()], axis=1)
    vertices = np.concatenate([grid, centers])

    def gid(ix, iy):
        return iy * (n + 1) + ix

    nslab = (n + 1) ** 2
    elements = []
    for j in range(n):
        for i in range(n):
            c00, c10 = gid(i, j), gid(i + 1, j)
            c01, c11 = gid(i, j + 1), gid(i + 1, j + 1)
            m = nslab + j * n + i
            elements += [(c00, c10, m), (c10, c11, m), (c11, c01, m), (c01, c00, m)]
    elements = np.array(elements, dtype=np.int64)
    ref = np.full(len(elements), 2, dtype=np.int64)  # cell side opposite the center
    return Mesh(vertices, elements, ref)


def bisect(mesh, marked):
    """Bisect all ``marked`` elements, closing recursively for conformity.

    ``marked`` holds integer element ids; they are bisected in ascending
    order, each at least once, and a neighbor is bisected first whenever
    its refinement edge differs from the shared edge.  Neighbors are
    looked up in a table (``nbr[t][k]``: the element across local edge k
    of t, -1 on the boundary) that each split updates locally.  Surviving
    elements keep their order, children follow in creation order and
    midpoints are appended as they are created.  Returns a new mesh whose
    ``parent`` maps each element to the element of ``mesh`` it lies in.
    """
    marked = np.asarray(marked)
    if marked.size == 0:
        return mesh
    if marked.dtype.kind not in "iu":
        raise MeshError(f"marked ids must be integers, not {marked.dtype}")
    marked = np.unique(marked)
    if marked[0] < 0 or marked[-1] >= mesh.n_elements:
        raise MeshError("marked ids out of range")

    nt, nv = mesh.n_elements, mesh.n_vertices
    tris = mesh.elements.tolist()
    ref = mesh.refinement_edge.tolist()
    pairs = mesh.edge_elements[mesh.elem_edges]              # (nt, 3, 2)
    own = pairs[:, :, 0] == np.arange(nt)[:, None]
    nbr = np.where(own, pairs[:, :, 1], pairs[:, :, 0]).tolist()
    dead = bytearray(nt)
    origin = []     # element of ``mesh`` that child nt + i lies in
    ends = []       # endpoints of midpoint nv + i

    def split(t, m):
        # refinement edge (a, b), peak p; children keep CCW orientation and
        # get the edges opposite the new vertex as refinement edges; the
        # halves of (a, b), local edge 2 of each child, are linked by refine
        k = ref[t]
        tri, around = tris[t], nbr[t]
        p, a, b = tri[k], tri[_NEXT[k]], tri[_PREV[k]]
        across_pa, across_bp = around[_PREV[k]], around[_NEXT[k]]
        c = len(tris)
        tris.extend(([a, m, p], [m, b, p]))
        ref.extend((1, 0))
        nbr.extend(([c + 1, across_pa, -1], [across_bp, c, -1]))
        o = t if t < nt else origin[t - nt]
        origin.extend((o, o))
        dead[t] = 1
        dead.extend(b"\0\0")
        # an outer neighbor runs the shared edge the other way, from a to p
        # or from p to b, and its local edge j runs from local vertex _NEXT[j]
        if across_pa >= 0:
            nbr[across_pa][_PREV[tris[across_pa].index(a)]] = c
        if across_bp >= 0:
            nbr[across_bp][_PREV[tris[across_bp].index(p)]] = c + 1
        return c

    def refine(t, depth):
        if depth > CLOSURE_DEPTH_CAP:
            raise MeshError("closure recursion exceeded depth cap "
                            f"{CLOSURE_DEPTH_CAP}; incompatible refinement edges")
        if dead[t]:
            return
        while True:
            if dead[t]:
                return  # bisected as a side effect of the recursion
            nb = nbr[t][ref[t]]
            if nb < 0 or nbr[nb][ref[nb]] == t:
                break
            refine(nb, depth + 1)
        k = ref[t]
        m = nv + len(ends)
        ends.append((tris[t][_NEXT[k]], tris[t][_PREV[k]]))
        if nb < 0:
            split(t, m)
            return
        # nb's children [b, m, p'] and [m, a, p'] meet t's [a, m, p] and
        # [m, b, p] along the halves of the split edge
        cn = split(nb, m)
        ct = split(t, m)
        nbr[ct][2], nbr[cn + 1][2] = cn + 1, ct
        nbr[ct + 1][2], nbr[cn][2] = cn, ct + 1

    for t in marked.tolist():
        if not dead[t]:
            refine(t, 0)

    alive = np.frombuffer(dead, dtype=np.uint8) == 0
    old, new = alive[:nt], alive[nt:]
    # every edge bisected here is an edge of ``mesh``: the recursion only
    # reaches elements of ``mesh`` and their children, whose refinement
    # edges are edges of ``mesh``
    ends = np.array(ends, dtype=np.int64)
    vertices = np.concatenate([mesh.vertices,
                               0.5 * (mesh.vertices[ends[:, 0]]
                                      + mesh.vertices[ends[:, 1]])])
    elements = np.concatenate([mesh.elements[old],
                               np.array(tris[nt:], dtype=np.int64)[new]])
    refinement = np.concatenate([mesh.refinement_edge[old],
                                 np.array(ref[nt:], dtype=np.int64)[new]])
    parent = np.concatenate([np.flatnonzero(old),
                             np.array(origin, dtype=np.int64)[new]])
    return Mesh(vertices, elements, refinement, parent)


def uniform_refine(mesh, times=1):
    """Bisect every element ``times`` times (marking all each round)."""
    for _ in range(times):
        mesh = bisect(mesh, range(mesh.n_elements))
    return mesh
