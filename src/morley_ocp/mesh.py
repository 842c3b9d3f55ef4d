"""Conforming 2D triangulations with newest-vertex-bisection refinement.

A :class:`Mesh` is immutable once built: refinement returns a new mesh.
Every element carries a refinement edge (the edge opposite its newest
vertex); :func:`bisect` performs compatible bisection with a conformity
closure, so the result is always conforming.  It finds neighbors in a flat
per-element table made from the input mesh's ``edge_elements`` and
updated locally by each split, so a call costs one pass over the arrays
plus work proportional to the number of splits.

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
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
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
    """Bisect all ``marked`` elements, closing for conformity.

    ``marked`` holds integer element ids; they are bisected in ascending
    order, each at least once, and a neighbor is bisected first whenever
    its refinement edge differs from the shared edge.  The closure runs on
    an explicit stack of pending elements, at most ``CLOSURE_DEPTH_CAP``
    deep below the mark, over flat per-element tables: vertex j of element
    t at ``3t + j``, the element across its local edge k at ``3t + k`` (-1
    on the boundary), and per element its refinement edge, its ancestor in
    ``mesh`` and whether it was split; each split updates them locally.
    Surviving elements keep their order, children follow in creation order
    and midpoints are appended as they are created.  Returns a new mesh
    whose ``parent`` maps each element to the element of ``mesh`` it lies
    in.
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
    tri = mesh.elements.ravel().tolist()
    # the other element on each edge of t is plus + minus - t: on the
    # boundary t is plus and minus is -1
    nbr = (mesh.edge_elements[mesh.elem_edges].sum(axis=2)
           - np.arange(nt)[:, None]).ravel().tolist()
    ref = mesh.refinement_edge.tolist()
    origin = list(range(nt))
    dead = bytearray(nt)
    ends = []       # endpoints of midpoint nv + i at 2i and 2i + 1
    stack = []

    for mark in marked.tolist():
        stack.append(mark)
        while stack:
            t = stack[-1]
            if dead[t]:
                stack.pop()   # bisected as a side effect of the closure
                continue
            k = ref[t]
            nb = nbr[3 * t + k]
            if nb >= 0 and nbr[3 * nb + ref[nb]] != t:
                if len(stack) > CLOSURE_DEPTH_CAP:
                    raise MeshError("closure exceeded depth cap "
                                    f"{CLOSURE_DEPTH_CAP}; incompatible "
                                    "refinement edges")
                stack.append(nb)
                continue
            stack.pop()
            m = nv + len(ends) // 2
            ends += (tri[3 * t + _NEXT[k]], tri[3 * t + _PREV[k]])
            c0 = len(ref)
            for s in ((t,) if nb < 0 else (nb, t)):
                # refinement edge (a, b), peak p; children [a, m, p] and
                # [m, b, p] keep CCW orientation and get the edges opposite
                # the new vertex as refinement edges; the halves of (a, b)
                # are their local edge 2
                i, ks = 3 * s, ref[s]
                p, a, b = tri[i + ks], tri[i + _NEXT[ks]], tri[i + _PREV[ks]]
                pa, bp = nbr[i + _PREV[ks]], nbr[i + _NEXT[ks]]
                c = len(ref)
                tri += (a, m, p, m, b, p)
                nbr += (c + 1, pa, -1, bp, c, -1)
                ref += (1, 0)
                origin += (origin[s],) * 2
                dead[s] = 1
                dead += b"\0\0"
                # an outer neighbor runs the shared edge the other way, from
                # a to p or from p to b, and its local edge j runs from its
                # local vertex _NEXT[j]
                if pa >= 0:
                    j = 3 * pa
                    nbr[j + (2 if tri[j] == a else 0 if tri[j + 1] == a
                             else 1)] = c
                if bp >= 0:
                    j = 3 * bp
                    nbr[j + (2 if tri[j] == p else 0 if tri[j + 1] == p
                             else 1)] = c + 1
            if nb >= 0:
                # nb's children [b, m, p'] and [m, a, p'] (c0, c0 + 1) meet
                # t's [a, m, p] and [m, b, p] (c0 + 2, c0 + 3) along the
                # halves of the split edge
                j = 3 * c0 + 2
                nbr[j], nbr[j + 3], nbr[j + 6], nbr[j + 9] = (
                    c0 + 3, c0 + 2, c0 + 1, c0)

    alive = np.frombuffer(dead, dtype=np.uint8) == 0
    # every edge bisected here is an edge of ``mesh``: the closure only
    # reaches elements of ``mesh`` and their children, whose refinement
    # edges are edges of ``mesh``
    ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
    vertices = np.concatenate([mesh.vertices,
                               0.5 * (mesh.vertices[ends[:, 0]]
                                      + mesh.vertices[ends[:, 1]])])
    elements = np.array(tri, dtype=np.int64).reshape(-1, 3)[alive]
    refinement = np.array(ref, dtype=np.int64)[alive]
    parent = np.array(origin, dtype=np.int64)[alive]
    del tri, nbr, ref, origin   # the tables die before the mesh is built
    return Mesh(vertices, elements, refinement, parent)


def uniform_refine(mesh, times=1):
    """Bisect every element ``times`` times (marking all each round)."""
    for _ in range(times):
        mesh = bisect(mesh, range(mesh.n_elements))
    return mesh
