"""Independent brute-force oracles for cross-checking the package.

Everything here is built from scratch on purpose: physical-coordinate
tensor Gauss quadrature, monomial shape-function construction by solving
the local dual systems, dense assembly, estimator terms by direct
quadrature, and two independent optimizers (accelerated projected
gradient, exhaustive active-set enumeration).  Only mesh/DOF bookkeeping
conventions are taken from the package, since those conventions are what
is being verified.  Two exceptions reuse the package's primitive basis:
``dof_matrices`` applies the seven DOF functionals to it element by element
(its inverse is the nodal basis ``DofMap`` builds by a transform of one
reference inverse), and ``eval_function_einsum`` checks only the
contraction order of ``DofMap.eval_function``.

The last section holds tools of the method's analysis that the solver
loop never calls: the vertex, edge and bubble DOF arrays read off
``DofMap.cell_dofs``, the interpolation operator I_h (it uses the package's
quadrature rules), a Slater-point check of the problem data, the minimum
angle of a mesh, a conformity check of a mesh of a rectangle, a
per-entry loop reference for the vectorized ``Mesh.edge_elements`` fill,
the edge numbering by a lexicographic sort of endpoint pairs, and a
newest-vertex bisection that finds neighbors in a dict from vertex pairs
to element sets, rebuilt over the whole mesh on every call.
"""

import numpy as np

import morley_ocp.mesh as mesh_module

from morley_ocp.element import (N_LOCAL, _PRIM_QT, _edge_mean_dlam, edge_rule,
                                prim_d2lam, prim_dlam, prim_values,
                                triangle_rule)


# ---------------------------------------------------------------------
# quadrature in physical coordinates
# ---------------------------------------------------------------------

def gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def tri_quad(p0, p1, p2, n=6):
    """Tensor Gauss rule on a physical triangle (exact to degree 2n-2
    total); returns (points (m, 2), weights summing to the area)."""
    u, wu = gauss01(n)
    v, wv = gauss01(n)
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    # x(u, v) = (1-u) p0 + u [(1-v) p1 + v p2]; |J| = 2 A u
    pts = ((1 - U)[..., None] * p0 + (U * (1 - V))[..., None] * p1
           + (U * V)[..., None] * p2).reshape(-1, 2)
    area2 = abs((p1[0] - p0[0]) * (p2[1] - p0[1])
                - (p1[1] - p0[1]) * (p2[0] - p0[0]))
    w = (WU * WV * U * area2).reshape(-1)
    return pts, w


def edge_quad(a, b, n=6):
    """Gauss rule on the segment [a, b]; weights sum to its length."""
    t, w = gauss01(n)
    pts = a[None, :] + t[:, None] * (b - a)[None, :]
    return pts, w * np.hypot(*(b - a))


# ---------------------------------------------------------------------
# local shape functions in monomials
# ---------------------------------------------------------------------

def _barycentric_affine(p):
    """Coefficient rows (a, b, c) with lambda_i(x, y) = a + b x + c y."""
    M = np.column_stack([np.ones(3), p[:, 0], p[:, 1]])
    return np.linalg.inv(M).T


class OracleElement:
    """Shape functions of one element, built independently in monomials.

    Generators: [1, x, y, x^2, xy, y^2, l0*l1*l2].  The seven DOFs (three
    vertex values, three global-normal edge means, element average) are
    applied with the oracle's own quadrature; the dual basis solves the
    7x7 system.
    """

    def __init__(self, mesh, t, nquad=8):
        self.mesh = mesh
        self.t = t
        self.p = mesh.vertices[mesh.elements[t]]
        self.lam_rows = _barycentric_affine(self.p)   # (3, 3): a + b x + c y
        self.nquad = nquad
        D = np.zeros((7, 7))
        for j in range(7):
            D[:3, j] = [self._gen_value(j, self.p[i]) for i in range(3)]
            for k in range(3):
                gid = mesh.elem_edges[t, k]
                a, b = mesh.vertices[mesh.edges[gid]]
                n = mesh.edge_normals[gid]
                pts, w = edge_quad(a, b, nquad)
                grads = np.array([self._gen_grad(j, q) for q in pts])
                D[3 + k, j] = (grads @ n) @ w / w.sum()
            pts, w = tri_quad(*self.p, nquad)
            vals = np.array([self._gen_value(j, q) for q in pts])
            D[6, j] = vals @ w / w.sum()
        self.dual = np.linalg.inv(D)   # columns: shape functions

    # generator evaluation -------------------------------------------------
    def _lam(self, q):
        return self.lam_rows @ np.array([1.0, q[0], q[1]])

    def _lam_grad(self):
        return self.lam_rows[:, 1:]

    def _gen_value(self, j, q):
        x, y = q
        if j < 6:
            return [1.0, x, y, x * x, x * y, y * y][j]
        return float(np.prod(self._lam(q)))

    def _gen_grad(self, j, q):
        x, y = q
        if j < 6:
            return np.array([[0, 0], [1, 0], [0, 1], [2 * x, 0],
                             [y, x], [0, 2 * y]][j], dtype=float)
        l = self._lam(q)
        G = self._lam_grad()
        return l[1] * l[2] * G[0] + l[0] * l[2] * G[1] + l[0] * l[1] * G[2]

    def _gen_hess(self, j, q):
        if j < 6:
            H = np.zeros((2, 2))
            if j == 3:
                H[0, 0] = 2.0
            elif j == 4:
                H[0, 1] = H[1, 0] = 1.0
            elif j == 5:
                H[1, 1] = 2.0
            return H
        l = self._lam(q)
        G = self._lam_grad()
        H = np.zeros((2, 2))
        for (i, jj, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            H += l[k] * (np.outer(G[i], G[jj]) + np.outer(G[jj], G[i]))
        return H

    # shape-function evaluation --------------------------------------------
    def shape_value(self, i, q):
        return sum(self.dual[j, i] * self._gen_value(j, q) for j in range(7))

    def shape_grad(self, i, q):
        return sum(self.dual[j, i] * self._gen_grad(j, q) for j in range(7))

    def shape_hess(self, i, q):
        return sum(self.dual[j, i] * self._gen_hess(j, q) for j in range(7))

    def function_value(self, coeffs_local, q):
        return sum(c * self.shape_value(i, q)
                   for i, c in enumerate(coeffs_local))

    def function_grad(self, coeffs_local, q):
        return sum(c * self.shape_grad(i, q)
                   for i, c in enumerate(coeffs_local))

    def function_hess(self, coeffs_local, q):
        return sum(c * self.shape_hess(i, q)
                   for i, c in enumerate(coeffs_local))


def local_coeffs(dofmap, u, t):
    cd = dofmap.cell_dofs[t]
    return np.array([0.0 if d < 0 else u[d] for d in cd])


def dof_matrices(dofmap):
    """(nt, 7, 7) DOF functionals applied to the primitives, row i on
    primitive j: vertex values, edge means of the normal derivative signed
    by the global normal, element average.  ``DofMap.C`` is its inverse."""
    mesh = dofmap.mesh
    D = np.zeros((mesh.n_elements, N_LOCAL, N_LOCAL))
    D[:, :3, :] = prim_values(np.eye(3))[None, :, :]
    G = mesh.grad_lambda                                   # (nt, 3, 2)
    N = mesh.edge_normals[mesh.elem_edges]                 # (nt, 3, 2)
    GN = np.einsum("tmx,tkx->tkm", G, N)
    D[:, 3:6, :] = np.einsum("kjm,tkm->tkj", _edge_mean_dlam(), GN)
    D[:, 6, :] = _PRIM_QT[None, :]
    return D


def eval_function_einsum(dofmap, u, bary):
    """Reference for ``DofMap.eval_function``: the same (value, gradient,
    hessian), each written as one einsum over coefficients, primitive
    derivatives and element gradients together (the package's basis
    conventions, a different contraction order)."""
    a = dofmap.prim_coefficients(u)
    G = dofmap.mesh.grad_lambda
    bary = np.asarray(bary, dtype=float)
    P, dP, d2P = prim_values(bary), prim_dlam(bary), prim_d2lam(bary)
    val = np.einsum("ti,qi->tq", a, P)
    grad = np.einsum("ti,qik,tkx->tqx", a, dP, G, optimize=True)
    hess = np.einsum("ti,qikl,tkx,tly->tqxy", a, d2P, G, G, optimize=True)
    return val, grad, hess


def barycentric(mesh, elems, points):
    """Barycentric coordinates of physical ``points`` inside ``elems``.

    ``elems`` is (m,) and ``points`` is (m, 2) or (m, q, 2); the result
    appends a coordinate axis of size 3.  Solves ``[x; y; 1] = T lam`` with
    the vertex matrix ``T`` of each element.
    """
    p = mesh.vertices[mesh.elements[np.asarray(elems, dtype=np.int64)]]
    T = np.concatenate([np.swapaxes(p, 1, 2), np.ones((len(p), 1, 3))], axis=1)
    points = np.asarray(points, dtype=float)
    rhs = np.concatenate([points, np.ones(points.shape[:-1] + (1,))], axis=-1)
    if points.ndim == 3:
        T = T[:, None]
    return np.linalg.solve(T, rhs[..., None])[..., 0]


def assemble_dense(mesh, dofmap, beta, nquad=8):
    """Dense stiffness-plus-mass matrix by direct quadrature."""
    n = dofmap.n_dofs
    A = np.zeros((n, n))
    for t in range(mesh.n_elements):
        el = OracleElement(mesh, t, nquad)
        pts, w = tri_quad(*el.p, nquad)
        K = np.zeros((7, 7))
        for q, wq in zip(pts, w):
            H = [el.shape_hess(i, q) for i in range(7)]
            V = [el.shape_value(i, q) for i in range(7)]
            for i in range(7):
                for j in range(7):
                    K[i, j] += wq * (beta * np.tensordot(H[i], H[j]) + V[i] * V[j])
        cd = dofmap.cell_dofs[t]
        for i in range(7):
            for j in range(7):
                if cd[i] >= 0 and cd[j] >= 0:
                    A[cd[i], cd[j]] += K[i, j]
    return A


def estimator_terms(mesh, dofmap, u, mu, lam_elem, problem, nquad=8):
    """Squared estimator terms by direct quadrature.

    Returns the five totals (eta1^2, ..., eta5^2) and a (3, n_edges) array
    of the per-edge eta2^2, eta3^2 and eta4^2 (zero on boundary edges).
    """
    beta = problem.beta
    eta1 = eta5 = 0.0
    els = [OracleElement(mesh, t, nquad) for t in range(mesh.n_elements)]
    for t, el in enumerate(els):
        pts, w = tri_quad(*el.p, nquad)
        cl = local_coeffs(dofmap, u, t)
        acc = 0.0
        for q, wq in zip(pts, w):
            r = problem.y_d(q[0], q[1]) + mu - el.function_value(cl, q)
            if problem.f_laplacian is not None:
                r -= beta * problem.f_laplacian(q[0], q[1])
            acc += wq * r * r
        h = mesh.h_elements[t]
        eta1 += h**4 / beta * acc
        eta5 += h**2 / beta * lam_elem[t]**2 * mesh.areas[t]
    edge_terms = np.zeros((3, mesh.n_edges))
    for e in range(mesh.n_edges):
        plus, minus = mesh.edge_elements[e]
        if minus < 0:
            continue
        a, b = mesh.vertices[mesh.edges[e]]
        nrm = mesh.edge_normals[e]
        h = mesh.edge_lengths[e]
        pts, w = edge_quad(a, b, nquad)
        cp = local_coeffs(dofmap, u, plus)
        cm = local_coeffs(dofmap, u, minus)
        j2 = j3 = 0.0
        for q, wq in zip(pts, w):
            gj = els[plus].function_grad(cp, q) - els[minus].function_grad(cm, q)
            hj = els[plus].function_hess(cp, q) - els[minus].function_hess(cm, q)
            j2 += wq * (gj @ nrm) ** 2
            j3 += wq * (nrm @ hj @ nrm) ** 2
        edge_terms[0, e] = beta / h * j2
        edge_terms[1, e] = beta * h * j3
        # d(Delta w)/dn is constant per element: the local Laplacian is
        # affine, so fitting it at the three vertices is exact
        gl_p = _affine_gradient(els[plus], cp)
        gl_m = _affine_gradient(els[minus], cm)
        edge_terms[2, e] = beta * h**3 * h * ((gl_p - gl_m) @ nrm) ** 2
    eta2, eta3, eta4 = edge_terms.sum(axis=1)
    return (eta1, eta2, eta3, eta4, eta5), edge_terms


def _affine_gradient(el, coeffs_local):
    """Gradient of the (affine) element-wise Laplacian."""
    vals = [np.trace(el.function_hess(coeffs_local, q)) for q in el.p]
    M = np.column_stack([np.ones(3), el.p[:, 0], el.p[:, 1]])
    abc = np.linalg.solve(M, vals)
    return abc[1:]


# ---------------------------------------------------------------------
# optimization oracles
# ---------------------------------------------------------------------

def _project_two_halfspaces(x, rows, bounds):
    """Euclidean projection onto {r_k . x >= b_k, k in rows}."""
    for _ in range(64):
        viol = [k for k in range(len(rows)) if rows[k] @ x < bounds[k] - 1e-13]
        if not viol:
            return x
        if len(viol) == 1:
            r, bd = rows[viol[0]], bounds[viol[0]]
            x = x + (bd - r @ x) / (r @ r) * r
        else:
            R = np.array([rows[k] for k in viol])
            bb = np.array([bounds[k] for k in viol])
            lam = np.linalg.solve(R @ R.T, bb - R @ x)
            x = x + R.T @ lam
    return x


def projected_gradient(A, b, rows, bounds, tol=1e-11, max_iter=200000):
    """Accelerated projected gradient (with function-value restarts) for
    min 1/2 x'Ax - b'x over {rows @ x >= bounds}.

    The iteration identifies the active face; a terminal equality solve on
    that face (dense numpy) polishes the arithmetic.  The polished point
    is verified to be a fixed point of the projected-gradient map.
    """
    A = np.asarray(A)
    n = A.shape[0]
    L = np.linalg.eigvalsh(A).max()

    def f(v):
        return 0.5 * v @ (A @ v) - b @ v

    x = _project_two_halfspaces(np.zeros(n), rows, bounds)
    z, tk, fx = x.copy(), 1.0, f(x)
    for it in range(max_iter):
        y = _project_two_halfspaces(z - (A @ z - b) / L, rows, bounds)
        fy = f(y)
        if fy > fx + 1e-14 * (1 + abs(fx)):
            z, tk = x, 1.0
            y = _project_two_halfspaces(x - (A @ x - b) / L, rows, bounds)
            fy = f(y)
        t_new = 0.5 * (1 + np.sqrt(1 + 4 * tk * tk))
        z = y + (tk - 1) / t_new * (y - x)
        dx = np.linalg.norm(y - x, np.inf)
        x, fx, tk = y, fy, t_new
        if dx < 1e-10 * (1 + np.linalg.norm(x, np.inf)) and it > 50:
            break

    # terminal polish on the face the iteration settled on
    scale = 1 + np.linalg.norm(x, np.inf)
    act = [k for k in range(len(rows))
           if rows[k] @ x - bounds[k] < 1e-6 * scale]
    if act:
        R = np.array([rows[k] for k in act])
        k = len(act)
        K = np.block([[A, R.T], [R, np.zeros((k, k))]])
        sol = np.linalg.solve(K, np.concatenate([b, [bounds[kk] for kk in act]]))
        cand = sol[:n]
    else:
        cand = np.linalg.solve(A, b)
    fixed = _project_two_halfspaces(cand - (A @ cand - b) / L, rows, bounds)
    if np.linalg.norm(fixed - cand, np.inf) <= tol * scale:
        return cand
    return x


def exhaustive_box_solve(A, b, rows, lower, upper, tol=1e-9):
    """Try every per-element {lower, inactive, upper} pattern times the
    state-row status; return the unique candidate whose KKT checks pass.

    Row 0 of ``rows`` is the state row, bounded below by ``lower[0]``; the
    other rows are element rows with boxes ``[lower, upper]``.
    """
    import itertools

    A = np.asarray(A)
    R = np.asarray(rows.todense()) if hasattr(rows, "todense") else np.asarray(rows)
    state_row, state_bound = R[0], lower[0]
    R, lower, upper = R[1:], lower[1:], upper[1:]
    nt = R.shape[0]
    best = None
    for state_active in (False, True):
        for pattern in itertools.product((-1, 0, 1), repeat=nt):
            sel = []
            targets = []
            if state_active:
                sel.append(state_row)
                targets.append(state_bound)
            for t, p in enumerate(pattern):
                if p == -1:
                    sel.append(R[t])
                    targets.append(lower[t])
                elif p == 1:
                    sel.append(R[t])
                    targets.append(upper[t])
            k = len(sel)
            n = A.shape[0]
            K = np.zeros((n + k, n + k))
            K[:n, :n] = A
            rhs = np.concatenate([b, targets]) if k else b.copy()
            if k:
                S = np.array(sel)
                K[:n, n:] = S.T
                K[n:, :n] = S
                try:
                    sol = np.linalg.solve(K, rhs)
                except np.linalg.LinAlgError:
                    continue
                x, wmult = sol[:n], -sol[n:]
            else:
                x, wmult = np.linalg.solve(A, b), np.zeros(0)
            mu = 0.0
            off = 0
            if state_active:
                mu, off = wmult[0], 1
            lam = np.zeros(nt)
            j = off
            for t, p in enumerate(pattern):
                if p != 0:
                    lam[t] = wmult[j]
                    j += 1
            # KKT checks
            if mu < -tol:
                continue
            if any(p == -1 and lam[t] < -tol for t, p in enumerate(pattern)):
                continue
            if any(p == 1 and lam[t] > tol for t, p in enumerate(pattern)):
                continue
            vals = R @ x
            if not state_active and state_row @ x < state_bound - tol * max(1, abs(state_bound)):
                continue
            ok = True
            for t, p in enumerate(pattern):
                scale = tol * max(1.0, abs(lower[t]), abs(upper[t]))
                if p == 0 and not (lower[t] - scale <= vals[t] <= upper[t] + scale):
                    ok = False
                    break
            if not ok:
                continue
            cand = (x, mu, lam)
            if best is None:
                best = cand
            else:
                # strict convexity: any two certified candidates coincide
                if np.linalg.norm(best[0] - x, np.inf) > 1e-7:
                    raise AssertionError("two distinct certified candidates")
        if best is not None:
            break
    if best is None:
        raise AssertionError("no certified candidate in the enumeration")
    return best


# ---------------------------------------------------------------------
# analysis tools used only as checks
# ---------------------------------------------------------------------

def dof_index(dofmap):
    """(vertex, edge, bubble) global DOF arrays of shapes (nv,), (ne,) and
    (nt,), read off ``cell_dofs``; a pinned boundary vertex reads -1."""
    mesh = dofmap.mesh
    vertex = np.full(mesh.n_vertices, -1, dtype=np.int64)
    vertex[mesh.elements] = dofmap.cell_dofs[:, :3]
    edge = np.empty(mesh.n_edges, dtype=np.int64)
    edge[mesh.elem_edges] = dofmap.cell_dofs[:, 3:6]
    return vertex, edge, dofmap.cell_dofs[:, 6]


def interpolate(dofmap, value, gradient):
    """Coefficients of the interpolant I_h of a smooth field.

    Vertex DOFs take point values, edge DOFs the edge mean of the normal
    derivative, bubble DOFs the element average, so element averages and
    per-element integrals of the Laplacian of the interpolant match those
    of the input field.  ``value(x, y)`` must vanish on the boundary for
    constraint-set membership claims (boundary vertex DOFs are pinned).
    """
    mesh = dofmap.mesh
    coeffs = np.zeros(dofmap.n_dofs)
    vertex_dof, edge_dof, bubble_dof = dof_index(dofmap)

    interior = np.flatnonzero(vertex_dof >= 0)
    pv = mesh.vertices[interior]
    coeffs[vertex_dof[interior]] = value(pv[:, 0], pv[:, 1])

    rule = edge_rule(13)
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    g = np.asarray(gradient(pts[..., 0], pts[..., 1]))
    gn = np.einsum("eqx,ex->eq", g, mesh.edge_normals)
    coeffs[edge_dof] = gn @ rule.weights

    tri = triangle_rule(10)
    X = mesh.physical_points(tri.points)
    vals = value(X[..., 0], X[..., 1])
    coeffs[bubble_dof] = vals @ tri.weights
    return coeffs


def slater_margins(problem, n=64):
    """Margins of the strict/weak feasibility of a smooth candidate.

    Returns (state margin, control margin) for the first candidate among
    {exact state, exact state + positive bump} with a positive state
    margin; used to check that the integral-case data admit a Slater point.
    """
    if problem.case != "integral":
        raise ValueError("Slater check is defined for the integral case")
    if problem.exact is None:
        raise ValueError("no candidate available")
    x0, y0, x1, y1 = problem.domain
    gx, gw = np.polynomial.legendre.leggauss(n)
    xs = 0.5 * (x1 - x0) * (gx + 1) + x0
    ys = 0.5 * (y1 - y0) * (gx + 1) + y0
    W = 0.25 * (x1 - x0) * (y1 - y0) * np.outer(gw, gw)
    X, Y = np.meshgrid(xs, ys, indexing="ij")

    def bump_value(x, y):
        return (np.sin(np.pi * (x - x0) / (x1 - x0))
                * np.sin(np.pi * (y - y0) / (y1 - y0)))

    def bump_neg_lap(x, y):
        return (np.pi**2 / (x1 - x0) ** 2
                + np.pi**2 / (y1 - y0) ** 2) * bump_value(x, y)

    f_int = 0.0
    if problem.f is not None:
        f_int = float((W * problem.f(X, Y)).sum())

    def neg_lap_exact(x, y):
        h = problem.exact.hessian(x, y)
        return -(h[..., 0, 0] + h[..., 1, 1])

    for scale in (0.0, 1.0, 4.0):
        sm = float((W * (problem.exact.value(X, Y) + scale * bump_value(X, Y))).sum())
        cm = float((W * (neg_lap_exact(X, Y) + scale * bump_neg_lap(X, Y))).sum())
        state_margin = sm - problem.delta2
        control_margin = cm - (problem.delta1 + f_int)
        if state_margin > 0 and control_margin >= -1e-10:
            return state_margin, control_margin
    return state_margin, control_margin


def min_angle(mesh):
    """Smallest interior angle over all elements, in degrees."""
    p = mesh.vertices[mesh.elements]
    angles = []
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        na = np.hypot(a[:, 0], a[:, 1])
        nb = np.hypot(b[:, 0], b[:, 1])
        c = np.einsum("ij,ij->i", a, b) / (na * nb)
        angles.append(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))
    return float(np.min(angles))


def assert_conforming(mesh, lo, hi):
    """Assert that ``mesh`` conformingly covers the rectangle [lo, hi].

    ``lo`` and ``hi`` are corners (scalars for a square).  An edge with a
    single element must lie on one side of the rectangle (an edge that
    stops at a hanging node does not), and the element areas must sum to
    the rectangle's area; both to a relative 1e-12.
    """
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (2,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (2,))
    tol = 1e-12 * float(np.max(hi - lo))
    single = mesh.edge_elements[:, 1] < 0
    ends = mesh.vertices[mesh.edges[single]]             # (nb, 2, 2)
    on_side = np.zeros(len(ends), dtype=bool)
    for axis in (0, 1):
        for bound in (lo[axis], hi[axis]):
            on_side |= np.all(np.abs(ends[:, :, axis] - bound) <= tol, axis=1)
    if not np.all(on_side):
        bad = mesh.edges[single][~on_side]
        raise AssertionError(f"{len(bad)} single-element edges off the "
                             f"boundary, first {bad[0].tolist()}")
    area = float(np.prod(hi - lo))
    total = float(mesh.areas.sum())
    if abs(total - area) > 1e-12 * area:
        raise AssertionError(f"element areas sum to {total!r}, not {area!r}")


def edge_elements_loop(mesh):
    """``Mesh.edge_elements`` rebuilt with a per-entry Python loop: each
    edge's elements in the order (local edge, element id), then each
    interior pair ordered so the normal points from plus to minus."""
    nt = mesh.n_elements
    adj = np.full((mesh.n_edges, 2), -1, dtype=np.int64)
    slot = np.zeros(mesh.n_edges, dtype=np.int64)
    for gid, t in zip(mesh.elem_edges.T.ravel(), np.tile(np.arange(nt), 3)):
        adj[gid, slot[gid]] = t
        slot[gid] += 1
    centroids = mesh.vertices[mesh.elements].mean(axis=1)
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                  + mesh.vertices[mesh.edges[:, 1]])
    s0 = np.einsum("ij,ij->i", mesh.edge_normals, centroids[adj[:, 0]] - mids)
    swap = (adj[:, 1] >= 0) & (s0 > 0)
    adj[swap] = adj[swap][:, ::-1]
    return adj


def edges_lexicographic(mesh):
    """(edges, elem_edges) numbered by ``np.unique`` over the sorted
    endpoint pairs as rows, the reference for ``Mesh.edges`` and
    ``Mesh.elem_edges``."""
    el = mesh.elements
    pairs = np.concatenate([el[:, [1, 2]], el[:, [2, 0]], el[:, [0, 1]]])
    uniq, inverse = np.unique(np.sort(pairs, axis=1), axis=0,
                              return_inverse=True)
    return uniq, inverse.reshape(3, mesh.n_elements).T


def _ekey(a, b):
    return (a, b) if a < b else (b, a)


def bisect_recursive(mesh, marked):
    """Reference for ``bisect``: the same recursion (ascending marks,
    neighbor split before the element, children ``[a, m, p]`` with
    refinement edge 1 and ``[m, b, p]`` with 0), with neighbors found in a
    dict from sorted vertex pairs to the sets of elements on that edge."""
    marked = sorted(set(int(t) for t in marked))
    if not marked:
        return mesh
    if marked[0] < 0 or marked[-1] >= mesh.n_elements:
        raise mesh_module.MeshError("marked ids out of range")

    verts = [tuple(v) for v in mesh.vertices]
    tris = [list(t) for t in mesh.elements]
    ref = list(mesh.refinement_edge)
    origin = list(range(len(tris)))
    alive = [True] * len(tris)
    edge2elems = {}
    for t, tri in enumerate(tris):
        for k in range(3):
            key = _ekey(tri[(k + 1) % 3], tri[(k + 2) % 3])
            edge2elems.setdefault(key, set()).add(t)
    midpoints = {}

    def ref_key(t):
        k = ref[t]
        return _ekey(tris[t][(k + 1) % 3], tris[t][(k + 2) % 3])

    def neighbor_across(t, key):
        others = edge2elems.get(key, set()) - {t}
        return next(iter(others)) if others else None

    def midpoint(key):
        m = midpoints.get(key)
        if m is None:
            a, b = key
            verts.append(((verts[a][0] + verts[b][0]) / 2.0,
                          (verts[a][1] + verts[b][1]) / 2.0))
            m = len(verts) - 1
            midpoints[key] = m
        return m

    def split(t, m):
        k = ref[t]
        a = tris[t][(k + 1) % 3]
        b = tris[t][(k + 2) % 3]
        p = tris[t][k]
        alive[t] = False
        for kk in range(3):
            key = _ekey(tris[t][(kk + 1) % 3], tris[t][(kk + 2) % 3])
            edge2elems[key].discard(t)
        for child, rloc in (([a, m, p], 1), ([m, b, p], 0)):
            tris.append(child)
            ref.append(rloc)
            origin.append(origin[t])
            alive.append(True)
            tid = len(tris) - 1
            for kk in range(3):
                key = _ekey(child[(kk + 1) % 3], child[(kk + 2) % 3])
                edge2elems.setdefault(key, set()).add(tid)

    def refine(t, depth):
        if depth > mesh_module.CLOSURE_DEPTH_CAP:
            raise mesh_module.MeshError("closure recursion exceeded depth cap")
        if not alive[t]:
            return
        while True:
            if not alive[t]:
                return
            key = ref_key(t)
            nb = neighbor_across(t, key)
            if nb is None or ref_key(nb) == key:
                break
            refine(nb, depth + 1)
        m = midpoint(key)
        if nb is not None:
            split(nb, m)
        split(t, m)

    for t in marked:
        if alive[t]:
            refine(t, 0)

    keep = [t for t in range(len(tris)) if alive[t]]
    return mesh_module.Mesh(np.array(verts, dtype=float),
                            np.array([tris[t] for t in keep], dtype=np.int64),
                            np.array([ref[t] for t in keep], dtype=np.int64),
                            [origin[t] for t in keep])
