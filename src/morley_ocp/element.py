"""Local finite element machinery for the bubble-enriched Morley space.

On every triangle the local space is P2 plus the cubic bubble
``b_T = 60 l1 l2 l3`` (barycentric coordinates ``l_i``).  The seven local
degrees of freedom are

* the three vertex values,
* the three edge means of the normal derivative (signed by the global
  edge normal), and
* the element average ``Q_T(w) = (1/|T|) int_T w``.

Because the bubble has nonzero edge-mean normal derivatives, the nodal
basis comes from inverting the full 7x7 matrix of DOF functionals applied
to a primitive monomial basis; vertex and edge DOFs are shared between
neighbors, so vertex values and edge means of the normal derivative are
single-valued across the mesh.  Boundary vertex values are pinned to zero;
boundary edge and bubble DOFs stay free.

All evaluation routines are vectorized over elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .mesh import Mesh

N_LOCAL = 7

# exponent triples (powers of l0, l1, l2) of the primitive basis
_PRIM_EXP = np.array([
    (2, 0, 0), (0, 2, 0), (0, 0, 2),
    (1, 1, 0), (0, 1, 1), (1, 0, 1),
    (1, 1, 1),
], dtype=np.int64)

# local edge k is opposite vertex k; its endpoints in local numbering
_EDGE_VERTS = ((1, 2), (2, 0), (0, 1))


class ElementError(Exception):
    pass


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Positive rule with weights summing to one (scale by |T| or h_e)."""

    points: np.ndarray       # (n, 3) barycentric or (n,) in [0, 1]
    weights: np.ndarray      # (n,), sum 1


@lru_cache(maxsize=None)
def edge_rule(exact_degree):
    """Gauss-Legendre rule on [0, 1], exact for polynomials of the given
    degree."""
    if exact_degree > 21:
        raise ElementError(f"unsupported edge quadrature degree {exact_degree}")
    n = max(1, (exact_degree + 2) // 2)
    x, w = np.polynomial.legendre.leggauss(n)
    pts = 0.5 * (x + 1.0)
    wts = 0.5 * w
    return QuadratureRule(pts, wts)


@lru_cache(maxsize=None)
def triangle_rule(exact_degree):
    """Positive triangle rule, exact to ``exact_degree`` <= 10.

    The collapsed (Duffy) tensor Gauss rule with ``m = (degree + 3) // 2``
    points per direction: 16, 25 and 36 points for degrees 6, 8 and 10.
    It is not symmetric under vertex permutations; weights stay positive
    and sum to one.
    """
    if exact_degree > 10:
        raise ElementError(f"unsupported triangle quadrature degree {exact_degree}")
    m = max(1, (exact_degree + 3) // 2)
    x, w = np.polynomial.legendre.leggauss(m)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    xi = uu.ravel()
    eta = (vv * (1.0 - uu)).ravel()
    pts = np.stack([1.0 - xi - eta, xi, eta], axis=1)
    wts = 2.0 * np.outer(wu * (1.0 - u), wu).ravel()  # reference area 1/2
    return QuadratureRule(pts, wts)


# ----------------------------------------------------------------------
# primitive basis in barycentric coordinates
# ----------------------------------------------------------------------

def prim_values(lam):
    """Primitive values; ``lam`` is (..., 3), result (..., 7)."""
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    return np.stack([l0 * l0, l1 * l1, l2 * l2,
                     l0 * l1, l1 * l2, l2 * l0,
                     l0 * l1 * l2], axis=-1)


def prim_dlam(lam):
    """d(prim)/d(lam_k); result (..., 7, 3)."""
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    z = np.zeros_like(l0)
    rows = [
        (2 * l0, z, z),
        (z, 2 * l1, z),
        (z, z, 2 * l2),
        (l1, l0, z),
        (z, l2, l1),
        (l2, z, l0),
        (l1 * l2, l0 * l2, l0 * l1),
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def prim_d2lam(lam):
    """d2(prim)/d(lam_k)d(lam_l); result (..., 7, 3, 3)."""
    l0, l1, l2 = lam[..., 0], lam[..., 1], lam[..., 2]
    out = np.zeros(lam.shape[:-1] + (7, 3, 3))
    out[..., 0, 0, 0] = 2.0
    out[..., 1, 1, 1] = 2.0
    out[..., 2, 2, 2] = 2.0
    out[..., 3, 0, 1] = out[..., 3, 1, 0] = 1.0
    out[..., 4, 1, 2] = out[..., 4, 2, 1] = 1.0
    out[..., 5, 0, 2] = out[..., 5, 2, 0] = 1.0
    out[..., 6, 0, 1] = out[..., 6, 1, 0] = l2
    out[..., 6, 1, 2] = out[..., 6, 2, 1] = l0
    out[..., 6, 0, 2] = out[..., 6, 2, 0] = l1
    return out


def bary_monomial_integral(exponents):
    """Exact value of int_T l0^a l1^b l2^c dx divided by |T| (factorial
    formula)."""
    a, b, c = (int(e) for e in exponents)
    return 2.0 * factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 2)


# element averages Q_T of the primitives
_PRIM_QT = np.array([bary_monomial_integral(e) for e in _PRIM_EXP])

# exact mass Gram of the primitives, as a multiple of |T|
_PRIM_MASS = np.array([[bary_monomial_integral(_PRIM_EXP[i] + _PRIM_EXP[j])
                        for j in range(N_LOCAL)] for i in range(N_LOCAL)])


def _edge_bary(k, s):
    """Barycentric points on local edge k at parameters ``s`` in [0, 1]."""
    lam = np.zeros(s.shape + (3,))
    lam[..., (k + 1) % 3] = 1.0 - s
    lam[..., (k + 2) % 3] = s
    return lam


@lru_cache(maxsize=None)
def _edge_mean_dlam():
    """E[k, j, m]: edge-k mean of d(prim_j)/d(lam_m) (exact for the local
    space; the integrands are at most quadratic along an edge)."""
    rule = edge_rule(5)
    E = np.empty((3, N_LOCAL, 3))
    for k in range(3):
        d = prim_dlam(_edge_bary(k, rule.points))    # (n, 7, 3)
        E[k] = np.einsum("q,qjm->jm", rule.weights, d)
    return E


# ----------------------------------------------------------------------
# DOF map and nodal basis
# ----------------------------------------------------------------------

class DofMap:
    """Global DOF numbering and per-element nodal bases.

    Layout: interior-vertex DOFs first (ascending vertex id), then one DOF
    per edge (ascending edge id), then one per element.  ``cell_dofs`` maps
    each element to its 7 global DOFs with -1 for pinned boundary-vertex
    slots.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        nv, ne, nt = mesh.n_vertices, mesh.n_edges, mesh.n_elements

        interior = np.flatnonzero(~mesh.vertex_on_boundary)
        self.vertex_dof = np.full(nv, -1, dtype=np.int64)
        self.vertex_dof[interior] = np.arange(len(interior))
        nvi = len(interior)
        self.edge_dof = nvi + np.arange(ne)
        self.bubble_dof = nvi + ne + np.arange(nt)
        self.n_dofs = nvi + ne + nt

        self.cell_dofs = np.empty((nt, N_LOCAL), dtype=np.int64)
        self.cell_dofs[:, :3] = self.vertex_dof[mesh.elements]
        self.cell_dofs[:, 3:6] = self.edge_dof[mesh.elem_edges]
        self.cell_dofs[:, 6] = self.bubble_dof

        try:
            self.C = np.linalg.inv(self._dof_matrices())
        except np.linalg.LinAlgError as exc:
            raise ElementError("singular local DOF system (degenerate "
                               "triangle)") from exc

    def _dof_matrices(self):
        mesh = self.mesh
        nt = mesh.n_elements
        D = np.zeros((nt, N_LOCAL, N_LOCAL))
        # vertex values: prim_j at vertex i
        vert_lam = np.eye(3)
        D[:, :3, :] = prim_values(vert_lam)[None, :, :]
        # edge means of the normal derivative, signed by the global normal
        E = _edge_mean_dlam()
        G = mesh.grad_lambda                                   # (nt, 3, 2)
        N = mesh.edge_normals[mesh.elem_edges]                 # (nt, 3, 2)
        GN = np.einsum("tmx,tkx->tkm", G, N)
        D[:, 3:6, :] = np.einsum("kjm,tkm->tkj", E, GN)
        # element average
        D[:, 6, :] = _PRIM_QT[None, :]
        return D

    # -- coefficient gathering -------------------------------------------

    def prim_coefficients(self, u):
        """(nt, 7) coefficients of the discrete function in the primitive
        basis on each element; pinned slots contribute zero."""
        padded = np.concatenate([np.asarray(u, dtype=float), [0.0]])
        local = padded[np.where(self.cell_dofs >= 0, self.cell_dofs, self.n_dofs)]
        return np.einsum("tij,tj->ti", self.C, local)

    # -- evaluation -------------------------------------------------------

    def eval_function(self, u, bary):
        """Evaluate (value, gradient, hessian) of a coefficient vector at
        barycentric points ``bary`` (q, 3) shared by all elements; the
        results are (nt, q), (nt, q, 2), (nt, q, 2, 2).
        """
        a = self.prim_coefficients(u)
        G = self.mesh.grad_lambda
        bary = np.asarray(bary, dtype=float)
        # contract the coefficients first, on the barycentric derivatives;
        # only the small results meet the element gradients G
        val, gl, hl = (np.tensordot(a, X, axes=(1, 1)) for X in
                       (prim_values(bary), prim_dlam(bary), prim_d2lam(bary)))
        grad = gl @ G
        Gq = G[:, None]
        hess = np.swapaxes(Gq, 2, 3) @ hl @ Gq
        return val, grad, hess

    def grad_laplacian(self, u):
        """(nt, 2) gradient of the element-wise Laplacian (constant per
        element; only the bubble contributes)."""
        a = self.prim_coefficients(u)
        return a[:, 6, None] * _bubble_grad_laplacian(self.mesh.grad_lambda)


def _bubble_grad_laplacian(G):
    """grad(Delta(l0 l1 l2)) as a constant per element; G is (nt, 3, 2)."""
    d01 = np.einsum("tx,tx->t", G[:, 0], G[:, 1])
    d12 = np.einsum("tx,tx->t", G[:, 1], G[:, 2])
    d20 = np.einsum("tx,tx->t", G[:, 2], G[:, 0])
    return 2.0 * (d01[:, None] * G[:, 2] + d12[:, None] * G[:, 0]
                  + d20[:, None] * G[:, 1])


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------

def integrate(mesh: Mesh, fn, degree=10):
    """int_Omega fn(x, y) dx by an exact-degree triangle rule per element."""
    rule = triangle_rule(degree)
    X = mesh.physical_points(rule.points)
    vals = np.asarray(fn(X[..., 0], X[..., 1]))
    return float(mesh.areas @ (vals @ rule.weights))
