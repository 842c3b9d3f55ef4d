"""Local finite element machinery for the bubble-enriched Morley space.

On every triangle the local space is P2 plus the cubic bubble
``b_T = 60 l1 l2 l3`` (barycentric coordinates ``l_i``).  The seven local
degrees of freedom are

* the three vertex values,
* the three edge means of the normal derivative (signed by the global
  edge normal), and
* the element average ``Q_T(w) = (1/|T|) int_T w``.

The vertex and average functionals are the same on every element, and
the edge-k mean of the normal derivative of ``p`` is
``g_k R_k(p) + s_k (p(v_{k+1}) - p(v_{k+2}))`` with ``R_k`` a fixed edge
mean in lam and ``g_k``, ``s_k`` geometric, so the nodal basis is one
reference inverse times a sparse per-element transform (Kirby, SMAI J.
Comput. Math. 4, 2018).  Vertex and edge DOFs are shared between
neighbors, so vertex values and edge means of the normal derivative are
single-valued across the mesh.  Boundary vertex values are pinned to zero;
boundary edge and bubble DOFs stay free.

The exponent table ``_PRIM_EXP`` of the seven primitive monomials is the
only description of the local basis: their lam-derivatives, element
averages, mass and Hessian Grams and Laplacian kernels all derive from it.

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


# the one rule at which the load, the box bounds and the interior residual
# read the problem data
DATA_RULE = triangle_rule(6)


def sample(fn, X):
    """``fn(x, y)`` at physical points ``X`` (..., 2) as a float array of
    shape ``X.shape[:-1]``; a constant result is broadcast."""
    vals = np.asarray(fn(X[..., 0], X[..., 1]), dtype=float)
    return vals if vals.shape == X.shape[:-1] else np.full(X.shape[:-1], vals)


# ----------------------------------------------------------------------
# primitive basis in barycentric coordinates
# ----------------------------------------------------------------------

def _derivative_tables():
    """(exponents, coefficients) of the primitives and of their first and
    second lam-derivatives, shaped (7, 3), (7, 3, 3), (7, 3, 3, 3) and
    (7,), (7, 3), (7, 3, 3).  d/dl_m brings down the power of l_m; an
    exponent clipped at 0 always carries a zero coefficient."""
    exp, coef = _PRIM_EXP, np.ones(N_LOCAL)
    tables = [(exp, coef)]
    for _ in range(2):
        coef = coef[..., None] * exp
        exp = np.maximum(exp[..., None, :] - np.eye(3, dtype=np.int64), 0)
        tables.append((exp, coef))
    return tables


_PRIM_TABLES = _derivative_tables()


def _monomials(lam, order):
    """Primitive derivatives of the given order at ``lam`` (..., 3)."""
    exp, coef = _PRIM_TABLES[order]
    lam = np.asarray(lam, dtype=float)
    lam = lam.reshape(lam.shape[:-1] + (1,) * (exp.ndim - 1) + (3,))
    out = coef * np.ones(lam.shape[:-1])
    # repeated products rather than powers: each monomial is rounded as its
    # hand-written product l0 * l1 * l2 would be
    for p in range(1, exp.max() + 1):
        out = out * np.prod(np.where(exp >= p, lam, 1.0), axis=-1)
    return out


def prim_values(lam):
    """Primitive values; ``lam`` is (..., 3), result (..., 7)."""
    return _monomials(lam, 0)


def prim_dlam(lam):
    """d(prim)/d(lam_k); result (..., 7, 3)."""
    return _monomials(lam, 1)


def prim_d2lam(lam):
    """d2(prim)/d(lam_k)d(lam_l); result (..., 7, 3, 3)."""
    return _monomials(lam, 2)


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


def _hessian_gram_table():
    """(49, 81) element averages of H_i[a, b] H_j[c, d] over the primitive
    lam-Hessians H, stored at column (b, c, d, a) so that the product with
    M[b, c] M[d, a] sums to tr(H_i M H_j M).  The Hessians are affine in
    lam, so the degree-2 rule is exact."""
    rule = triangle_rule(2)
    H = prim_d2lam(rule.points)                            # (q, 7, 3, 3)
    table = np.einsum("q,qiab,qjcd->ijbcda", rule.weights, H, H)
    return table.reshape(N_LOCAL * N_LOCAL, 81)


_HESS_GRAM = _hessian_gram_table()


def prim_stiffness(G, beta):
    """beta * (Hessian Gram) + mass of the primitives divided by |T|, for
    elements with barycentric gradients ``G`` (nt, 3, 2); the physical
    Hessian of a primitive is G' H G, so its Gram is tr(H_i M H_j M) with
    M = G G'."""
    M = G @ np.swapaxes(G, 1, 2)
    MM = (M.reshape(-1, 9, 1) * M.reshape(-1, 1, 9)).reshape(-1, 81)
    return beta * (MM @ _HESS_GRAM.T).reshape(-1, N_LOCAL, N_LOCAL) + _PRIM_MASS


def prim_laplacian_moments(G, fw, bary):
    """(nt, 7) sums ``sum_q fw[t, q] * Delta(prim_j)(bary[q])`` with
    ``Delta(prim_j) = prim_d2lam : G G'``."""
    D2 = prim_d2lam(bary).reshape(len(bary), N_LOCAL * 9)
    lap = (fw @ D2).reshape(-1, N_LOCAL, 9)
    M = G @ np.swapaxes(G, 1, 2)
    return np.einsum("tjm,tm->tj", lap, M.reshape(-1, 9))


def _edge_bary(k, s):
    """Barycentric points on local edge k at parameters ``s`` in [0, 1]."""
    lam = np.zeros(s.shape + (3,))
    lam[..., (k + 1) % 3] = 1.0 - s
    lam[..., (k + 2) % 3] = s
    return lam


def _edge_mean_dlam():
    """E[k, j, m]: edge-k mean of d(prim_j)/d(lam_m) (exact for the local
    space; the integrands are at most quadratic along an edge)."""
    rule = edge_rule(2)
    E = np.empty((3, N_LOCAL, 3))
    for k in range(3):
        d = prim_dlam(_edge_bary(k, rule.points))    # (n, 7, 3)
        E[k] = np.einsum("q,qjm->jm", rule.weights, d)
    return E


# nodal basis of the DOF rows shared by every element: vertex values, the
# edge-k means R_k of (d_k - d_{k+1} / 2 - d_{k+2} / 2) and the average
_C_REF = np.linalg.inv(np.vstack([
    prim_values(np.eye(3)),
    np.einsum("kjm,km->kj", _edge_mean_dlam(), 1.5 * np.eye(3) - 0.5),
    _PRIM_QT]))


# ----------------------------------------------------------------------
# DOF map and nodal basis
# ----------------------------------------------------------------------

class DofMap:
    """Global DOF numbering and per-element nodal bases.

    Layout: interior-vertex DOFs first (ascending vertex id), then one DOF
    per edge (ascending edge id), then one per element.  ``cell_dofs`` maps
    each element to its 7 global DOFs with -1 for pinned boundary-vertex
    slots.  ``points`` (nt, 16, 2) are the physical ``DATA_RULE`` points.
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

        # with GN[t, k, m] = grad(lam_m) . n_k summing to zero over m, the
        # edge-k row is g_k R_k + s_k (vertex k+1 row - vertex k+2 row)
        GN = np.einsum("tmx,tkx->tkm", mesh.grad_lambda,
                       mesh.edge_normals[mesh.elem_edges])
        k, k1, k2 = np.arange(3), [1, 2, 0], [2, 0, 1]
        g = GN[:, k, k]
        s = 0.5 * (GN[:, k, k1] - GN[:, k, k2])
        Minv = np.tile(np.eye(N_LOCAL), (nt, 1, 1))
        Minv[:, k + 3, k + 3] = 1.0 / g
        Minv[:, k + 3, k1], Minv[:, k + 3, k2] = -s / g, s / g
        self.C = _C_REF @ Minv
        self.points = mesh.physical_points(DATA_RULE.points)

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


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------

def integrate(mesh: Mesh, fn):
    """int_Omega fn(x, y) dx by the degree-10 triangle rule per element."""
    rule = triangle_rule(10)
    vals = sample(fn, mesh.physical_points(rule.points))
    return float(mesh.areas @ (vals @ rule.weights))
