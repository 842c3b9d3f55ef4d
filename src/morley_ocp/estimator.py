"""Residual a posteriori error estimator and true-error evaluation.

Five contributions: two element terms (interior residual, multiplier term)
and three interior-edge jump terms (normal derivative, second normal
derivative, normal derivative of the Laplacian).  ``estimate`` stores them
in one per-element table ``eta_sq``: row ``i - 1`` holds ``eta_i^2`` on
each element, the edge terms as half of each interior edge's value, so the
row sums are the totals ``eta_i^2`` and the column sums are the marking
indicators; ``eta^2 = eta1^2 + ... + eta5^2``.

With a nonzero source the interior residual is
``y_d + mu - y_h - beta * Delta f`` (the piecewise bi-Laplacian of the
discrete space vanishes identically).  The residual and the data
oscillation read ``y_d`` as the caller sampled it at ``DofMap.points``, and
``Delta f`` at the same points.  Data oscillation is computed and reported
but never added to the total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .element import (DATA_RULE, DofMap, _edge_bary, edge_rule, prim_values,
                      sample, triangle_rule)

EDGE_RULE_DEGREE = 5          # Gauss-3: exact for every jump integrand
ERROR_RULE_DEGREE = 8


@dataclass
class EstimatorBreakdown:
    """Per-element estimator table (all squared)."""

    eta_sq: np.ndarray               # (5, nt): row i - 1 holds eta_i^2
    element_indicators: np.ndarray   # eta_T^2, the column sums of eta_sq
    osc_elem: np.ndarray             # h_T^2 ||y_d - mean(y_d)||_T, reported only


@dataclass
class ErrorReport:
    """Errors against a closed-form reference in the mesh-dependent norm."""

    energy_error: float
    l2_error: float
    h2_broken_seminorm_error: float


def eta_interior(dofmap: DofMap, y, mu, lam_elem, problem, yd):
    """Element terms: interior residual eta1 and multiplier term eta5;
    ``yd`` is ``y_d`` sampled at ``dofmap.points``."""
    mesh = dofmap.mesh
    beta = problem.beta
    yh = dofmap.prim_coefficients(y) @ prim_values(DATA_RULE.points).T
    resid = yd + mu - yh
    if problem.f_laplacian is not None:
        resid = resid - beta * sample(problem.f_laplacian, dofmap.points)
    h = mesh.h_elements
    norm_sq = mesh.areas * ((resid**2) @ DATA_RULE.weights)
    eta1_sq = h**4 / beta * norm_sq
    # multiplier term with ||lambda_h||_{L2(T)}^2 = lambda_T^2 |T| (the
    # quantity the local lower bound controls); a plain |lambda_T|^2 would
    # freeze the total once a positive-measure control set is active
    eta5_sq = h**2 / beta * np.asarray(lam_elem)**2 * mesh.areas
    return eta1_sq, eta5_sq


def eta_edges(dofmap: DofMap, y, beta):
    """Interior-edge jump terms eta2 (dw/dn), eta3 (d2w/dn2), eta4
    (d(Delta w)/dn); boundary edges contribute nothing."""
    mesh = dofmap.mesh
    ne = mesh.n_edges
    eta2 = np.zeros(ne)
    eta3 = np.zeros(ne)
    eta4 = np.zeros(ne)
    ids = np.flatnonzero(mesh.interior_edges)

    # y_h on the Gauss points of every element's three local edges
    rule = edge_rule(EDGE_RULE_DEGREE)
    nq = len(rule.points)
    bary = np.concatenate([_edge_bary(k, rule.points) for k in range(3)])
    _, grad, hess = dofmap.eval_function(y, bary)
    grad = grad.reshape(mesh.n_elements, 3, nq, 2)
    hess = hess.reshape(mesh.n_elements, 3, nq, 2, 2)
    # Delta y_h is affine per element: the symmetric rule's edge mean is its
    # value at edge midpoint k, and grad f = -2 sum_k f(m_k) grad(lam_k)
    lap_mid = np.einsum("tkqxx,q->tk", hess, rule.weights)
    grad_lap = -2.0 * np.einsum("tk,tkx->tx", lap_mid, mesh.grad_lambda)

    def trace(side, q):
        # local edge k of t runs from its vertex (k+1)%3 to (k+2)%3
        t = mesh.edge_elements[ids, side]
        k = np.argmax(mesh.elem_edges[t] == ids[:, None], axis=1)
        tq, kq = t[:, None], k[:, None]
        return grad[tq, kq, q], hess[tq, kq, q], grad_lap[t]

    # two counter-clockwise neighbours run their shared edge in opposite
    # directions, so the minus side reads its points backwards (the Gauss
    # rule is symmetric about 1/2)
    grad_p, hess_p, gl_p = trace(0, np.arange(nq))
    grad_m, hess_m, gl_m = trace(1, np.arange(nq)[::-1])
    n = mesh.edge_normals[ids]
    h = mesh.edge_lengths[ids]

    # ||jump||^2_{L2(e)} = h_e * sum(w * jump^2); the h_e weights of the
    # three terms are h_e^{-1}, h_e and h_e^3
    jn = np.einsum("eqx,ex->eq", grad_p - grad_m, n)
    eta2[ids] = beta * ((jn**2) @ rule.weights)
    jnn = np.einsum("ex,eqxy,ey->eq", n, hess_p - hess_m, n)
    eta3[ids] = beta * h**2 * ((jnn**2) @ rule.weights)
    jlap = np.einsum("ex,ex->e", gl_p - gl_m, n)
    eta4[ids] = beta * h**4 * jlap**2
    return eta2, eta3, eta4


def data_oscillation(mesh, yd):
    """Osc(y_d; T) = h_T^2 || y_d - mean_T(y_d) ||_{L2(T)} per element;
    ``yd`` is ``y_d`` at the ``DATA_RULE`` points."""
    w = DATA_RULE.weights
    mean = yd @ w
    fluct_sq = mesh.areas * (((yd - mean[:, None])**2) @ w)
    return mesh.h_elements**2 * np.sqrt(fluct_sq)


def estimate(dofmap: DofMap, solution, problem, yd):
    """Assemble the full EstimatorBreakdown for a certified solution;
    ``yd`` is ``y_d`` sampled at ``dofmap.points``."""
    mesh = dofmap.mesh
    # the integral case's one control multiplier serves every element
    lam_elem = np.broadcast_to(np.asarray(solution.lam, dtype=float),
                               (mesh.n_elements,))
    eta_sq = np.empty((5, mesh.n_elements))
    eta_sq[0], eta_sq[4] = eta_interior(dofmap, solution.coefficients,
                                        solution.mu, lam_elem, problem, yd)
    # eta_edges is zero on boundary edges, so each element takes half of
    # every one of its edges
    edges = np.stack(eta_edges(dofmap, solution.coefficients, problem.beta))
    eta_sq[1:4] = 0.5 * edges[:, mesh.elem_edges].sum(axis=2)
    return EstimatorBreakdown(eta_sq, eta_sq.sum(axis=0),
                              data_oscillation(mesh, yd))


def broken_norms(dofmap: DofMap, y, exact):
    """(L2, broken-H2 seminorm) of (exact - y) by degree-8 quadrature."""
    mesh = dofmap.mesh
    rule = triangle_rule(ERROR_RULE_DEGREE)
    X = mesh.physical_points(rule.points)
    val, _, hess = dofmap.eval_function(y, rule.points)
    dv = exact.value(X[..., 0], X[..., 1]) - val
    dh = exact.hessian(X[..., 0], X[..., 1]) - hess
    l2_sq = float(mesh.areas @ ((dv**2) @ rule.weights))
    h2_sq = float(mesh.areas @ (np.einsum("tqxy,tqxy->tq", dh, dh) @ rule.weights))
    return float(np.sqrt(l2_sq)), float(np.sqrt(h2_sq))


def true_error(dofmap: DofMap, y, exact, beta):
    """ErrorReport in the discrete norm."""
    l2, h2 = broken_norms(dofmap, y, exact)
    energy = float(np.sqrt(beta * h2**2 + l2**2))
    return ErrorReport(energy, l2, h2)
