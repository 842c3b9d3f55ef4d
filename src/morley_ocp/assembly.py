"""Global assembly: bilinear form, load functional, constraint rows.

The bilinear form is ``beta * (broken Hessian Gram) + mass``; the load is
``int y_d w - beta * int f (Delta_h w)``.  Boundary-pinned vertex DOFs are
eliminated (they never receive a global index).

The element matrices and the load are formed in the primitive basis of
``element.py`` and mapped to the nodal basis by each element's ``C``:
``prim_stiffness`` gives the exact Hessian Gram (from a table of element
averages of products of the primitive barycentric Hessians) plus the exact
mass Gram, and ``prim_laplacian_moments`` gives the Laplacians of the
primitives for the source term.  The load reads ``y_d`` (sampled once per
level by the caller) and ``f`` at the ``DATA_RULE`` points ``DofMap.points``.
The element matrices are formed in chunks and summed once as ``S' B S``:
``B`` is their block diagonal and ``S`` selects the global DOF of every
element slot that has one, both CSR with int32 indices.  The product
stores no exact zeros.

Constraint rows are exact as well: ``int_T w = |T| * Q_T(w)`` touches only
the element-average DOF, and ``int_T Delta w = sum_e sign * h_e * (edge
mean of dw/dn)`` by the divergence theorem touches only edge DOFs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .element import (DATA_RULE, DofMap, N_LOCAL, integrate,
                      prim_laplacian_moments, prim_stiffness, prim_values,
                      sample)

_CHUNK = 8192


class AssemblyError(Exception):
    pass


@dataclass
class ConstraintSet:
    """Linear constraints ``lower <= rows @ w <= upper`` of the discrete
    problem; every row is an exact integral of the basis functions.

    Row 0 is the state row ``w -> int_Omega w``, bounded below by delta2
    ("integral" case) or delta3 ("box" case) and not above.  The integral
    case adds the row ``w -> int_Omega(-Delta_h w)``, bounded below by
    ``delta1 + int_Omega f``; the box case adds one row
    ``w -> int_T(-Delta w)`` per element T, between ``int_T u_a`` and
    ``int_T u_b``.  ``sizes`` is each row's domain measure, |Omega| or |T|,
    which turns row values into averages.
    """

    rows: sp.csr_matrix
    lower: np.ndarray
    upper: np.ndarray
    sizes: np.ndarray


def assemble_system(dofmap: DofMap, problem, yd):
    """Assemble (csr system matrix, load vector) for a ProblemSpec; ``yd``
    is ``y_d`` sampled at ``dofmap.points``."""
    mesh = dofmap.mesh
    n = dofmap.n_dofs
    beta = problem.beta
    w = DATA_RULE.weights
    P = prim_values(DATA_RULE.points)         # (q, 7)
    fv = None if problem.f is None else sample(problem.f, dofmap.points)

    nt = mesh.n_elements
    blocks = np.empty((nt, N_LOCAL, N_LOCAL))
    loads = np.empty((nt, N_LOCAL))
    for start in range(0, nt, _CHUNK):
        sl = slice(start, min(start + _CHUNK, nt))
        C, G, area = dofmap.C[sl], mesh.grad_lambda[sl], mesh.areas[sl]
        K = np.swapaxes(C, 1, 2) @ prim_stiffness(G, beta) @ C
        K *= area[:, None, None]
        blocks[sl] = 0.5 * (K + np.swapaxes(K, 1, 2))

        # load: int y_d phi - beta int f Delta(phi), integrated against the
        # primitives first and mapped to the nodal basis by C once
        load = (yd[sl] * w) @ P
        if fv is not None and np.any(fv[sl]):
            load -= beta * prim_laplacian_moments(G, fv[sl] * w,
                                                  DATA_RULE.points)
        loads[sl] = np.einsum("tai,ta->ti", C, load) * area[:, None]

    # A = S' B S: B is the block diagonal of the element matrices, and row
    # 7t + a of S selects the global DOF of element t's slot a (an empty
    # row for a pinned vertex); b = S' (element loads)
    slots = dofmap.cell_dofs.ravel()
    kept = slots >= 0
    b = np.bincount(slots[kept], weights=loads.ravel()[kept], minlength=n)
    S = sp.csr_matrix(
        (np.ones(np.count_nonzero(kept)), slots[kept].astype(np.int32),
         np.r_[0, np.cumsum(kept, dtype=np.int32)]), shape=(slots.size, n))
    local = np.arange(slots.size, dtype=np.int32).reshape(nt, 1, N_LOCAL)
    B = sp.csr_matrix(
        (blocks.reshape(-1), np.broadcast_to(local, blocks.shape).ravel(),
         np.arange(0, blocks.size + 1, N_LOCAL, dtype=np.int32)),
        shape=(slots.size, slots.size))
    BS = B @ S
    del blocks, B                # freed before the product: a lower peak
    # S' as CSR keeps the product in CSR; the product drops exact zeros and
    # leaves views into buffers sized for the structural nonzeros, so the
    # copy keeps only arrays of the matrix's own size alive
    A = S.T.tocsr() @ BS
    A.sort_indices()
    return A.copy(), b


def element_laplacian_rows(dofmap: DofMap):
    """csr matrix of the exact functionals w -> int_T (-Delta w).

    By the divergence theorem the row for T carries -sign * h_e on each of
    its edge DOFs, where sign is +1 when the global edge normal is outward
    for T.
    """
    mesh = dofmap.mesh
    nt = mesh.n_elements
    gids = mesh.elem_edges                       # (nt, 3)
    sign = np.where(mesh.edge_elements[gids, 0] == np.arange(nt)[:, None], 1.0, -1.0)
    data = -(sign * mesh.edge_lengths[gids]).ravel()
    rows = np.repeat(np.arange(nt), 3)
    cols = dofmap.edge_dof[gids].ravel()
    return sp.csr_matrix((data, (rows, cols)), shape=(nt, dofmap.n_dofs))


def assemble_constraints(dofmap: DofMap, problem):
    """Assemble the ConstraintSet for a ProblemSpec."""
    mesh = dofmap.mesh
    state_row = np.zeros(dofmap.n_dofs)
    state_row[dofmap.bubble_dof] = mesh.areas
    laplacians = element_laplacian_rows(dofmap)
    omega = float(mesh.areas.sum())

    if problem.case == "integral":
        f_int = 0.0
        if problem.f is not None:
            f_int = integrate(mesh, problem.f)
            if not np.isfinite(f_int):
                raise AssemblyError(f"source integral is not finite: {f_int}")
        control = laplacians.sum(axis=0)
        lower = np.array([problem.delta2, problem.delta1 + f_int])
        upper = np.full(2, np.inf)
        sizes = np.full(2, omega)
    elif problem.case == "box":
        control = laplacians
        box_lo = mesh.areas * (sample(problem.u_a, dofmap.points)
                               @ DATA_RULE.weights)
        box_up = mesh.areas * (sample(problem.u_b, dofmap.points)
                               @ DATA_RULE.weights)
        if not (np.all(np.isfinite(box_lo)) and np.all(np.isfinite(box_up))):
            raise AssemblyError("element with a non-finite Q_T(u_a) or Q_T(u_b)")
        if not np.all(box_lo < box_up):
            raise AssemblyError("element with Q_T(u_a) >= Q_T(u_b)")
        lower = np.r_[problem.delta3, box_lo]
        upper = np.r_[np.inf, box_up]
        sizes = np.r_[omega, mesh.areas]
    else:
        raise AssemblyError(f"problem case must be 'integral' or 'box', got "
                            f"{problem.case!r}")
    rows = sp.vstack([sp.csr_matrix(state_row), sp.csr_matrix(control)],
                     format="csr")
    return ConstraintSet(rows, lower, upper, sizes)
