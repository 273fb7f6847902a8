"""Interpolation operators, data oscillations and level-to-level transfer.

Edge means default to degree-4 Gauss rules; that is exact for the cubic edge
traces arising from quartic fields and below.  Non-polynomial inputs can pass
a higher `edge_degree` where an identity is to hold to round-off (the
commuting identities D^2_pw I_M = Pi_0 D^2 and grad_pw I_CR = Pi_0 grad
require exact edge means).  Oscillations of general data use degree-6 volume
quadrature to resolve (I - Pi_k) honestly; Pi_k g is fitted and subtracted
at those same points.

transfer_morley carries a solution from a coarse level, given by its
Assembler (see assembly), to the Morley dof values on a finer mesh.
"""
from __future__ import annotations

import numpy as np

from .mesh import geometry
from .quadrature import quad_edge, quad_triangle
from .spaces import (DofMap, SpaceTag, function_from_element_values,
                     local_coefficients)

__all__ = [
    "morley_interpolate", "cr_interpolate", "morley_dof_values",
    "cr_dof_values", "oscillation", "OSCILLATION_DEGREE", "transfer_morley",
    "edge_points",
]

OSCILLATION_DEGREE = 6   # volume rule that oscillation's samples lie on


def edge_points(mesh, rule):
    """Points (ne, nq, 2) of the edge rule on every edge."""
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    return a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]


def morley_dof_values(mesh, v, edge_degree: int = 4):
    """All Morley dof functionals of a smooth field: point values at every
    vertex, then mean normal derivatives (against the global normal) over
    every edge.  The elementwise commuting identity D^2_pw I_M = Pi_0 D^2
    holds for this full dof vector whether or not v satisfies the clamped
    boundary conditions."""
    geom = geometry(mesh)
    rule = quad_edge(edge_degree)
    pts = edge_points(mesh, rule)
    grads = v.gradient(pts)                           # (ne, nq, 2)
    gn = np.einsum("eqd,ed->eq", grads, geom.nu_E)
    return np.concatenate([v.value(mesh.vertices), gn @ rule.weights])


def morley_interpolate(mesh, dofmap: DofMap, v, edge_degree: int = 4):
    """Coefficient vector of the Morley interpolant in the clamped space:
    vertex dofs take the point values, edge dofs the edge means of the normal
    derivative; constrained boundary dofs are dropped.  Accepts a Field or a
    tuple of Fields (component pairs)."""
    if dofmap.space is not SpaceTag.MORLEY:
        raise ValueError("morley_interpolate needs a Morley dof map")
    fields = v if isinstance(v, (tuple, list)) else (v,)
    rows = [morley_dof_values(mesh, f, edge_degree) for f in fields]
    return function_from_element_values(dofmap, np.stack(rows))


def cr_dof_values(mesh, v, edge_degree: int = 4):
    """Edge means of v over every edge (all CR dof functionals)."""
    rule = quad_edge(edge_degree)
    return v.value(edge_points(mesh, rule)) @ rule.weights


def cr_interpolate(mesh, dofmap: DofMap, v, edge_degree: int = 4):
    """Crouzeix-Raviart interpolant (its coefficients) in the clamped space."""
    if dofmap.space is not SpaceTag.CROUZEIX_RAVIART:
        raise ValueError("cr_interpolate needs a CR dof map")
    return function_from_element_values(dofmap, cr_dof_values(mesh, v, edge_degree))


def oscillation(mesh, gq, k: int, p: int):
    """Oscillation osc_k(g)^2 per element and its square-rooted total,
    osc_k(g) = || h^p (I - Pi_k) g ||, p = 1 for second-order and p = 2 for
    fourth-order problems, from the samples gq (nt, nq) of g at the points of
    volume_quadrature(mesh, OSCILLATION_DEGREE), which the caller has
    already sampled its data on.  Pi_k, k in {0, 1}, is the elementwise L2
    projection onto P_k: the weighted mean, or the fit in the barycentric
    basis lambda, whose mass matrix |T| (I + 1 1^T) / 12 has the inverse
    (3 / |T|) (4 I - 1 1^T); the rule integrates that matrix exactly."""
    if k not in (0, 1):
        raise ValueError("oscillation degree k must be 0 or 1")
    if p not in (1, 2):
        raise ValueError("oscillation power p must be 1 or 2")
    geom = geometry(mesh)
    rule = quad_triangle(OSCILLATION_DEGREE)
    wdx = 2.0 * geom.area[:, None] * rule.weights   # volume_quadrature weights
    if np.shape(gq) != wdx.shape:
        raise ValueError(f"oscillation needs samples of shape {wdx.shape}, "
                         f"not {np.shape(gq)}")
    if k == 0:
        fit = ((wdx * gq).sum(axis=1) / geom.area)[:, None]
    else:
        lam = rule.points                                          # (nq, 3)
        b = (wdx * gq) @ lam                                       # (nt, 3)
        c = (3.0 / geom.area)[:, None] * (4.0 * b - b.sum(axis=1, keepdims=True))
        fit = c @ lam.T
    per_element = geom.h_T ** (2 * p) * (wdx * (gq - fit) ** 2).sum(axis=1)
    return per_element, float(np.sqrt(per_element.sum()))


def transfer_morley(asm_c, U, mesh_f):
    """The Morley dof values (n_components, nv_f + ne_f) on mesh_f, which
    must descend from the coarse mesh (carry `parent`), of a function on the
    coarse level asm_c, one component per coarse n_free coefficients of U;
    function_from_element_values restricts them to a fine level.

    At points on coarse inter-element edges, where the nonconforming function
    jumps, the trace from the lowest-indexed coarse ancestor among the
    adjacent fine triangles is used; the result is a deterministic Newton
    starting iterate, not an interpolant in any optimal sense.
    """
    mesh_c, dofmap_c = asm_c.mesh, asm_c.dofmap
    if dofmap_c.space is not SpaceTag.MORLEY:
        raise ValueError("transfer_morley needs a Morley coarse level")
    n_c = dofmap_c.n_free
    n_components = len(U) // n_c if n_c else 0
    if n_components < 1 or len(U) != n_components * n_c:
        raise ValueError(f"{len(U)} coefficients are no positive multiple of "
                         f"the coarse n_free = {n_c}")
    parent = mesh_f.parent
    if parent is None or len(parent) != mesh_f.n_triangles:
        raise ValueError("fine mesh does not carry a parent map onto the coarse mesh")
    if parent.max(initial=-1) >= mesh_c.n_triangles:
        raise ValueError("parent map does not match the coarse mesh")
    tab, nu_f = asm_c.tables, geometry(mesh_f).nu_E
    # geometric containment guards against a parent map onto a different mesh
    cent = mesh_f.vertices[mesh_f.triangles].mean(axis=1)
    if tab.bary_at(parent, cent).min() < -1e-10:
        raise ValueError("parent map does not nest in the coarse mesh")

    # lowest coarse ancestor seen from each fine vertex / fine edge
    vparent = np.full(mesh_f.n_vertices, mesh_c.n_triangles, dtype=np.int64)
    np.minimum.at(vparent, mesh_f.triangles.ravel(), np.repeat(parent, 3))
    eparent = np.full(mesh_f.n_edges, mesh_c.n_triangles, dtype=np.int64)
    np.minimum.at(eparent, mesh_f.edge_of_triangle.ravel(), np.repeat(parent, 3))

    mids = 0.5 * (mesh_f.vertices[mesh_f.edges[:, 0]]
                  + mesh_f.vertices[mesh_f.edges[:, 1]])
    lam_v = tab.bary_at(vparent, mesh_f.vertices)             # (nv, 3)
    lam_e = tab.bary_at(eparent, mids)                        # (ne, 3)
    dn = (tab.grad_lambda[eparent] @ nu_f[:, :, None])[..., 0]  # grad lambda . nu
    rows = []
    for comp in range(n_components):
        # u = lambda . c_v + lambda (1 - lambda) . w on each coarse element,
        # so grad u = sum_i (c_v,i + (1 - 2 lambda_i) w_i) grad lambda_i
        cv, w = tab.barycentric_form(local_coefficients(dofmap_c, U, comp))
        vvals = np.einsum("vi,vi->v", lam_v,
                          cv[vparent] + (1.0 - lam_v) * w[vparent])
        gvals = np.einsum("ei,ei->e", dn,
                          cv[eparent] + (1.0 - 2.0 * lam_e) * w[eparent])
        rows.append(np.concatenate([vvals, gvals]))
    return np.stack(rows)
