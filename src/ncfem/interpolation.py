"""Interpolation operators, data oscillations and level-to-level transfer.

dof_values is the one producer of the dof values of a field, for both
spaces; oscillation fits Pi_k g on degree-6 volume points (README Notes);
transfer_morley and transfer_cr carry a solution from a coarse level to the
dof values of its space on a finer mesh.
"""
from __future__ import annotations

import numpy as np

from .mesh import geometry
from .quadrature import quad_edge, quad_triangle
from .spaces import (DofMap, SpaceTag, element_blocks,
                     function_from_element_values, local_coefficients)

__all__ = [
    "interpolate", "dof_values", "oscillation", "OSCILLATION_DEGREE",
    "transfer_morley", "transfer_cr",
]

OSCILLATION_DEGREE = 6   # volume rule that oscillation's samples lie on


def _edge_points(mesh, rule, edges=slice(None)):
    """Points (ne, nq, 2) of the edge rule on the edges (an index or mask),
    every edge by default."""
    a = mesh.vertices[mesh.edges[edges, 0]]
    b = mesh.vertices[mesh.edges[edges, 1]]
    return a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]


def dof_values(mesh, space: SpaceTag, v, edge_degree: int = 4,
               boundary_only: bool = False):
    """Every dof functional of the space on mesh, one row per Field of v, a
    Field or a tuple of Fields (component pairs): (n_components, n_dofs).
    Morley: point values at every vertex, then mean normal derivatives
    (against the global normal) over every edge; the elementwise commuting
    identity D^2_pw I_M = Pi_0 D^2 holds for this full dof vector whether or
    not v satisfies the clamped boundary conditions.  CR: the edge means of
    v over every edge.  Edge means take the Gauss rule of edge_degree,
    exact for quartic v at the default 4.
    boundary_only keeps the boundary vertices and edges, the dofs that the
    clamped space constrains, in the same order, and evaluates v at no
    other point."""
    rule = quad_edge(edge_degree)
    edges, verts = ((mesh.boundary_edge, mesh.boundary_vertex)
                    if boundary_only else (slice(None),) * 2)
    pts = _edge_points(mesh, rule, edges)
    fields = v if isinstance(v, (tuple, list)) else (v,)
    if space is not SpaceTag.MORLEY:
        return np.stack([f.value(pts) @ rule.weights for f in fields])
    nu = geometry(mesh).nu_E[edges]
    return np.stack([np.concatenate(
        [f.value(mesh.vertices[verts]),
         np.einsum("eqd,ed->eq", f.gradient(pts), nu) @ rule.weights])
        for f in fields])


def interpolate(mesh, dofmap: DofMap, v, edge_degree: int = 4):
    """Coefficient vector of the interpolant of v in the clamped space of
    dofmap: the dof values of v (dof_values) at its free dofs."""
    return function_from_element_values(
        dofmap, dof_values(mesh, dofmap.space, v, edge_degree))


def oscillation(mesh, gq, k: int, p: int):
    """Oscillation osc_k(g)^2 per element and its square-rooted total,
    osc_k(g) = || h^p (I - Pi_k) g ||, p = 1 for second-order and p = 2 for
    fourth-order problems, from the samples gq (nt, nq) of g at the points of
    element_blocks(mesh, OSCILLATION_DEGREE), which the caller has already
    sampled its data on.  Pi_k, k in {0, 1}, is the elementwise L2
    projection onto P_k: the weighted mean, or the fit in the barycentric
    basis lambda, whose mass matrix |T| (I + 1 1^T) / 12 has the inverse
    (3 / |T|) (4 I - 1 1^T); the rule integrates that matrix exactly.  The
    fit and the residual are taken one of those blocks at a time, so its
    temporaries do not grow with nt; the total sums the full per-element
    array."""
    if k not in (0, 1):
        raise ValueError("oscillation degree k must be 0 or 1")
    if p not in (1, 2):
        raise ValueError("oscillation power p must be 1 or 2")
    geom = geometry(mesh)
    lam = quad_triangle(OSCILLATION_DEGREE).points                 # (nq, 3)
    shape = (mesh.n_triangles, len(lam))
    if np.shape(gq) != shape:
        raise ValueError(f"oscillation needs samples of shape {shape}, "
                         f"not {np.shape(gq)}")
    per_element = np.empty(mesh.n_triangles)
    for sl, _, wdx in element_blocks(mesh, OSCILLATION_DEGREE):
        g, area = gq[sl], geom.area[sl]
        if k == 0:
            fit = ((wdx * g).sum(axis=1) / area)[:, None]
        else:
            b = (wdx * g) @ lam                                    # (n, 3)
            c = (3.0 / area)[:, None] * (4.0 * b - b.sum(axis=1, keepdims=True))
            fit = c @ lam.T
        per_element[sl] = (geom.h_T[sl] ** (2 * p)
                           * (wdx * (g - fit) ** 2).sum(axis=1))
    return per_element, float(np.sqrt(per_element.sum()))


def _barycentric(mesh, grad_lambda, tris, pts):
    """lambda (n, 3) of the elements tris (n,) of mesh, whose barycentric
    gradients are grad_lambda (nt, 3, 2), at the points pts (n, 2)."""
    d = pts - mesh.vertices[mesh.triangles[tris, 0]]
    lam12 = (d[:, None, :] @ np.swapaxes(grad_lambda[tris, 1:, :], 1, 2))[:, 0]
    lam0 = 1.0 - lam12.sum(axis=-1)
    return np.concatenate([lam0[:, None], lam12], axis=-1)


def _carry_setup(asm_c, U, mesh_f, grad_lambda):
    """(n_components, parent map, edge midpoints of mesh_f) of a transfer of
    U from asm_c (barycentric gradients grad_lambda); ValueError unless U
    holds whole components and mesh_f a parent map nesting in asm_c.mesh."""
    mesh_c, n_c = asm_c.mesh, asm_c.dofmap.n_free
    n_components = len(U) // n_c if n_c else 0
    if n_components < 1 or len(U) != n_components * n_c:
        raise ValueError(f"{len(U)} coefficients are no positive multiple of "
                         f"the coarse n_free = {n_c}")
    parent = mesh_f.parent
    if parent is None or len(parent) != mesh_f.n_triangles:
        raise ValueError("fine mesh does not carry a parent map onto the coarse mesh")
    if parent.max(initial=-1) >= mesh_c.n_triangles:
        raise ValueError("parent map does not match the coarse mesh")
    # geometric containment guards against a parent map onto a different mesh
    cent = mesh_f.vertices[mesh_f.triangles].mean(axis=1)
    if _barycentric(mesh_c, grad_lambda, parent, cent).min() < -1e-10:
        raise ValueError("parent map does not nest in the coarse mesh")
    return n_components, parent, 0.5 * (mesh_f.vertices[mesh_f.edges[:, 0]]
                                         + mesh_f.vertices[mesh_f.edges[:, 1]])


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
    tab, nu_f = asm_c.tables, geometry(mesh_f).nu_E
    gl = tab.grad_lambda
    n_components, parent, mids = _carry_setup(asm_c, U, mesh_f, gl)

    # lowest coarse ancestor seen from each fine vertex / fine edge
    vparent = np.full(mesh_f.n_vertices, mesh_c.n_triangles, dtype=np.int64)
    np.minimum.at(vparent, mesh_f.triangles.ravel(), np.repeat(parent, 3))
    eparent = np.full(mesh_f.n_edges, mesh_c.n_triangles, dtype=np.int64)
    np.minimum.at(eparent, mesh_f.edge_of_triangle.ravel(), np.repeat(parent, 3))

    lam_v = _barycentric(mesh_c, gl, vparent, mesh_f.vertices)  # (nv, 3)
    lam_e = _barycentric(mesh_c, gl, eparent, mids)             # (ne, 3)
    dn = (gl[eparent] @ nu_f[:, :, None])[..., 0]               # grad lambda . nu
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


def transfer_cr(asm_c, U, mesh_f):
    """transfer_morley for a CR coarse level: the CR dof values (n_components,
    ne_f) on mesh_f.  A fine edge midpoint takes the mean of the coarse
    function on the coarse ancestors of the fine triangles on both sides (one
    on the boundary): the coarse value inside a coarse triangle, the mean of
    its two traces on a coarse edge, whatever the numbering."""
    if asm_c.dofmap.space is not SpaceTag.CROUZEIX_RAVIART:
        raise ValueError("transfer_cr needs a CR coarse level")
    grads = asm_c.cr_gradients()
    n_components, parent, mids = _carry_setup(asm_c, U, mesh_f, -0.5 * grads)
    sides = mesh_f.triangles_of_edge.T
    sides = parent[np.where(sides >= 0, sides, sides[0])]               # (2, ne)
    cent = asm_c.mesh.vertices[asm_c.mesh.triangles].sum(axis=1) / 3.0
    # on a coarse triangle u = mean(c) + (grads^T c) . (x - centroid)
    c = np.stack([local_coefficients(asm_c.dofmap, U, k)
                  for k in range(n_components)])                 # (n, nt, 3)
    u0, g = c.sum(axis=-1) / 3.0, np.einsum("tjd,ntj->ntd", grads, c)
    return 0.5 * sum(u0[:, s] + np.einsum("ned,ed->ne", g[:, s], mids - cent[s])
                     for s in sides)
