"""Finite element spaces on a triangulation: Morley and Crouzeix-Raviart.

Degrees of freedom
------------------
Morley   : one value per vertex plus one mean normal derivative per edge;
           boundary vertices and boundary edges are constrained to zero
           (homogeneous clamped conditions).
CR       : one value per edge midpoint; boundary edges constrained to zero.

Both bases are closed forms in the barycentric coordinates lambda_i of each
element (Ciarlet, 1978; Wang and Xu, Numer. Math. 103, 2006), so no dof
matrix is built or inverted.  CR: 1 - 2 lambda_k.  Morley, with edge m
opposite vertex m, nu_m its global normal, B_im = grad lambda_i . nu_m and
a_m = B_mm:
    edge function    psi_m = lambda_m (1 - lambda_m) / a_m,
    vertex function  phi_i = lambda_i - sum_m B_im psi_m.
psi_m vanishes at the vertices, and its normal derivative has mean 1 on
edge m and 0 on the other two, where 1 - 2 lambda_m has mean zero; the sum
in phi_i cancels the normal-derivative means of lambda_i.  Both elements
sharing an edge see one dof with a consistent sign because both use the same
global normal.  Gradients (1 - 2 lambda_m) grad lambda_m / a_m and hessians
-2 grad lambda_m (x) grad lambda_m / a_m combine through B in the same way.

A discrete function is its free-dof coefficient vector: a 1-D float array of
length n_components * n_free, the components concatenated in order (the
[u-block, v-block] of a von Karman pair); the dof map and the problem give
its space and its number of components.  The dof map stores the one index
through which it is read, DofMap.slots (nt, nloc, int32): the free index of
each element dof, n_free where the dof is constrained, so a gather from
[u, 0] reads 0 there and a scatter drops that slot.

A Morley function with local coefficients c is u = lambda . c_v +
lambda (1 - lambda) . w with w = W c, W (3 x 6) the bubble weights
(bubble_weights; barycentric_form folds c into (c_v, w)).  So its hessian
-2 sum_m w_m grad lambda_m (x) grad lambda_m is constant (hessians), its
gradient sum_i (c_v,i + (1 - 2 lambda_i) w_i) grad lambda_i affine, and the
element tensors of assembly are closed forms in grad lambda and W: the
Morley table keeps grad lambda, the first vertices, B and a, and the CR
table its constant gradients `grads` (nt, 3, 2).  values_at and the Morley
grads_at serve the checks that evaluate the basis at points; they take
barycentric points lambda, (nq, 3) shared by every element or (nt, nq, 3),
and return (nt, nq, ...); shared points give a broadcast view of the CR
values.  bary_at(tris, pts) maps paired physical points back to lambda for
the transfer between nested meshes only.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .mesh import Triangulation, geometry
from .problems import ProblemKind
from .quadrature import quad_triangle

__all__ = [
    "SpaceTag", "DofMap", "build_dofmap", "basis_tables", "local_coefficients",
    "function_from_element_values", "space_of", "volume_quadrature",
    "physical_points",
]


class SpaceTag(Enum):
    MORLEY = "morley"
    CROUZEIX_RAVIART = "crouzeix_raviart"


@dataclass(frozen=True, eq=False)
class DofMap:
    space: SpaceTag
    element_dofs: np.ndarray     # (nt, nloc) global dof indices
    slots: np.ndarray            # (nt, nloc) int32 free index, n_free = constrained
    dof_of_free: np.ndarray      # (n_free,) global dof index
    n_free: int


def space_of(kind: ProblemKind) -> SpaceTag:
    """The discrete space of a problem: CR for the second-order problem,
    Morley for the fourth-order ones."""
    if kind is ProblemKind.SECOND_ORDER_CR:
        return SpaceTag.CROUZEIX_RAVIART
    return SpaceTag.MORLEY


def build_dofmap(mesh: Triangulation, space: SpaceTag) -> DofMap:
    if space is SpaceTag.MORLEY:
        nv = mesh.n_vertices
        element_dofs = np.hstack([mesh.triangles, nv + mesh.edge_of_triangle])
        is_bdry = np.concatenate([mesh.boundary_vertex, mesh.boundary_edge])
    elif space is SpaceTag.CROUZEIX_RAVIART:
        element_dofs = mesh.edge_of_triangle.copy()
        is_bdry = mesh.boundary_edge
    else:
        raise ValueError(f"unknown space {space}")

    dof_of_free = np.flatnonzero(~is_bdry)
    n_free = len(dof_of_free)
    slot = np.full(len(is_bdry), n_free, dtype=np.int32)
    slot[dof_of_free] = np.arange(n_free)
    return DofMap(space=space, element_dofs=element_dofs, slots=slot[element_dofs],
                  dof_of_free=dof_of_free, n_free=n_free)


class _Barycentric:
    """The barycentric coordinates lambda of every element: their constant
    gradients and the first vertex, from which lambda_1, lambda_2 are read."""

    def __init__(self, mesh):
        p = mesh.vertices[mesh.triangles]                       # (nt, 3, 2)
        # grad lambda_k = rot(p_{k+2} - p_{k+1}) / (2 |T|), rot(x, y) = (-y, x):
        # normal to the opposite edge, of length 1 / height
        e = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
        rot = np.stack([-e[..., 1], e[..., 0]], axis=-1)
        self.grad_lambda = rot / (2.0 * geometry(mesh).area)[:, None, None]
        self.v0 = mesh.vertices[mesh.triangles[:, 0]]

    def bary_at(self, tris, pts):
        """lambda (n, 3) of the elements tris (n,) at the points pts (n, 2)."""
        d = pts - self.v0[tris]
        lam12 = (d[:, None, :]
                 @ np.swapaxes(self.grad_lambda[tris, 1:, :], 1, 2))[:, 0]
        lam0 = 1.0 - lam12.sum(axis=-1)
        return np.concatenate([lam0[:, None], lam12], axis=-1)


class _MorleyTables(_Barycentric):
    """Morley basis in closed form: B[t, i, m] = grad lambda_i . nu_m, with
    a_m = B[t, m, m]."""

    def __init__(self, mesh):
        super().__init__(mesh)
        nu = geometry(mesh).nu_E[mesh.edge_of_triangle]        # (nt, 3, 2)
        self.B = self.grad_lambda @ np.swapaxes(nu, 1, 2)       # (nt, 3, 3)
        self.a = np.diagonal(self.B, axis1=1, axis2=2)          # (nt, 3) view

    def values_at(self, lam):
        psi = lam * (1.0 - lam) / self.a[:, None, :]
        phi = lam - psi @ np.swapaxes(self.B, 1, 2)
        return np.concatenate([phi, psi], axis=-1)

    def grads_at(self, lam):
        s = (1.0 - 2.0 * lam) / self.a[:, None, :]
        gl = self.grad_lambda[:, None]                          # (nt, 1, 3, 2)
        gpsi = s[..., None] * gl
        gphi = gl - self.B[:, None] @ gpsi
        return np.concatenate([gphi, gpsi], axis=-2)

    def barycentric_form(self, c):
        """The functions with local coefficients c (nt, 6) as
        u = lambda . c_v + lambda (1 - lambda) . w: returns (c_v, w), each
        (nt, 3), with w_m = (c_{e,m} - sum_i B_im c_{v,i}) / a_m."""
        cv = c[:, :3]
        return cv, (c[:, 3:] - (cv[:, None, :] @ self.B)[:, 0]) / self.a

    def bubble_weights(self):
        """W (nt, 3, 6) with w = W c: W[m, i] = -B_im / a_m, W[m, 3 + m] =
        1 / a_m."""
        eye = np.broadcast_to(np.eye(3), self.B.shape)
        return (np.concatenate([-np.swapaxes(self.B, 1, 2), eye], axis=2)
                / self.a[:, :, None])

    def hessians(self, c):
        """D^2 u = -2 sum_m w_m grad lambda_m (x) grad lambda_m (nt, 2, 2) of
        the functions with local coefficients c (nt, 6)."""
        gl = self.grad_lambda
        w = self.barycentric_form(c)[1]
        return np.einsum("tm,tmab->tab", -2.0 * w,
                         gl[:, :, :, None] * gl[:, :, None, :])


class _CRTables(_Barycentric):
    """CR basis 1 - 2*lambda from the barycentric coordinates lambda."""

    def __init__(self, mesh):
        super().__init__(mesh)
        self.grads = -2.0 * self.grad_lambda    # constant basis gradients

    def values_at(self, lam):
        # the same on every element: shared points give a broadcast view
        return np.broadcast_to(1.0 - 2.0 * lam,
                               (len(self.grads),) + lam.shape[-2:])


# caches nothing: perfbench traces it and reads cache_info() (ROADMAP item 1)
@lru_cache(maxsize=0)
def basis_tables(mesh: Triangulation, space: SpaceTag):
    if space is SpaceTag.MORLEY:
        return _MorleyTables(mesh)
    if space is SpaceTag.CROUZEIX_RAVIART:
        return _CRTables(mesh)
    raise ValueError(f"unknown space {space}")


def physical_points(mesh, bary):
    """Map barycentric points (nq, 3) to physical points per element (nt, nq, 2)."""
    return bary @ mesh.vertices[mesh.triangles]


def volume_quadrature(mesh, degree: int):
    """Points (nt, nq, 2) and weights (nt, nq) of the degree-exact volume rule
    on every element; the weights carry the element area."""
    rule = quad_triangle(degree)
    xq = physical_points(mesh, rule.points)
    return xq, 2.0 * geometry(mesh).area[:, None] * rule.weights


def local_coefficients(dofmap: DofMap, u, component: int = 0):
    """Per-element local coefficient vectors (nt, nloc) of one component of
    the coefficient vector u; constrained dofs are 0."""
    n = dofmap.n_free
    return np.append(u[component * n:(component + 1) * n], 0.0)[dofmap.slots]


def function_from_element_values(dofmap: DofMap, dof_values) -> np.ndarray:
    """Coefficient vector of values given at every dof of the map, one row
    per component (or one 1-D row): the free entries of each row, in turn."""
    dof_values = np.atleast_2d(np.asarray(dof_values, dtype=float))
    if dof_values.shape[1] != dofmap.element_dofs.max() + 1:
        raise ValueError(f"{dof_values.shape[1]} values per row, not one per dof")
    return dof_values[:, dofmap.dof_of_free].ravel()
