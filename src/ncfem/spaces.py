"""Finite element spaces on a triangulation: Morley and Crouzeix-Raviart.

Morley: one value per vertex, then one mean normal derivative per edge,
against the global edge normal; CR: one value per edge midpoint.  Boundary
dofs are constrained to zero (homogeneous clamped conditions).  A discrete
function is its free-dof coefficient vector, the components concatenated
(README); DofMap.slots (nt, nloc, intp) holds the free index of each
element_dofs entry, and n_free where that dof is constrained.

Both bases are closed forms in the barycentric coordinates lambda of each
element (README Notes), so no dof matrix is built or inverted.  values_at
and grads_at take barycentric points lambda, (nq, 3) shared by every
element or (nt, nq, 3), and return (nt, nq, ...).
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
    "SpaceTag", "DofMap", "element_dofs", "build_dofmap", "basis_tables",
    "local_coefficients", "function_from_element_values", "space_of",
    "element_blocks", "physical_points",
]

# elements per block of element_blocks (at least 2): 0.4 MB per (block, 12)
# float array
ELEMENT_BLOCK = 4096


class SpaceTag(Enum):
    MORLEY = "morley"
    CROUZEIX_RAVIART = "crouzeix_raviart"


@dataclass(frozen=True, eq=False)
class DofMap:
    space: SpaceTag
    slots: np.ndarray            # (nt, nloc) intp free index, n_free = constrained
    dof_of_free: np.ndarray      # (n_free,) global dof index
    n_free: int
    n_dofs: int                  # free and constrained dofs


def space_of(kind: ProblemKind) -> SpaceTag:
    """The discrete space of a problem: CR for the second-order problem,
    Morley for the fourth-order ones."""
    if kind is ProblemKind.SECOND_ORDER_CR:
        return SpaceTag.CROUZEIX_RAVIART
    return SpaceTag.MORLEY


def element_dofs(mesh: Triangulation, space: SpaceTag) -> np.ndarray:
    """Global dof indices (nt, nloc): Morley vertices, then edges; CR edges."""
    if space is SpaceTag.MORLEY:
        return np.hstack([mesh.triangles, mesh.n_vertices + mesh.edge_of_triangle])
    if space is SpaceTag.CROUZEIX_RAVIART:
        return mesh.edge_of_triangle
    raise ValueError(f"unknown space {space}")


def build_dofmap(mesh: Triangulation, space: SpaceTag) -> DofMap:
    is_bdry = (np.concatenate([mesh.boundary_vertex, mesh.boundary_edge])
               if space is SpaceTag.MORLEY else mesh.boundary_edge)
    dof_of_free = np.flatnonzero(~is_bdry)
    n_free = len(dof_of_free)
    slot = np.full(len(is_bdry), n_free, dtype=np.intp)
    slot[dof_of_free] = np.arange(n_free)
    return DofMap(space=space, slots=slot[element_dofs(mesh, space)],
                  dof_of_free=dof_of_free, n_free=n_free, n_dofs=len(is_bdry))


def _grad_lambda(mesh):
    """The constant gradients (nt, 3, 2) of the barycentric coordinates of
    every element: grad lambda_k = rot(p_{k+2} - p_{k+1}) / (2 |T|) with
    rot(x, y) = (-y, x), normal to the opposite edge, of length 1 / height."""
    p = mesh.vertices[mesh.triangles]                           # (nt, 3, 2)
    e = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
    rot = np.stack([-e[..., 1], e[..., 0]], axis=-1)
    return rot / (2.0 * geometry(mesh).area)[:, None, None]


class _MorleyTables:
    """Morley basis in closed form: B[t, i, m] = grad lambda_i . nu_m, with
    a_m = B[t, m, m]."""

    def __init__(self, mesh):
        self.grad_lambda = _grad_lambda(mesh)
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


class _CRTables:
    """CR basis 1 - 2*lambda from the barycentric coordinates lambda; it keeps
    only its constant gradients, -2 grad lambda."""

    def __init__(self, mesh):
        self.grads = _grad_lambda(mesh)
        self.grads *= -2.0

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


def physical_points(mesh, bary, elements=slice(None)):
    """Physical points (n, nq, 2) of barycentric points (nq, 3) on the
    elements of the slice `elements`, every element by default."""
    return bary @ mesh.vertices[mesh.triangles[elements]]


def element_blocks(mesh, degree: int):
    """The degree-exact volume rule one block of ELEMENT_BLOCK elements at a
    time, in element order: (sl, xq, wdx) per block, sl the slice of its
    elements, xq (n, nq, 2) the points and wdx (n, nq) the weights, which
    carry the area.  An element's points and weights have the same bits in
    every block, so outputs filled block by block have the bits of one
    whole-mesh sweep; a last block of one element joins the one before it,
    as a one-row matmul rounds differently."""
    rule, area = quad_triangle(degree), geometry(mesh).area
    nt = mesh.n_triangles
    starts = list(range(0, nt, ELEMENT_BLOCK))
    if len(starts) > 1 and nt - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [nt]):
        sl = slice(start, stop)
        yield (sl, physical_points(mesh, rule.points, sl),
               2.0 * area[sl, None] * rule.weights)


def local_coefficients(dofmap: DofMap, u, component: int = 0):
    """Per-element local coefficient vectors (nt, nloc) of one component of
    the coefficient vector u; constrained dofs are 0."""
    n = dofmap.n_free
    return np.append(u[component * n:(component + 1) * n], 0.0)[dofmap.slots]


def function_from_element_values(dofmap: DofMap, dof_values) -> np.ndarray:
    """Coefficient vector of values given at every dof of the map, one row
    per component (or one 1-D row): the free entries of each row, in turn."""
    dof_values = np.atleast_2d(np.asarray(dof_values, dtype=float))
    if dof_values.shape[1] != dofmap.n_dofs:
        raise ValueError(f"{dof_values.shape[1]} values per row, not one per dof")
    return dof_values[:, dofmap.dof_of_free].ravel()
