"""Finite element spaces on a triangulation: Morley and Crouzeix-Raviart.

Degrees of freedom
------------------
Morley   : one value per vertex plus one mean normal derivative per edge;
           boundary vertices and boundary edges are constrained to zero
           (homogeneous clamped conditions).
CR       : one value per edge midpoint; boundary edges constrained to zero.

The Morley basis is built per physical element by inverting the 6x6 matrix
that pairs centered, h-scaled quadratic monomials with the six dof
functionals (3 vertex evaluations, 3 edge-mean normal derivatives taken
against the global edge normal).  morley_dof_matrix builds that matrix D;
the tables keep only its inverse C, so the duality D C = I is checked
against a fresh D.  The normal-derivative dof is not affine-equivariant, so
no reference-element mapping is attempted; the two
elements sharing an edge see one dof with a consistent sign because both use
the same global normal.  The CR basis is 1 - 2 lambda_k in the barycentric
coordinates lambda_k.

A discrete function is its free-dof coefficient vector: a 1-D float array of
length n_components * n_free, the components concatenated in order (the
[u-block, v-block] of a von Karman pair); the dof map and the problem give
its space and its number of components.

Second derivatives are constant per element, and so are CR gradients: the
tables hold them once, as `hess` (nt, 6, 2, 2) on the Morley table and
`grads` (nt, 3, 2) on the CR table.  values_at and the Morley grads_at accept
either paired input (tris (n,), pts (n, 2)) or one point set per element
(tris (nt,), pts (nt, nq, 2)).  The Morley values_at and grads_at are batched
matmuls of the monomial values (..., 1, 6) and gradients (..., 6, 2) against
the per-element coefficient matrices C (nt, 6, 6).  Morley gradients are
affine, grad u(x) = g_T + H_T (x - center), so kernels that need one
function's gradient or a pairing of basis gradients can start from the
centroid gradients C[:, 1:3, :] / h and the hessians instead of a table.
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
    "SpaceTag", "DofMap", "build_dofmap", "basis_tables", "morley_dof_matrix",
    "local_coefficients", "function_from_element_values", "space_of",
    "volume_quadrature",
]


class SpaceTag(Enum):
    MORLEY = "morley"
    CROUZEIX_RAVIART = "crouzeix_raviart"


@dataclass(frozen=True, eq=False)
class DofMap:
    space: SpaceTag
    element_dofs: np.ndarray     # (nt, nloc) global dof indices
    free_of_dof: np.ndarray      # (n_dofs,) free index, -1 = constrained to zero
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

    free_of_dof = np.full(len(is_bdry), -1, dtype=np.int64)
    dof_of_free = np.flatnonzero(~is_bdry)
    free_of_dof[dof_of_free] = np.arange(len(dof_of_free))
    return DofMap(space=space, element_dofs=element_dofs, free_of_dof=free_of_dof,
                  dof_of_free=dof_of_free, n_free=len(dof_of_free))


# ---------------------------------------------------------------------------
# quadratic monomial helpers (local frame xi = (x - center) / h)

_MONO_HESS = np.zeros((6, 2, 2))
_MONO_HESS[3] = [[2.0, 0.0], [0.0, 0.0]]
_MONO_HESS[4] = [[0.0, 1.0], [1.0, 0.0]]
_MONO_HESS[5] = [[0.0, 0.0], [0.0, 2.0]]


def _mono_values(xi):
    """Monomials 1, a, b, a^2, ab, b^2 at local points (..., 2)."""
    a, b = xi[..., 0], xi[..., 1]
    return np.stack([np.ones_like(a), a, b, a * a, a * b, b * b], axis=-1)


def _mono_grads(xi):
    a, b = xi[..., 0], xi[..., 1]
    zero = np.zeros_like(a)
    one = np.ones_like(a)
    gx = np.stack([zero, one, zero, 2 * a, b, zero], axis=-1)
    gy = np.stack([zero, zero, one, zero, a, 2 * b], axis=-1)
    return np.stack([gx, gy], axis=-1)  # (..., 6, 2)


def _per_element(arr, pts_ndim):
    """Insert a broadcast axis for per-element point sets (pts of ndim 3)."""
    return arr[:, None, ...] if pts_ndim == 3 else arr


def morley_dof_matrix(mesh):
    """Per-element Morley dof matrices D (nt, 6, 6): D[t, i, m] is the i-th
    dof functional (3 vertex values, then 3 edge-mean normal derivatives
    against the global edge normal) of the m-th local monomial on element t;
    the basis coefficients are its inverse."""
    geom = geometry(mesh)
    p = mesh.vertices[mesh.triangles]           # (nt, 3, 2)
    center = p.mean(axis=1)
    scale = geom.h_T
    D = np.empty((mesh.n_triangles, 6, 6))
    loc_v = (p - center[:, None, :]) / scale[:, None, None]
    D[:, 0:3, :] = _mono_values(loc_v)
    for k in range(3):
        va = p[:, (k + 1) % 3]
        vb = p[:, (k + 2) % 3]
        mid = 0.5 * (va + vb)
        loc_m = (mid - center) / scale[:, None]
        grads = _mono_grads(loc_m) / scale[:, None, None]  # (nt, 6, 2)
        nu = geom.nu_E[mesh.edge_of_triangle[:, k]]
        D[:, 3 + k, :] = np.einsum("tmd,td->tm", grads, nu)
    return D


class _MorleyTables:
    """Per-element Morley basis coefficients against the local monomials."""

    def __init__(self, mesh):
        self.center = mesh.vertices[mesh.triangles].mean(axis=1)
        self.scale = geometry(mesh).h_T
        try:
            self.C = np.linalg.inv(morley_dof_matrix(mesh))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "singular Morley dof matrix (degenerate triangle)") from exc
        # constant per-element hessians of the 6 basis functions
        hess = np.einsum("tmj,mab->tjab", self.C, _MONO_HESS)
        self.hess = hess / (self.scale ** 2)[:, None, None, None]

    def _local(self, tris, pts):
        c = _per_element(self.center[tris], pts.ndim)
        s = _per_element(self.scale[tris], pts.ndim)
        return (pts - c) / s[..., None]

    def monomials_at(self, tris, pts):
        return _mono_values(self._local(tris, pts))

    def mono_grads_at(self, tris, pts):
        s = _per_element(self.scale[tris], pts.ndim)
        return _mono_grads(self._local(tris, pts)) / s[..., None, None]

    def values_at(self, tris, pts):
        m = self.monomials_at(tris, pts)
        C = _per_element(self.C[tris], pts.ndim)
        return (m[..., None, :] @ C)[..., 0, :]

    def grads_at(self, tris, pts):
        g = self.mono_grads_at(tris, pts)
        C = _per_element(self.C[tris], pts.ndim)
        return np.swapaxes(C, -1, -2) @ g


class _CRTables:
    """CR basis 1 - 2*lambda from the barycentric coordinates lambda."""

    def __init__(self, mesh):
        p = mesh.vertices[mesh.triangles]
        nt = mesh.n_triangles
        mats = np.empty((nt, 3, 3))
        mats[:, :, 0] = 1.0
        mats[:, :, 1:] = p
        inv = np.linalg.inv(mats)
        # lambda_k(x) = inv[0, k] + inv[1, k] x + inv[2, k] y
        self.grad_lambda = np.transpose(inv[:, 1:, :], (0, 2, 1))  # (nt, 3, 2)
        self.grads = -2.0 * self.grad_lambda    # constant basis gradients
        self.verts = p

    def _bary(self, tris, pts):
        d = pts - _per_element(self.verts[tris, 0], pts.ndim)
        gT = np.swapaxes(self.grad_lambda[tris, 1:, :], 1, 2)   # (n, 2, 2)
        # (pts - v0) @ g^T: one small matmul per element (per point when paired)
        lam12 = (d if pts.ndim == 3 else d[:, None, :]) @ gT
        lam12 = lam12.reshape(d.shape)
        lam0 = 1.0 - lam12.sum(axis=-1)
        return np.concatenate([lam0[..., None], lam12], axis=-1)

    def values_at(self, tris, pts):
        lam = self._bary(tris, pts)
        return 1.0 - 2.0 * lam


# one entry: a level's lookups are consecutive, and finished levels are freed
@lru_cache(maxsize=1)
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
    comp = u[component * n:(component + 1) * n]
    fo = dofmap.free_of_dof[dofmap.element_dofs]
    vals = comp[np.clip(fo, 0, None)]
    vals[fo < 0] = 0.0
    return vals


def function_from_element_values(dofmap: DofMap, dof_values) -> np.ndarray:
    """Coefficient vector of values indexed by global dof, one row per
    component (or one 1-D row): the free entries of each row, concatenated."""
    dof_values = np.atleast_2d(np.asarray(dof_values, dtype=float))
    return dof_values[:, dofmap.dof_of_free].ravel()
