"""Assembly of bilinear/trilinear forms, residuals and Jacobians.

Matrix convention: M[i, j] = form(trial basis j, test basis i), so the
residual of a linear problem reads M u - F.  Constrained dofs are eliminated;
all matrices and vectors live on free dofs (von Karman systems are 2x2 block
systems ordered [u-block, v-block]).

Everything is element-local and assembled with deterministic numpy
reductions, so repeated runs are bitwise reproducible.  The piecewise
structure of Morley functions keeps every form integral exact with the
default degree-4 rule: hessians are elementwise constant and the
Navier-Stokes trilinear integrand is elementwise quadratic.

For the Morley space the trilinear forms factor elementwise:

* Navier-Stokes:   Gamma(eta, chi, phi)|_T = (tr H . eta) (chi^T S phi)
  with tr H the constant basis Laplacians and S the antisymmetrized
  grad-x-grad pairing;
* von Karman:      b(eta, chi, phi)|_T = -1/2 (eta^T Br chi) (IV . phi)
  with Br the constant bracket pairing [phi_i, phi_j] and IV the basis
  integrals.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sparse

from .mesh import geometry
from .problems import ProblemKind, ProblemSpec
from .spaces import (DiscreteFunction, DofMap, SpaceTag, basis_tables,
                     local_coefficients, space_of, volume_quadrature)

__all__ = [
    "Assembler", "assembler", "gamma_ns", "gamma_vk",
]

VOLUME_QUAD_DEGREE = 4


def _scatter_matrix(loc, dofmap: DofMap):
    """Assemble local matrices loc (nt, a, b), convention [test, trial]."""
    fo = dofmap.free_of_dof[dofmap.element_dofs]
    nt, nloc = fo.shape
    rows = np.repeat(fo[:, :, None], nloc, axis=2).ravel()
    cols = np.repeat(fo[:, None, :], nloc, axis=1).ravel()
    vals = loc.ravel()
    keep = (rows >= 0) & (cols >= 0)
    n = dofmap.n_free
    mat = sparse.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n))
    out = mat.tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def _scatter_vector(loc, dofmap: DofMap):
    fo = dofmap.free_of_dof[dofmap.element_dofs]
    out = np.zeros(dofmap.n_free)
    keep = fo >= 0
    np.add.at(out, fo[keep], loc[keep])
    return out


def _check_spd_bounds(A_vals, bounds):
    lo, hi = bounds
    sym_defect = np.abs(A_vals[..., 0, 1] - A_vals[..., 1, 0]).max()
    if sym_defect > 1e-10 * (1.0 + np.abs(A_vals).max()):
        raise ValueError("coefficient matrix A is not symmetric")
    half_tr = 0.5 * (A_vals[..., 0, 0] + A_vals[..., 1, 1])
    rad = np.sqrt((0.5 * (A_vals[..., 0, 0] - A_vals[..., 1, 1])) ** 2
                  + A_vals[..., 0, 1] ** 2)
    lam_min, lam_max = (half_tr - rad).min(), (half_tr + rad).max()
    tol = 1e-8 * max(1.0, hi)
    if lam_min < lo - tol or lam_max > hi + tol:
        raise ValueError(
            f"eigenvalues of A in [{lam_min:.3g}, {lam_max:.3g}] violate the "
            f"declared bounds [{lo:.3g}, {hi:.3g}]")


class Assembler:
    """Element tensors and assembled operators for one (mesh, dofmap, problem).

    Instances cache everything that does not depend on the state U, so Newton
    iterations only pay for the state-dependent contractions.
    """

    def __init__(self, mesh, dofmap: DofMap, problem: ProblemSpec):
        if dofmap.space is not space_of(problem.kind):
            raise ValueError(f"dofmap space {dofmap.space} does not match "
                             f"problem kind {problem.kind}")
        self.mesh = mesh
        self.dofmap = dofmap
        self.problem = problem
        self.geom = geometry(mesh)
        self.tables = basis_tables(mesh, dofmap.space)
        self.xq, self.wdx = volume_quadrature(mesh, VOLUME_QUAD_DEGREE)

        if dofmap.space is SpaceTag.MORLEY:
            self._init_morley()
        else:
            self._init_cr()
        self._a_csr = None
        self._b_csr = None
        self._load = None

    # -- element tensors ----------------------------------------------------

    def _init_morley(self):
        tab = self.tables
        hess = tab.hess                                       # (nt, 6, 2, 2)
        area = self.geom.area
        self.a_loc = np.einsum("t,tiab,tjab->tij", area, hess, hess)
        self.trH = hess[:, :, 0, 0] + hess[:, :, 1, 1]        # (nt, 6)
        kind = self.problem.kind
        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            tris = np.arange(self.mesh.n_triangles)
            g = tab.grads_at(tris, self.xq)                   # (nt, nq, 6, 2)
            gx, gy = g[..., 0], g[..., 1]
            self.S = (np.einsum("tq,tqj,tqk->tjk", self.wdx, gy, gx)
                      - np.einsum("tq,tqj,tqk->tjk", self.wdx, gx, gy))
        elif kind is ProblemKind.VON_KARMAN_MORLEY:
            hxx, hxy, hyy = hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1]
            self.Br = (np.einsum("ti,tj->tij", hxx, hyy)
                       + np.einsum("ti,tj->tij", hyy, hxx)
                       - 2.0 * np.einsum("ti,tj->tij", hxy, hxy))
            tris = np.arange(self.mesh.n_triangles)
            vals = self.tables.values_at(tris, self.xq)       # (nt, nq, 6)
            self.IV = np.einsum("tq,tqk->tk", self.wdx, vals)

    def _init_cr(self):
        p = self.problem
        nt, nq = self.xq.shape[:2]
        tris = np.arange(nt)
        grads = self.tables.grads_at(tris, self.mesh.vertices[self.mesh.triangles][:, 0])
        self.cr_grads = grads                                  # (nt, 3, 2)

        def coeff(fn, trailing):
            # sampled at quadrature points, or at centroids only for
            # mesh-aligned piecewise constant coefficients
            if fn is None:
                return None
            if p.piecewise_constant:
                vals = fn(self.mesh.vertices[self.mesh.triangles].mean(axis=1))
                vals = vals[:, None, ...]
            else:
                vals = fn(self.xq)
            return np.broadcast_to(vals, (nt, nq) + trailing)

        A_vals = coeff(p.A, (2, 2))
        if A_vals is not None:
            _check_spd_bounds(A_vals, p.lambda_bounds)
            Ag = np.einsum("tqab,tjb->tqja", A_vals, grads)
        else:
            Ag = np.broadcast_to(grads[:, None, :, :], (nt, nq, 3, 2))
        self.a_loc = np.einsum("tq,tqia,tja->tij", self.wdx, Ag, grads)

        rule_vals = self.tables.values_at(tris, self.xq)       # (nt, nq, 3)
        b_vals = coeff(p.b, (2,))
        g_vals = coeff(p.gamma, ())
        loc = np.zeros_like(self.a_loc)
        if b_vals is not None:
            bg = np.einsum("tqa,tia->tqi", b_vals, grads)
            loc += np.einsum("tq,tqj,tqi->tij", self.wdx, rule_vals, bg)
        if g_vals is not None:
            loc += np.einsum("tq,tqj,tqi->tij", self.wdx * g_vals,
                             rule_vals, rule_vals)
        self.b_loc = loc

    # -- assembled operators -------------------------------------------------

    def a_matrix(self):
        """Piecewise energy form: sum_T (D^2 ., D^2 .) for Morley,
        sum_T (A grad ., grad .) for CR; block diagonal for pairs."""
        if self._a_csr is None:
            single = _scatter_matrix(self.a_loc, self.dofmap)
            if self.problem.n_components == 2:
                single = sparse.block_diag([single, single]).tocsr()
            self._a_csr = single
        return self._a_csr

    def b_matrix(self):
        if self.problem.kind is not ProblemKind.SECOND_ORDER_CR:
            raise ValueError("b_pw matrix is defined for the CR problem only")
        if self._b_csr is None:
            self._b_csr = _scatter_matrix(self.b_loc, self.dofmap)
        return self._b_csr

    def gram(self):
        """Gram matrix of the piecewise energy norm (equals a_matrix)."""
        return self.a_matrix()

    def load(self):
        if self._load is None:
            tris = np.arange(self.mesh.n_triangles)
            vals = self.tables.values_at(tris, self.xq)
            fq = self.problem.f(self.xq)
            F1 = _scatter_vector(np.einsum("tq,tqk->tk", self.wdx * fq, vals),
                                 self.dofmap)
            if self.problem.n_components == 2:
                if self.problem.g is not None:
                    gq = self.problem.g(self.xq)
                    F2 = _scatter_vector(
                        np.einsum("tq,tqk->tk", self.wdx * gq, vals), self.dofmap)
                else:
                    F2 = np.zeros(self.dofmap.n_free)
                self._load = np.concatenate([F1, F2])
            else:
                self._load = F1
        return self._load

    def residual(self, U: DiscreteFunction):
        """Entries N_h(U; phi_j) of the discrete residual over free test dofs."""
        kind = self.problem.kind
        if kind is ProblemKind.SECOND_ORDER_CR:
            return (self.a_matrix() + self.b_matrix()) @ U.coeffs - self.load()
        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            cu = local_coefficients(self.dofmap, U)
            a_t = np.einsum("ti,ti->t", self.trH, cu)
            su = np.einsum("ti,tik->tk", cu, self.S)
            nl = _scatter_vector(a_t[:, None] * su, self.dofmap)
            return self.a_matrix() @ U.coeffs - self.load() + nl
        # von Karman
        cu = local_coefficients(self.dofmap, U, 0)
        cv = local_coefficients(self.dofmap, U, 1)
        quv = np.einsum("ti,tij,tj->t", cu, self.Br, cv)
        quu = np.einsum("ti,tij,tj->t", cu, self.Br, cu)
        r1 = _scatter_vector(-quv[:, None] * self.IV, self.dofmap)
        r2 = _scatter_vector(0.5 * quu[:, None] * self.IV, self.dofmap)
        return self.a_matrix() @ U.coeffs - self.load() + np.concatenate([r1, r2])

    def jacobian(self, U: DiscreteFunction):
        """Derivative of the residual at U: a_pw + Gamma(U, ., .) + Gamma(., U, .)."""
        kind = self.problem.kind
        if kind is ProblemKind.SECOND_ORDER_CR:
            return (self.a_matrix() + self.b_matrix()).tocsr()
        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            cu = local_coefficients(self.dofmap, U)
            a_t = np.einsum("ti,ti->t", self.trH, cu)
            su = np.einsum("ti,tik->tk", cu, self.S)
            loc = (a_t[:, None, None] * np.transpose(self.S, (0, 2, 1))
                   + su[:, :, None] * self.trH[:, None, :])
            return self.a_matrix() + _scatter_matrix(loc, self.dofmap)
        cu = local_coefficients(self.dofmap, U, 0)
        cv = local_coefficients(self.dofmap, U, 1)
        brU = np.einsum("tij,tj->ti", self.Br, cu)
        brV = np.einsum("tij,tj->ti", self.Br, cv)
        J11 = _scatter_matrix(-np.einsum("tk,tj->tkj", self.IV, brV), self.dofmap)
        J12 = _scatter_matrix(-np.einsum("tk,tj->tkj", self.IV, brU), self.dofmap)
        J21 = _scatter_matrix(np.einsum("tk,tj->tkj", self.IV, brU), self.dofmap)
        blocks = sparse.bmat([[J11, J12], [J21, None]])
        return (self.a_matrix() + blocks).tocsr()

    # -- trilinear forms -----------------------------------------------------

    def gamma_ns_value(self, eta, chi, phi):
        ce = local_coefficients(self.dofmap, eta)
        cc = local_coefficients(self.dofmap, chi)
        cp = local_coefficients(self.dofmap, phi)
        return float(np.einsum("ti,ti,tj,tjk,tk->", self.trH, ce, cc, self.S, cp))

    def vk_b_pw(self, c_eta, c_chi, c_phi):
        q = np.einsum("ti,tij,tj->t", c_eta, self.Br, c_chi)
        return float(-0.5 * np.einsum("t,tk,tk->", q, self.IV, c_phi))

    def gamma_vk_value(self, Xi, Theta, Phi):
        dm = self.dofmap
        x1, x2 = (local_coefficients(dm, Xi, c) for c in (0, 1))
        t1, t2 = (local_coefficients(dm, Theta, c) for c in (0, 1))
        p1, p2 = (local_coefficients(dm, Phi, c) for c in (0, 1))
        return (self.vk_b_pw(x1, t2, p1) + self.vk_b_pw(x2, t1, p1)
                - self.vk_b_pw(x1, t1, p2))

    def gamma_gradient(self, slot, x, y, z):
        """Dual vector w with w_i = Gamma(..., phi_i, ...), the basis function
        phi_i in `slot` (0, 1 or 2) and the other slots held at x, y, z; so
        Gamma(x, y, z) = w . (coefficients of that slot's argument)."""
        dm = self.dofmap
        kind = self.problem.kind
        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            cx, cy, cz = (local_coefficients(dm, u) for u in (x, y, z))
            if slot == 0:
                loc = self.trH * np.einsum("tj,tjk,tk->t", cy, self.S, cz)[:, None]
            else:
                su = (np.einsum("tjk,tk->tj", self.S, cz) if slot == 1
                      else np.einsum("tj,tjk->tk", cy, self.S))
                loc = np.einsum("ti,ti->t", self.trH, cx)[:, None] * su
            return _scatter_vector(loc, dm)
        if kind is not ProblemKind.VON_KARMAN_MORLEY:
            raise ValueError("the CR problem has no trilinear form")
        p1, p2 = (local_coefficients(dm, z, c) for c in (0, 1))
        iv1 = np.einsum("tk,tk->t", self.IV, p1)
        iv2 = np.einsum("tk,tk->t", self.IV, p2)
        if slot < 2:
            # Gamma is symmetric in its first two slots (Br is symmetric)
            o1, o2 = (local_coefficients(dm, y if slot == 0 else x, c)
                      for c in (0, 1))
            bo1 = np.einsum("tij,tj->ti", self.Br, o1)
            bo2 = np.einsum("tij,tj->ti", self.Br, o2)
            g1 = 0.5 * (iv2[:, None] * bo1 - iv1[:, None] * bo2)
            g2 = -0.5 * iv1[:, None] * bo1
        else:
            x1, x2 = (local_coefficients(dm, x, c) for c in (0, 1))
            y1, y2 = (local_coefficients(dm, y, c) for c in (0, 1))
            q12 = np.einsum("ti,tij,tj->t", x1, self.Br, y2)
            q21 = np.einsum("ti,tij,tj->t", x2, self.Br, y1)
            q11 = np.einsum("ti,tij,tj->t", x1, self.Br, y1)
            g1 = -0.5 * (q12 + q21)[:, None] * self.IV
            g2 = 0.5 * q11[:, None] * self.IV
        return np.concatenate([_scatter_vector(g1, dm), _scatter_vector(g2, dm)])


@lru_cache(maxsize=8)
def assembler(mesh, dofmap, problem) -> Assembler:
    return Assembler(mesh, dofmap, problem)


def _zero_load(pts):
    return np.zeros(np.shape(pts)[:-1])


_NS_PROBE = ProblemSpec(kind=ProblemKind.NAVIER_STOKES_MORLEY, f=_zero_load)
_VK_PROBE = ProblemSpec(kind=ProblemKind.VON_KARMAN_MORLEY, f=_zero_load)


def gamma_ns(mesh, dofmap, eta, chi, phi, problem=None):
    """Trilinear Navier-Stokes form sum_T int Delta(eta) (chi_y phi_x - chi_x phi_y)."""
    return assembler(mesh, dofmap, problem or _NS_PROBE).gamma_ns_value(eta, chi, phi)


def gamma_vk(mesh, dofmap, Xi, Theta, Phi, problem=None):
    """Coupled von Karman trilinear form on component pairs."""
    return assembler(mesh, dofmap, problem or _VK_PROBE).gamma_vk_value(Xi, Theta, Phi)

