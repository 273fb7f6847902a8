"""Assembly of bilinear/trilinear forms, residuals and Jacobians.

Matrix convention: M[i, j] = form(trial basis j, test basis i), so the
residual of a linear problem reads M u - F.  Constrained dofs are eliminated;
all matrices and vectors live on free dofs (von Karman systems are 2x2 block
systems ordered [u-block, v-block]), and so are the states U (see spaces).

Everything is element-local and assembled with deterministic numpy
reductions, so repeated runs are bitwise reproducible.  The piecewise
structure of Morley functions makes every Morley element tensor exact:
hessians are elementwise constant, so the energy tensor is |T| H H^T, and
basis gradients are affine, so the Navier-Stokes pairing S comes in closed
form from the centroid gradients and the second moment of the element; the
load and the basis integrals use the degree-4 rule.

For the Morley space the trilinear forms factor elementwise:

* Navier-Stokes:   Gamma(eta, chi, phi)|_T = (tr H . eta) (chi^T S phi)
  with tr H the constant basis Laplacians and S the antisymmetrized
  grad-x-grad pairing;
* von Karman:      b(eta, chi, phi)|_T = -1/2 (eta^T Br chi) (IV . phi)
  with Br the constant bracket pairing [phi_i, phi_j] and IV the basis
  integrals.

Each Gamma is written out once, in Assembler.gamma_gradient; the residual
a_pw(U, .) + Gamma(U, U, .) - F and gamma_ns_value / gamma_vk_value contract
its slot-2 vector.  Besides, only the private _linearization reads the
tensors above: it computes the element factors of J(U) that depend on U,
from which jacobian assembles a CSR and jacobian_operator applies J element
by element, with no matrix built (the Newton GMRES steps use the latter).

An Assembler is one level: a mesh, a problem, its dof map and basis tables,
and every operator on them.  The level driver and the CLI build it once per
mesh and hand it to the solvers, estimators and transfers, which read
asm.dofmap, asm.tables, asm.geom and asm.problem.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .mesh import geometry
from .problems import ProblemKind, ProblemSpec
from .quadrature import quad_triangle
from .spaces import (DofMap, SpaceTag, basis_tables, build_dofmap,
                     local_coefficients, space_of, volume_quadrature)

__all__ = ["Assembler", "assembler"]

VOLUME_QUAD_DEGREE = 4


def _scatter_matrix(loc, dofmap: DofMap):
    """Assemble local matrices loc (nt, a, b), convention [test, trial]."""
    # int32 indices, masked once from broadcast views: the COO transients
    # are the largest arrays alive right before a Jacobian is factored
    fo = dofmap.free_of_dof[dofmap.element_dofs].astype(np.int32)
    nt, nloc = fo.shape
    rows = np.broadcast_to(fo[:, :, None], (nt, nloc, nloc))
    cols = np.broadcast_to(fo[:, None, :], (nt, nloc, nloc))
    free = fo >= 0
    keep = free[:, :, None] & free[:, None, :]
    n = dofmap.n_free
    mat = sparse.coo_matrix((loc[keep], (rows[keep], cols[keep])), shape=(n, n))
    out = mat.tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


def _slots(dofmap: DofMap):
    """The free index of every element dof (nt, nloc), n_free where the dof
    is fixed: a gather from [u, 0] reads 0 there, and a scatter drops it."""
    fo = dofmap.free_of_dof[dofmap.element_dofs]
    return np.where(fo < 0, dofmap.n_free, fo)


def _scatter_vector(loc, dofmap: DofMap, slots=None):
    """Assemble local vectors loc (nt, nloc).  bincount adds in input order,
    as np.add.at does, so the sums are the same to the bit."""
    if slots is None:
        slots = _slots(dofmap)
    n = dofmap.n_free
    return np.bincount(slots.ravel(), loc.ravel(), minlength=n + 1)[:n]


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
    """One level: the problem's dof map, basis tables, element tensors and
    assembled operators on one mesh.

    Building one assembles every operator that does not depend on the state
    U (G, the load, and b_pw for CR), so Newton iterations only pay for the
    state-dependent contractions.  It keeps those and the element tensors of
    Gamma (S and trH, or Br and IV), which the Jacobian reads; the energy
    element matrices and the quadrature points go once G exists.
    """

    def __init__(self, mesh, problem: ProblemSpec):
        space = space_of(problem.kind)
        self.mesh = mesh
        self.problem = problem
        self.dofmap = build_dofmap(mesh, space)
        self.geom = geometry(mesh)
        self.tables = basis_tables(mesh, space)
        xq, wdx = volume_quadrature(mesh, VOLUME_QUAD_DEGREE)
        vals = self.tables.values_at(quad_triangle(VOLUME_QUAD_DEGREE).points)
        self._b_csr = None
        if space is SpaceTag.MORLEY:
            a_loc = self._init_morley(wdx, vals)
        else:
            a_loc, b_loc = self._init_cr(xq, wdx, vals)
            self._b_csr = _scatter_matrix(b_loc, self.dofmap)
        single = _scatter_matrix(a_loc, self.dofmap)
        if problem.n_components == 2:
            single = sparse.block_diag([single, single]).tocsr()
        self._a_csr = single
        self._load = self._assemble_load(xq, wdx, vals)

    # -- element tensors ----------------------------------------------------

    def _init_morley(self, wdx, vals):
        """Sets the Gamma tensors; returns the energy element matrices."""
        tab = self.tables
        hess = tab.hess                                       # (nt, 6, 2, 2)
        area = self.geom.area[:, None, None]
        h4 = hess.reshape(-1, 6, 4)
        self.trH = hess[:, :, 0, 0] + hess[:, :, 1, 1]        # (nt, 6)
        kind = self.problem.kind
        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            # grad phi_j = g_j + H_j (x - c) is affine and int_T (x - c) = 0,
            # so int_T phi_j,y phi_k,x = |T| g_j,y g_k,x + (H_j M H_k)_yx
            # with M the second moment of T about its centroid c
            p = self.mesh.vertices[self.mesh.triangles]
            d = p - p.mean(axis=1, keepdims=True)
            g = np.swapaxes(tab.centroid_grads(), 1, 2)       # (nt, 2, 6)
            M = (area / 12.0) * (np.swapaxes(d, 1, 2) @ d)    # (nt, 2, 2)
            P = (area * (g[:, 1, :, None] * g[:, 0, None, :])
                 + hess[:, :, 1, :] @ M @ np.swapaxes(hess[:, :, :, 0], 1, 2))
            self.S = P - np.swapaxes(P, 1, 2)
        elif kind is ProblemKind.VON_KARMAN_MORLEY:
            hxx, hxy, hyy = hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1]
            self.Br = (np.einsum("ti,tj->tij", hxx, hyy)
                       + np.einsum("ti,tj->tij", hyy, hxx)
                       - 2.0 * np.einsum("ti,tj->tij", hxy, hxy))
            self.IV = np.einsum("tq,tqk->tk", wdx, vals)
        return area * (h4 @ np.swapaxes(h4, 1, 2))

    def _init_cr(self, xq, wdx, rule_vals):
        """Element matrices of the energy form and of b_pw, by matmuls over
        the quadrature points."""
        p = self.problem
        nt, nq = xq.shape[:2]
        grads = self.tables.grads                              # (nt, 3, 2)
        gradsT = np.swapaxes(grads, 1, 2)

        def coeff(fn, trailing):
            # sampled at quadrature points, or at centroids only for
            # mesh-aligned piecewise constant coefficients
            if fn is None:
                return None
            if p.piecewise_constant:
                vals = fn(self.mesh.vertices[self.mesh.triangles].mean(axis=1))
                vals = vals[:, None, ...]
            else:
                vals = fn(xq)
            return np.broadcast_to(vals, (nt, nq) + trailing)

        A_vals = coeff(p.A, (2, 2))
        if A_vals is not None:
            _check_spd_bounds(A_vals, p.lambda_bounds)
            # A enters the constant gradients only through its weighted sum
            A_bar = (wdx[:, None, :] @ A_vals.reshape(nt, nq, 4)).reshape(nt, 2, 2)
            a_loc = grads @ A_bar @ gradsT
        else:
            a_loc = wdx.sum(axis=1)[:, None, None] * (grads @ gradsT)

        b_vals = coeff(p.b, (2,))
        g_vals = coeff(p.gamma, ())
        b_loc = np.zeros_like(a_loc)
        if b_vals is not None:
            bg = b_vals @ gradsT                               # (nt, nq, 3)
            b_loc += np.swapaxes(bg, 1, 2) @ (wdx[:, :, None] * rule_vals)
        if g_vals is not None:
            wg_vals = (wdx * g_vals)[:, :, None] * rule_vals
            b_loc += np.swapaxes(wg_vals, 1, 2) @ rule_vals
        return a_loc, b_loc

    def _assemble_load(self, xq, wdx, vals):
        def scatter(fn):
            loc = np.einsum("tq,tqk->tk", wdx * fn(xq), vals)
            return _scatter_vector(loc, self.dofmap)

        load = scatter(self.problem.f)
        if self.problem.n_components == 2:
            g = self.problem.g
            F2 = np.zeros(self.dofmap.n_free) if g is None else scatter(g)
            load = np.concatenate([load, F2])
        return load

    # -- assembled operators -------------------------------------------------

    def a_matrix(self):
        """Piecewise energy form: sum_T (D^2 ., D^2 .) for Morley,
        sum_T (A grad ., grad .) for CR; block diagonal for pairs."""
        return self._a_csr

    def b_matrix(self):
        if self.problem.kind is not ProblemKind.SECOND_ORDER_CR:
            raise ValueError("b_pw matrix is defined for the CR problem only")
        return self._b_csr

    def gram(self):
        """Gram matrix of the piecewise energy norm (equals a_matrix)."""
        return self.a_matrix()

    def load(self):
        return self._load

    def residual(self, U):
        """Entries N_h(U; phi_j) = a_pw(U, phi_j) + Gamma(U, U, phi_j) - F(phi_j)
        of the discrete residual over free test dofs (a_pw + b_pw for CR)."""
        if self.problem.kind is ProblemKind.SECOND_ORDER_CR:
            return (self.a_matrix() + self.b_matrix()) @ U - self.load()
        return self.a_matrix() @ U - self.load() + self.gamma_gradient(2, U, U, None)

    def _linearization(self, U):
        """The element factors of J(U) - a_pw that depend on U, computed once
        per state, with the Gamma tensors they pair with.  Navier-Stokes:
        (tr H . u_T, u_T S, S, tr H), and J_T - a_T = (tr H . u_T) S^T +
        (u_T S) (x) tr H.  von Karman: (Br u, Br v, IV), and the element
        blocks are [[-IV (x) Br v, -IV (x) Br u], [IV (x) Br u, 0]]."""
        dm = self.dofmap
        if self.problem.kind is ProblemKind.NAVIER_STOKES_MORLEY:
            cu = local_coefficients(dm, U)
            return (np.einsum("ti,ti->t", self.trH, cu),
                    np.einsum("ti,tik->tk", cu, self.S), self.S, self.trH)
        cu, cv = (local_coefficients(dm, U, c) for c in (0, 1))
        return (np.einsum("tij,tj->ti", self.Br, cu),
                np.einsum("tij,tj->ti", self.Br, cv), self.IV)

    def jacobian(self, U):
        """Derivative of the residual at U: a_pw + Gamma(U, ., .) + Gamma(., U, .)."""
        kind = self.problem.kind
        if kind is ProblemKind.SECOND_ORDER_CR:
            return (self.a_matrix() + self.b_matrix()).tocsr()
        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            a_t, su, S, trH = self._linearization(U)
            loc = (a_t[:, None, None] * np.transpose(S, (0, 2, 1))
                   + su[:, :, None] * trH[:, None, :])
            return self.a_matrix() + _scatter_matrix(loc, self.dofmap)
        brU, brV, IV = self._linearization(U)
        J11 = _scatter_matrix(-np.einsum("tk,tj->tkj", IV, brV), self.dofmap)
        J12 = _scatter_matrix(-np.einsum("tk,tj->tkj", IV, brU), self.dofmap)
        J21 = _scatter_matrix(np.einsum("tk,tj->tkj", IV, brU), self.dofmap)
        blocks = sparse.bmat([[J11, J12], [J21, None]])
        return (self.a_matrix() + blocks).tocsr()

    def jacobian_operator(self, U):
        """J(U) as a LinearOperator: a product applies the element factors of
        _linearization to the local coefficients of its argument and
        scatters the element vectors once, with no matrix built.  The
        gather and scatter index is made once per operator.  Equals
        jacobian(U) @ v up to round-off."""
        A = self.a_matrix()
        kind = self.problem.kind
        if kind is ProblemKind.SECOND_ORDER_CR:
            return spla.aslinearoperator(self.jacobian(U))
        dm, factors = self.dofmap, self._linearization(U)
        n, slots = dm.n_free, _slots(dm)

        def local(v, c):        # local coefficients of component c
            return np.append(v[c * n:(c + 1) * n], 0.0)[slots]

        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            a_t, su, S, trH = factors

            def matvec(v):
                v = np.ravel(v)     # scipy hands matmat its columns as (n, 1)
                c = local(v, 0)
                loc = np.einsum("tj,tji->ti", c, S)
                loc *= a_t[:, None]
                loc += np.einsum("ti,ti->t", trH, c)[:, None] * su
                return A @ v + _scatter_vector(loc, dm, slots)
        else:
            brU, brV, IV = factors

            def matvec(v):
                v = np.ravel(v)
                c1, c2 = local(v, 0), local(v, 1)
                s1 = np.einsum("tj,tj->t", brV, c1) + np.einsum("tj,tj->t", brU, c2)
                s2 = np.einsum("tj,tj->t", brU, c1)
                return A @ v + np.concatenate(
                    [_scatter_vector(s[:, None] * IV, dm, slots) for s in (-s1, s2)])
        return spla.LinearOperator(A.shape, matvec=matvec, dtype=float)

    # -- trilinear forms -----------------------------------------------------

    def gamma_ns_value(self, eta, chi, phi):
        """Trilinear Navier-Stokes form
        sum_T int_T Delta(eta) (chi_y phi_x - chi_x phi_y)."""
        return float(self.gamma_gradient(2, eta, chi, None) @ phi)

    def gamma_vk_value(self, Xi, Theta, Phi):
        """Coupled von Karman trilinear form on component pairs,
        b(xi1, theta2, phi1) + b(xi2, theta1, phi1) - b(xi1, theta1, phi2)."""
        return float(self.gamma_gradient(2, Xi, Theta, None) @ Phi)

    def gamma_gradient(self, slot, x, y, z):
        """Dual vector w with w_i = Gamma(..., phi_i, ...), the basis function
        phi_i in `slot` (0, 1 or 2) and the other slots held at x, y, z; so
        Gamma(x, y, z) = w . (coefficients of that slot's argument)."""
        dm = self.dofmap
        kind = self.problem.kind
        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            # gather only the two arguments the slot reads
            if slot == 0:
                cy, cz = (local_coefficients(dm, u) for u in (y, z))
                loc = self.trH * np.einsum("tj,tjk,tk->t", cy, self.S, cz)[:, None]
            else:
                cx = local_coefficients(dm, x)
                if slot == 1:
                    su = np.einsum("tjk,tk->tj", self.S, local_coefficients(dm, z))
                else:
                    su = np.einsum("tj,tjk->tk", local_coefficients(dm, y), self.S)
                loc = np.einsum("ti,ti->t", self.trH, cx)[:, None] * su
            return _scatter_vector(loc, dm)
        if kind is not ProblemKind.VON_KARMAN_MORLEY:
            raise ValueError("the CR problem has no trilinear form")
        if slot < 2:
            # Gamma is symmetric in its first two slots (Br is symmetric)
            p1, p2 = (local_coefficients(dm, z, c) for c in (0, 1))
            iv1 = np.einsum("tk,tk->t", self.IV, p1)
            iv2 = np.einsum("tk,tk->t", self.IV, p2)
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
            # = x2^T Br y1 (Br symmetric bitwise), and q12 + q21 = 2 q12 at x = y
            q21 = np.einsum("ti,tij,tj->t", y1, self.Br, x2)
            q11 = np.einsum("ti,tij,tj->t", x1, self.Br, y1)
            g1 = -0.5 * (q12 + q21)[:, None] * self.IV
            g2 = 0.5 * q11[:, None] * self.IV
        return np.concatenate([_scatter_vector(g1, dm), _scatter_vector(g2, dm)])


# one entry, the last level built: each level is built once and handed down
@lru_cache(maxsize=1)
def assembler(mesh, problem) -> Assembler:
    return Assembler(mesh, problem)

