"""Assembly of bilinear/trilinear forms, residuals and Jacobians.

Matrix convention: M[i, j] = form(trial basis j, test basis i), so the
residual of a linear problem reads M u - F.  Matrices, vectors and states U
live on the free dofs (von Karman: [u-block, v-block]); element arrays reach
them through dofmap.slots, whose constrained index n_free the scatters drop.
Every reduction is deterministic, so repeated runs are bitwise reproducible.

The Morley element tensors are exact closed forms in grad lambda and the
bubble weights W (README Notes), and the trilinear forms factor elementwise:

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
import scipy.sparse.linalg as spla

from .mesh import geometry
from .problems import ProblemKind, ProblemSpec
from .quadrature import quad_triangle
from .spaces import (DofMap, SpaceTag, basis_tables, build_dofmap,
                     element_blocks, local_coefficients, space_of)

__all__ = ["Assembler", "assembler"]

VOLUME_QUAD_DEGREE = 4


def _scatter_matrix(loc, dofmap: DofMap):
    """Assemble local matrices loc (nt, a, b), convention [test, trial]."""
    # the one int32 copy of the slots (numpy gathers faster with intp): the
    # COO indices, masked once from broadcast views, are the largest arrays
    # alive right before a Jacobian is factored, and the CSR is int32 anyway
    slots, n = dofmap.slots.astype(np.int32), dofmap.n_free
    rows, cols = np.broadcast_arrays(slots[:, :, None], slots[:, None, :])
    free = slots < n
    keep = free[:, :, None] & free[:, None, :]
    # tocsr returns a canonical CSR, its duplicates summed in place in
    # buffers as long as the COO: the copy keeps exactly nnz entries
    return sparse.coo_matrix((loc[keep], (rows[keep], cols[keep])),
                             shape=(n, n)).tocsr().copy()


def _block_diag2(A):
    """[[A, 0], [0, A]] for a CSR A, as a CSR built from A's own arrays."""
    n, nnz = A.shape[0], A.nnz
    return sparse.csr_matrix((np.concatenate([A.data, A.data]),
                              np.concatenate([A.indices, A.indices + n]),
                              np.concatenate([A.indptr, A.indptr[1:] + nnz])),
                             shape=(2 * n, 2 * n))


def _scatter_vector(loc, dofmap: DofMap):
    """Assemble local vectors loc (nt, nloc), summed in input order; the
    constrained slot n_free is dropped."""
    n = dofmap.n_free
    return np.bincount(dofmap.slots.ravel(), loc.ravel(), minlength=n + 1)[:n]


def _spd_extremes(A_vals):
    """[symmetry defect, max |A|, -lambda_min, lambda_max] of the samples
    A_vals (..., 2, 2): every entry a maximum, so np.maximum joins those of
    element blocks into the whole mesh's, NaN included."""
    half_tr = 0.5 * (A_vals[..., 0, 0] + A_vals[..., 1, 1])
    rad = np.sqrt((0.5 * (A_vals[..., 0, 0] - A_vals[..., 1, 1])) ** 2
                  + A_vals[..., 0, 1] ** 2)
    return np.array([np.abs(A_vals[..., 0, 1] - A_vals[..., 1, 0]).max(),
                     np.abs(A_vals).max(), -(half_tr - rad).min(),
                     (half_tr + rad).max()])


def _check_spd_bounds(extremes, bounds):
    """Raise unless the _spd_extremes of A are symmetric and within bounds."""
    lo, hi = bounds
    sym_defect, a_max, neg_lam_min, lam_max = extremes
    if sym_defect > 1e-10 * (1.0 + a_max):
        raise ValueError("coefficient matrix A is not symmetric")
    lam_min = -neg_lam_min
    tol = 1e-8 * max(1.0, hi)
    if lam_min < lo - tol or lam_max > hi + tol:
        raise ValueError(
            f"eigenvalues of A in [{lam_min:.3g}, {lam_max:.3g}] violate the "
            f"declared bounds [{lo:.3g}, {hi:.3g}]")


class Assembler:
    """One level: the dof map, basis tables, Gamma tensors and assembled
    operators of one problem on one mesh.

    Building it assembles every operator that does not depend on the state
    U (G, the load and, for CR, the Jacobian a_pw + b_pw), so a Newton step
    pays only for the contractions that do.  Raises ValueError when the
    samples of A are not symmetric or break problem.lambda_bounds.
    """

    def __init__(self, mesh, problem: ProblemSpec):
        space = space_of(problem.kind)
        self.mesh = mesh
        self.problem = problem
        self.dofmap = build_dofmap(mesh, space)
        self.geom = geometry(mesh)
        self.tables = basis_tables(mesh, space)
        lam = quad_triangle(VOLUME_QUAD_DEGREE).points
        if space is SpaceTag.MORLEY:
            W = self.tables.bubble_weights()

            def moments(sl, wf):    # [int f lambda, 0] + W^T int f bubble
                loc = np.einsum("tm,tmj->tj", wf @ (lam * (1.0 - lam)), W[sl])
                loc[:, :3] += wf @ lam
                return loc
            self._load = self._assemble_load(moments)
            a_loc = self._init_morley(W)
            del W
        else:
            vals = 1.0 - 2.0 * lam                      # the CR basis
            a_loc, b_loc = self._init_cr(vals)
            self._load = self._assemble_load(
                lambda sl, wf: np.einsum("tq,qk->tk", wf, vals))
        single = _scatter_matrix(a_loc, self.dofmap)
        del a_loc
        self._gram = single if problem.n_components == 1 else _block_diag2(single)
        if space is SpaceTag.CROUZEIX_RAVIART:
            # the CR problem is linear: J = a_pw + b_pw, the same for every U.
            # Both scatter the same slots, so b_pw has G's pattern, and J keeps
            # G's index arrays, with the sums that G + b_pw would make
            b_pw = _scatter_matrix(b_loc, self.dofmap)
            del b_loc
            G = self._gram
            self._jacobian = sparse.csr_matrix(
                (G.data + b_pw.data, G.indices, G.indptr), shape=G.shape)

    # -- element tensors ----------------------------------------------------

    def _init_morley(self, W):
        """Sets the Gamma tensors; returns the energy element matrices."""
        area = self.geom.area[:, None]
        gl = self.tables.grad_lambda
        gx, gy = np.moveaxis(gl, 2, 0)                          # (nt, 3) each
        # D^2 phi_j = -2 sum_m W_mj grad lambda_m (x) grad lambda_m: its
        # xx, xy, yx and yy entries are -2 y[:, 0], ..., -2 y[:, 3]
        y = np.stack([gx * gx, gx * gy, gx * gy, gy * gy], axis=1) @ W
        kind = self.problem.kind
        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            self.trH = -2.0 * (y[:, 0] + y[:, 3])
            # grad phi_j = a_j + sum_m (1 - 2 lambda_m) W_mj grad lambda_m
            # (a_j = grad lambda_j at a vertex, 0 at an edge), so up to a part
            # symmetric in j, k, int_T phi_j,y phi_k,x is
            # |T| a_j,y (a_k,x + w_k,x / 3) + |T| w_j,y a_k,x / 3, w = W^T gl
            ax, ay = (np.pad(g, ((0, 0), (0, 3))) for g in (gx, gy))
            wx, wy = np.moveaxis(np.swapaxes(gl, 1, 2) @ W, 1, 0) / 3.0
            P = np.stack([ay, wy], axis=2) @ np.stack([ax + wx, ax], axis=1)
            self.S = P - np.swapaxes(P, 1, 2)
            self.S *= area[:, :, None]
        elif kind is ProblemKind.VON_KARMAN_MORLEY:
            # [D^2 phi_i, D^2 phi_j] = sum_{m != n} W_mi W_nj / |T|^2, as
            # (grad lambda_m x grad lambda_n)^2 = 1 / (4 |T|^2) for m != n
            X = (np.swapaxes(W[:, :2], 1, 2)
                 @ np.stack([W[:, 1] + W[:, 2], W[:, 2]], axis=1))
            self.Br = X + np.swapaxes(X, 1, 2)
            self.Br /= (area ** 2)[:, :, None]
            self.IV = area * ((W[:, 0] + W[:, 1] + W[:, 2]) / 6.0)
            self.IV[:, :3] += area / 3.0
        # 4 |T| W^T (K o K) W = 4 |T| y^T y, one syrk: symmetric to the bit
        E = np.swapaxes(y, 1, 2) @ y
        E *= 4.0 * area[:, :, None]
        return E

    def _init_cr(self, rule_vals):
        """Element matrices of the energy form and of b_pw; rule_vals (nq, 3)
        are the basis values at the rule's points."""
        p, mesh = self.problem, self.mesh
        grads = self.tables.grads                              # (nt, 3, 2)
        a_loc = np.empty((mesh.n_triangles, 3, 3))
        b_loc = np.zeros_like(a_loc)
        extremes = np.full(4, -np.inf)
        for sl, xq, wdx in element_blocks(mesh, VOLUME_QUAD_DEGREE):
            (n, nq), g = wdx.shape, grads[sl]
            gT = np.swapaxes(g, 1, 2)
            # sampled at quadrature points, or at centroids only for
            # mesh-aligned piecewise constant coefficients
            pts = (mesh.vertices[mesh.triangles[sl]].mean(axis=1)[:, None]
                   if p.piecewise_constant else xq)
            A_vals, b_vals, g_vals = (
                None if fn is None else np.broadcast_to(fn(pts), (n, nq) + trailing)
                for fn, trailing in ((p.A, (2, 2)), (p.b, (2,)), (p.gamma, ())))
            if A_vals is not None:
                np.maximum(extremes, _spd_extremes(A_vals), out=extremes)
                # A enters the constant gradients only through its weighted sum
                A_bar = (wdx[:, None, :] @ A_vals.reshape(n, nq, 4)).reshape(n, 2, 2)
                a_loc[sl] = g @ A_bar @ gT
            else:
                a_loc[sl] = wdx.sum(axis=1)[:, None, None] * (g @ gT)
            if b_vals is not None:
                bg = b_vals @ gT                               # (n, nq, 3)
                b_loc[sl] += np.swapaxes(bg, 1, 2) @ (wdx[:, :, None] * rule_vals)
            if g_vals is not None:
                wg_vals = (wdx * g_vals)[:, :, None] * rule_vals
                b_loc[sl] += np.swapaxes(wg_vals, 1, 2) @ rule_vals
        if p.A is not None:
            _check_spd_bounds(extremes, p.lambda_bounds)
        return a_loc, b_loc

    def _assemble_load(self, moments):
        """The load vector [F(f), F(g)] (F(g) = 0 if g is unset; pairs
        only); moments(sl, wf) maps the weighted samples wf (n, nq) of a
        load on the element block sl to its element vectors (n, nloc)."""
        p, dm = self.problem, self.dofmap
        loads = (p.f, p.g)[:p.n_components]
        loc = np.zeros((len(loads),) + dm.slots.shape)
        for sl, xq, wdx in element_blocks(self.mesh, VOLUME_QUAD_DEGREE):
            for c, fn in enumerate(loads):
                if fn is not None:
                    loc[c, sl] = moments(sl, wdx * fn(xq))
        return np.concatenate([_scatter_vector(part, dm) for part in loc])

    # -- assembled operators -------------------------------------------------

    def gram(self):
        """Gram matrix G of the piecewise energy norm, the form a_pw:
        sum_T (D^2 ., D^2 .) for Morley, sum_T (A grad ., grad .) for CR;
        block diagonal for pairs."""
        return self._gram

    def load(self):
        return self._load

    def residual(self, U):
        """Entries N_h(U; phi_j) = a_pw(U, phi_j) + Gamma(U, U, phi_j) - F(phi_j)
        of the discrete residual over free test dofs (a_pw + b_pw for CR)."""
        if self.problem.kind is ProblemKind.SECOND_ORDER_CR:
            return self._jacobian @ U - self.load()
        return self._gram @ U - self.load() + self.gamma_gradient(2, U, U, None)

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
        """Derivative of the residual at U: a_pw + Gamma(U, ., .) + Gamma(., U, .);
        for CR the one matrix a_pw + b_pw assembled at set-up, whatever U."""
        kind = self.problem.kind
        if kind is ProblemKind.SECOND_ORDER_CR:
            return self._jacobian
        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            a_t, su, S, trH = self._linearization(U)
            loc = (a_t[:, None, None] * np.transpose(S, (0, 2, 1))
                   + su[:, :, None] * trH[:, None, :])
            return self._gram + _scatter_matrix(loc, self.dofmap)
        brU, brV, IV = self._linearization(U)
        J11 = _scatter_matrix(-np.einsum("tk,tj->tkj", IV, brV), self.dofmap)
        J12 = _scatter_matrix(-np.einsum("tk,tj->tkj", IV, brU), self.dofmap)
        blocks = sparse.bmat([[J11, J12], [-J12, None]])
        return (self._gram + blocks).tocsr()

    def jacobian_operator(self, U):
        """J(U) as a LinearOperator that applies the element factors of
        _linearization, with no matrix built; equals jacobian(U) up to
        round-off."""
        kind = self.problem.kind
        if kind is ProblemKind.SECOND_ORDER_CR:
            return spla.aslinearoperator(self._jacobian)
        G, dm, factors = self._gram, self.dofmap, self._linearization(U)
        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            a_t, su, S, trH = factors

            def matvec(v):
                v = np.ravel(v)     # scipy hands matmat its columns as (n, 1)
                c = local_coefficients(dm, v)
                loc = np.einsum("tj,tji->ti", c, S)
                loc *= a_t[:, None]
                loc += np.einsum("ti,ti->t", trH, c)[:, None] * su
                return G @ v + _scatter_vector(loc, dm)
        else:
            brU, brV, IV = factors

            def matvec(v):
                v = np.ravel(v)
                c1, c2 = (local_coefficients(dm, v, c) for c in (0, 1))
                s1 = np.einsum("tj,tj->t", brV, c1) + np.einsum("tj,tj->t", brU, c2)
                s2 = np.einsum("tj,tj->t", brU, c1)
                return G @ v + np.concatenate(
                    [_scatter_vector(s[:, None] * IV, dm) for s in (-s1, s2)])
        return spla.LinearOperator(G.shape, matvec=matvec, dtype=float)

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
        # every contraction is a two-operand einsum and a row dot, and a
        # slot gathers only the two arguments it reads
        if kind is ProblemKind.NAVIER_STOKES_MORLEY:
            if slot == 2:
                su = np.einsum("tj,tjk->tk", local_coefficients(dm, y), self.S)
            else:
                su = np.einsum("tjk,tk->tj", self.S, local_coefficients(dm, z))
            if slot == 0:
                cy = local_coefficients(dm, y)
                loc = self.trH * np.einsum("tj,tj->t", cy, su)[:, None]
            else:
                cx = local_coefficients(dm, x)
                loc = np.einsum("ti,ti->t", self.trH, cx)[:, None] * su
            return _scatter_vector(loc, dm)
        if kind is not ProblemKind.VON_KARMAN_MORLEY:
            raise ValueError("the CR problem has no trilinear form")
        # Br is symmetric, so Gamma is symmetric in its first two slots, and
        # each slot pairs Br with the argument in one of them
        o = x if slot == 1 else y
        b1, b2 = (np.einsum("tij,tj->ti", self.Br, local_coefficients(dm, o, c))
                  for c in (0, 1))
        if slot < 2:
            iv1, iv2 = (np.einsum("tk,tk->t", self.IV, local_coefficients(dm, z, c))
                        for c in (0, 1))
            g1 = 0.5 * (iv2[:, None] * b1 - iv1[:, None] * b2)
            g2 = -0.5 * iv1[:, None] * b1
        else:
            x1, x2 = (local_coefficients(dm, x, c) for c in (0, 1))
            q = np.einsum("ti,ti->t", x1, b2) + np.einsum("ti,ti->t", x2, b1)
            g1 = -0.5 * q[:, None] * self.IV
            g2 = 0.5 * np.einsum("ti,ti->t", x1, b1)[:, None] * self.IV
        return np.concatenate([_scatter_vector(g1, dm), _scatter_vector(g2, dm)])


# caches nothing: perfbench traces it and reads cache_info() (ROADMAP item 1)
@lru_cache(maxsize=0)
def assembler(mesh, problem) -> Assembler:
    return Assembler(mesh, problem)

