"""Sparse solves, Newton iteration with Kantorovich diagnostics, inf-sup.

All norms here are energy norms: the Gram matrix G is the assembled piecewise
energy form (broken H^2 for Morley, A-weighted broken H^1 for CR), residuals
are measured in the G-dual norm sqrt(r^T G^-1 r) and corrections in
sqrt(d^T G d).

The Kantorovich report computes
  beta0  smallest singular value of the Jacobian between energy norms,
  delta  energy norm of the first Newton correction at the given state,
  m      = 2 * gamma_norm_estimate / beta0   (curvature / stability ratio),
  h      = delta * m,
and the radii r_minus = (1 - sqrt(1 - 2h)) / m - delta (around the first
iterate) and rho = (1 + sqrt(1 - 2h)) / m (uniqueness radius).  The trilinear
form norm is not computable in closed form; gamma_norm_estimate is a sampled
lower bound (random triples plus alternating maximization), so condition_met
(4 delta |Gamma| < beta0) is advisory and never gates a solve.  Newton
damping is intentionally absent; divergence is reported, not masked.

beta0 = infsup_constant(J^T, G, G) and the discrete inf-sup constant share one
routine: ARPACK shift-invert Lanczos (Lehoucq, Sorensen and Yang, 1998) from a
fixed start vector; non-convergence raises ArpackNoConvergence (RuntimeError).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .assembly import assembler
from .problems import ProblemKind
from .spaces import DiscreteFunction, basis_tables, local_coefficients
from .quadrature import quad_triangle

__all__ = [
    "sparse_solve", "energy_dual_norm", "NewtonTrace", "newton_solve",
    "KantorovichReport", "kantorovich_report", "infsup_constant",
    "gamma_norm_lower_bound", "discrete_embedding_ratio", "fd_jacobian",
]


def _as_csc(A):
    if sparse.issparse(A):
        return A.tocsc()
    return sparse.csc_matrix(np.atleast_2d(A))


def sparse_solve(A, rhs):
    """Direct sparse solve with partial pivoting; one step of iterative
    refinement if the residual check fails, then an error."""
    A = _as_csc(A)
    rhs = np.asarray(rhs, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != rhs.shape[0]:
        raise ValueError("sparse_solve needs a square matrix matching the rhs")
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            x = spla.spsolve(A, rhs)
        except (spla.MatrixRankWarning, RuntimeError) as exc:
            raise RuntimeError("matrix is numerically singular") from exc
    if not np.isfinite(x).all():
        raise RuntimeError("matrix is numerically singular")
    tol = 1e-10 * (1.0 + np.abs(rhs).max(initial=0.0))
    resid = rhs - A @ x
    if np.abs(resid).max(initial=0.0) > tol:
        x = x + spla.spsolve(A, resid)
        resid = rhs - A @ x
        if np.abs(resid).max(initial=0.0) > tol:
            raise RuntimeError("sparse solve failed the residual check "
                               f"({np.abs(resid).max():.3e} > {tol:.3e})")
    return x


def energy_dual_norm(residual, gram):
    """sqrt(r^T G^-1 r) for an SPD Gram matrix G."""
    residual = np.asarray(residual, dtype=float)
    if not np.any(residual):
        return 0.0
    x = sparse_solve(gram, residual)
    return float(np.sqrt(max(residual @ x, 0.0)))


@dataclass
class NewtonTrace:
    residual_norms: list = field(default_factory=list)   # per visited iterate
    correction_norms: list = field(default_factory=list)  # per Newton step
    converged: bool = False
    iterations: int = 0


def newton_solve(mesh, dofmap, problem, U0=None, tol: float = 1e-10,
                 max_iter: int = 20):
    """Undamped Newton iteration; stops once the correction energy norm or
    the residual dual norm drops to tol.  Linear problems converge in one
    step.  Returns (solution, trace); max_iter exhaustion is reported via
    trace.converged = False, a singular Jacobian raises."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    asm = assembler(mesh, dofmap, problem)
    n = dofmap.n_free * problem.n_components
    if U0 is None:
        U = DiscreteFunction(space=dofmap.space,
                             n_components=problem.n_components,
                             coeffs=np.zeros(n))
    else:
        if len(U0.coeffs) != n:
            raise ValueError("initial iterate does not match the dof map")
        U = U0
    G = asm.gram()
    Glu = spla.splu(G.tocsc())

    def dual(r):
        return float(np.sqrt(max(r @ Glu.solve(r), 0.0)))

    trace = NewtonTrace()
    for _ in range(max_iter):
        r = asm.residual(U)
        rn = dual(r)
        trace.residual_norms.append(rn)
        if rn <= tol:
            trace.converged = True
            break
        J = asm.jacobian(U)
        d = sparse_solve(J, -r)
        dn = float(np.sqrt(max(d @ (G @ d), 0.0)))
        trace.correction_norms.append(dn)
        trace.iterations += 1
        U = DiscreteFunction(space=U.space, n_components=U.n_components,
                             coeffs=U.coeffs + d)
        if dn <= tol:
            trace.residual_norms.append(dual(asm.residual(U)))
            trace.converged = True
            break
    return U, trace


def _gamma_slot_gradients(asm, kind):
    """Dual vectors w with w_i = Gamma(..., phi_i, ...) for each slot."""
    from .assembly import _scatter_vector

    dm = asm.dofmap

    if kind is ProblemKind.NAVIER_STOKES_MORLEY:
        def value(x, y, z):
            return asm.gamma_ns_value(x, y, z)

        def grad(slot, x, y, z):
            cx = local_coefficients(dm, x)
            cy = local_coefficients(dm, y)
            cz = local_coefficients(dm, z)
            if slot == 0:
                c = np.einsum("tj,tjk,tk->t", cy, asm.S, cz)
                return _scatter_vector(asm.trH * c[:, None], dm)
            a_t = np.einsum("ti,ti->t", asm.trH, cx)
            if slot == 1:
                return _scatter_vector(
                    a_t[:, None] * np.einsum("tjk,tk->tj", asm.S, cz), dm)
            return _scatter_vector(
                a_t[:, None] * np.einsum("tj,tjk->tk", cy, asm.S), dm)
        return value, grad

    def value(x, y, z):
        return asm.gamma_vk_value(x, y, z)

    def grad(slot, Xi, Theta, Phi):
        x1, x2 = (local_coefficients(dm, Xi, c) for c in (0, 1))
        t1, t2 = (local_coefficients(dm, Theta, c) for c in (0, 1))
        p1, p2 = (local_coefficients(dm, Phi, c) for c in (0, 1))
        Br, IV = asm.Br, asm.IV
        iv1 = np.einsum("tk,tk->t", IV, p1)
        iv2 = np.einsum("tk,tk->t", IV, p2)
        if slot == 0:
            g1 = -0.5 * np.einsum("tij,tj,t->ti", Br, t2, iv1) \
                + 0.5 * np.einsum("tij,tj,t->ti", Br, t1, iv2)
            g2 = -0.5 * np.einsum("tij,tj,t->ti", Br, t1, iv1)
        elif slot == 1:
            g1 = -0.5 * np.einsum("tij,tj,t->ti", Br, x2, iv1) \
                + 0.5 * np.einsum("tij,tj,t->ti", Br, x1, iv2)
            g2 = -0.5 * np.einsum("tij,tj,t->ti", Br, x1, iv1)
        else:
            q12 = np.einsum("ti,tij,tj->t", x1, Br, t2)
            q21 = np.einsum("ti,tij,tj->t", x2, Br, t1)
            q11 = np.einsum("ti,tij,tj->t", x1, Br, t1)
            g1 = -0.5 * (q12 + q21)[:, None] * IV
            g2 = 0.5 * q11[:, None] * IV
            return np.concatenate([_scatter_vector(g1, dm),
                                   _scatter_vector(g2, dm)])
        return np.concatenate([_scatter_vector(g1, dm), _scatter_vector(g2, dm)])
    return value, grad


def gamma_norm_lower_bound(mesh, dofmap, problem, n_samples: int = 1000,
                           seed: int = 0, refine_rounds: int = 6):
    """Sampled lower bound for the trilinear form norm
    sup |Gamma(x, y, z)| / (|x| |y| |z|) in energy norms: random triples plus
    alternating slot maximization from the best sample."""
    kind = problem.kind
    if kind is ProblemKind.SECOND_ORDER_CR:
        return 0.0
    asm = assembler(mesh, dofmap, problem)
    G = asm.gram()
    Glu = spla.splu(G.tocsc())
    n = dofmap.n_free * problem.n_components
    rng = np.random.default_rng(seed)

    def wrap(c):
        return DiscreteFunction(space=dofmap.space,
                                n_components=problem.n_components, coeffs=c)

    def normalize(c):
        nrm = np.sqrt(max(c @ (G @ c), 1e-300))
        return c / nrm

    value, grad = _gamma_slot_gradients(asm, kind)

    best, best_triple = 0.0, None
    for _ in range(n_samples):
        triple = [normalize(rng.standard_normal(n)) for _ in range(3)]
        v = abs(value(*(wrap(c) for c in triple)))
        if v > best:
            best, best_triple = v, triple

    if best_triple is None:
        return 0.0
    triple = [c.copy() for c in best_triple]
    for _ in range(refine_rounds):
        for slot in range(3):
            w = grad(slot, *(wrap(c) for c in triple))
            c = Glu.solve(w)
            nrm = np.sqrt(max(c @ w, 1e-300))  # = |w|_{G^-1}
            if nrm <= 0:
                continue
            triple[slot] = normalize(c)
        best = max(best, abs(value(*(wrap(c) for c in triple))))
    return float(best)


@dataclass
class KantorovichReport:
    beta0: float
    delta: float
    gamma_norm_estimate: float  # sampled lower bound for the trilinear norm
    m: float
    h: float
    r_minus: float
    rho: float
    condition_met: bool


def kantorovich_report(mesh, dofmap, problem, U0=None, n_samples: int = 1000,
                       seed: int = 0):
    """Newton-Kantorovich constants at the state U0 (default 0)."""
    asm = assembler(mesh, dofmap, problem)
    n = dofmap.n_free * problem.n_components
    if U0 is None:
        U0 = DiscreteFunction(space=dofmap.space,
                              n_components=problem.n_components,
                              coeffs=np.zeros(n))
    G = asm.gram()
    J = asm.jacobian(U0)
    beta0 = infsup_constant(J.T, G, G)
    if beta0 <= 0:
        raise RuntimeError("singular Jacobian: beta0 = 0")
    d = sparse_solve(J, -asm.residual(U0))
    delta = float(np.sqrt(max(d @ (G @ d), 0.0)))
    gamma_est = gamma_norm_lower_bound(mesh, dofmap, problem,
                                       n_samples=n_samples, seed=seed)
    if gamma_est == 0.0:
        return KantorovichReport(beta0=beta0, delta=delta,
                                 gamma_norm_estimate=0.0, m=0.0, h=0.0,
                                 r_minus=0.0, rho=np.inf, condition_met=True)
    m = 2.0 * gamma_est / beta0
    h = delta * m
    if h <= 0.5:
        root = np.sqrt(1.0 - 2.0 * h)
        r_minus = (1.0 - root) / m - delta
        rho = (1.0 + root) / m
    else:
        r_minus = np.nan
        rho = np.nan
    return KantorovichReport(beta0=beta0, delta=delta,
                             gamma_norm_estimate=gamma_est, m=m, h=h,
                             r_minus=r_minus, rho=rho,
                             condition_met=bool(4.0 * delta * gamma_est < beta0))


def _spd_factor(M, name):
    """SuperLU factor of a sparse M; ValueError unless M is SPD.  With
    diag_pivot_thresh=0 an SPD M keeps perm_r == perm_c, and by Sylvester's
    law of inertia it is SPD iff every pivot in diag(U) is positive."""
    if abs(M - M.T).max() > 1e-10 * max(abs(M).max(), 1.0):
        raise ValueError(f"{name} is not symmetric")
    try:
        lu = spla.splu(M, diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise ValueError(f"{name} is not positive definite") from exc
    if (lu.perm_r != lu.perm_c).any() or (lu.U.diagonal() <= 0).any():
        raise ValueError(f"{name} is not positive definite")
    return lu


def infsup_constant(B, Gx, Gy):
    """Smallest generalized singular value

        beta = inf_x sup_y (x^T B y) / sqrt(x^T Gx x * y^T Gy y)

    of a square B: sqrt(lambda_min) of the pencil (B Gy^-1 B^T, Gx), found by
    shift-invert Lanczos at sigma = 0 with the inverse B^-T Gy B^-1."""
    same_gram = Gy is Gx
    B, Gx, Gy = _as_csc(B), _as_csc(Gx), _as_csc(Gy)
    Gxlu = _spd_factor(Gx, "Gx")
    Gylu = Gxlu if same_gram else _spd_factor(Gy, "Gy")
    n = B.shape[0]
    if not B.shape == Gx.shape == Gy.shape == (n, n):
        raise ValueError("infsup_constant needs a square B matching Gx and Gy")
    if n == 1:  # ARPACK needs n >= 2
        return float(abs(B[0, 0]) / np.sqrt(Gx[0, 0] * Gy[0, 0]))
    Blu = spla.splu(B)
    # shift-invert mode applies only OPinv and M; A states the pencil
    A = spla.LinearOperator((n, n), dtype=float,
                            matvec=lambda x: B @ Gylu.solve(B.T @ x))
    OPinv = spla.LinearOperator(
        (n, n), dtype=float,
        matvec=lambda x: Blu.solve(Gy @ Blu.solve(x), trans="T"))
    v0 = np.random.default_rng(0).standard_normal(n)
    lam = spla.eigsh(A, k=1, M=Gx, sigma=0.0, OPinv=OPinv, v0=v0,
                     return_eigenvectors=False)[0]
    return float(np.sqrt(max(lam, 0.0)))


def fd_jacobian(mesh, dofmap, problem, U: DiscreteFunction, step: float = 1e-6):
    """Central-difference Jacobian of the residual; the independent oracle
    for Assembler.jacobian (exact for quadratic residuals up to round-off)."""
    asm = assembler(mesh, dofmap, problem)
    n = len(U.coeffs)
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        rp = asm.residual(DiscreteFunction(U.space, U.n_components, U.coeffs + e))
        rm = asm.residual(DiscreteFunction(U.space, U.n_components, U.coeffs - e))
        out[:, j] = (rp - rm) / (2.0 * step)
    return out


def discrete_embedding_ratio(mesh, dofmap, problem=None, n_samples: int = 100,
                             seed: int = 0):
    """max over random Morley functions of |v|_sup / |v|_pw, with the sup
    norm sampled at vertices, edge midpoints and interior quadrature points."""
    from .assembly import _NS_PROBE

    asm = assembler(mesh, dofmap, problem or _NS_PROBE)
    G = asm.gram()
    tab = basis_tables(mesh, dofmap.space)
    rule = quad_triangle(4)
    bary = np.vstack([np.eye(3), 0.5 * (np.eye(3) + np.roll(np.eye(3), 1, axis=0)),
                      rule.points])
    pts = np.einsum("qk,tkd->tqd", bary, mesh.vertices[mesh.triangles])
    tris = np.arange(mesh.n_triangles)
    V = tab.values_at(tris, pts)                     # (nt, nq, nloc)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        c = rng.standard_normal(dofmap.n_free)
        u = DiscreteFunction(space=dofmap.space, n_components=1, coeffs=c)
        cu = local_coefficients(dofmap, u)
        sup = np.abs(np.einsum("tqj,tj->tq", V, cu)).max()
        energy = np.sqrt(max(c @ (G @ c), 1e-300))
        worst = max(worst, sup / energy)
    return float(worst)
