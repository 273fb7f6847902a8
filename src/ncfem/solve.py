"""Sparse solves, Newton iteration with Kantorovich diagnostics, inf-sup.

Norms.  All norms are energy norms: the Gram matrix G is the assembled
piecewise energy form (broken H^2 for Morley, A-weighted broken H^1 for CR),
residuals are measured in the G-dual norm sqrt(r^T G^-1 r) and corrections
in sqrt(d^T G d).  A routine on one level takes its Assembler.

Factors.  Every splu (_splu: G, unpivoted by _gram_factor, and B in _infsup)
orders the columns by minimum degree on the pattern of A^T + A (George and
Liu, SIAM Rev. 1989), which suits these pattern-symmetric matrices, with
unrelaxed supernodes (relax=1) and panels one column wide: under this order
wider ones store zeros and cost time.  sparse_solve's spla.spsolve takes no
relax, so it stays on COLAMD.  Every nonsymmetric factorization
(sparse_solve, B in _infsup) first equilibrates symmetrically by powers of
two (_equilibrate; Duff and Koster, SIMAX 2001), exactly, so that partial
pivoting keeps the Morley diagonal, whose entries differ by about h^-2.
Every splu, and the first spsolve of sparse_solve, starts from a trimmed
heap (_release_free_heap), so that freed buffers are not resident under its
L and U; a trim changes no number.

Newton.  newton_solve is undamped: divergence is reported, not masked.  It
factors G once and reuses the factor for every residual norm and as the
preconditioner of its GMRES steps.  G^-1 J is the identity plus a compact
term, so GMRES on it needs a number of iterations that does not grow with
the mesh (Kirby, SIAM Rev. 2010); _gram_gmres runs it in the G inner
product (Pestana and Wathen, JCAM 2013) to the G-dual norm that the Newton
loop tests, with target tol / 100, and applies J element by element
(Assembler.jacobian_operator), so the CSR of J is built only for a direct
solve.  A warm start (a given U0) takes every step by GMRES, so G is the
only matrix it factors, and a U0 that already meets tol costs that factor
and no solve.  A cold start (U0 None) takes a direct first step through
sparse_solve before G is factored and before the residual test, so the LU
of J is gone when G is factored; it stays only because perfbench/ requires
the solve.spsolve span on every workload.  A step whose GMRES misses its
target within KRYLOV_MAX iterations falls back to sparse_solve.

Kantorovich.  The report computes
  beta0  smallest singular value of the Jacobian between energy norms,
  delta  energy norm of the first Newton correction at the given state,
  m      = 2 * gamma_norm_estimate / beta0   (curvature / stability ratio),
  h      = delta * m,
and the radii r_minus = (1 - sqrt(1 - 2h)) / m - delta (around the first
iterate), computed as delta 2h / (1 + sqrt(1 - 2h))^2 because the difference
cancels for small h, and rho = (1 + sqrt(1 - 2h)) / m (uniqueness radius).
gamma_norm_estimate is a lower bound for |Gamma| that can stop below the
maximum, so condition_met (4 delta |Gamma| < beta0) is advisory and never
gates a solve.  beta0 = infsup_constant(J^T, G) and the discrete inf-sup
constant share _infsup; non-convergence raises ArpackNoConvergence
(RuntimeError).  README's Notes hold the measurements behind these choices.
"""
from __future__ import annotations

import ctypes
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .problems import ProblemKind
from .spaces import local_coefficients, physical_points
from .quadrature import quad_triangle

__all__ = [
    "sparse_solve", "NewtonTrace", "newton_solve",
    "KantorovichReport", "kantorovich_report", "infsup_constant",
    "gamma_norm_lower_bound", "discrete_embedding_ratio", "fd_jacobian",
]

NO_FREE_DOFS = "the mesh has no free dofs: refine it (--base-refinements 1)"
FD_STEP = 1e-6          # the central-difference step of fd_jacobian


try:                # glibc's; musl, macOS and Windows have no malloc_trim
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _release_free_heap():
    """Hand the C heap's free pages back to the system before a SuperLU
    factor (see the module docstring); a no-op without malloc_trim."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def _as_csc(A):
    if sparse.issparse(A):
        return A.tocsc()
    return sparse.csc_matrix(np.atleast_2d(A))


def _equilibrate(A):
    """(D A D, d) for a sparse or dense matrix A, d_i = 2^-floor(e_i / 2)
    with e_i the exponent of |a_ii| = m 2^e_i, m in [1/2, 1), and d_i = 1
    where a_ii = 0.  D A D is one float CSC copy of A, scaled in place; A
    is left as it is.  Scaling by powers of two is exact, and every nonzero
    |a_ii| of D A D is m 2^(e_i mod 2), so it lies in [1/2, 2)."""
    As = _as_csc(A)
    As = As.astype(float, copy=As is A)     # the one copy, if _as_csc made none
    diag = np.abs(As.diagonal())
    d = np.ones(As.shape[0])
    nz = diag > 0
    d[nz] = np.ldexp(1.0, -(np.frexp(diag[nz])[1] // 2))
    As.data *= d[As.indices] * np.repeat(d, np.diff(As.indptr))
    return As, d


def _checked(A, rhs, x, solve):
    """x = solve(rhs), a direct solve of A x = rhs, if it passes the residual
    check; else one refinement step x + solve(rhs - A x), or RuntimeError."""
    if not np.isfinite(x).all():
        raise RuntimeError("matrix is numerically singular")
    tol = 1e-10 * (1.0 + np.abs(rhs).max(initial=0.0))
    resid = rhs - A @ x
    if np.abs(resid).max(initial=0.0) > tol:
        x = x + solve(resid)
        resid = rhs - A @ x
        if np.abs(resid).max(initial=0.0) > tol:
            raise RuntimeError("sparse solve failed the residual check "
                               f"({np.abs(resid).max():.3e} > {tol:.3e})")
    return x


def sparse_solve(A, rhs):
    """x with A x = rhs for a square A (sparse, or a dense array): a direct
    solve of the power-of-two equilibration D A D (_equilibrate), and one
    step of iterative refinement through it if the residual check on A
    fails.  A is copied once, into D A D; only the first factor starts from
    a trimmed heap, the refinement's reuses the pages it freed.  Raises
    ValueError for a non-square A or an rhs that does not match it, and
    RuntimeError for a numerically singular A or a failed residual check."""
    rhs = np.asarray(rhs, dtype=float)
    As, d = _equilibrate(A)
    if As.shape[0] != As.shape[1] or As.shape[0] != rhs.shape[0]:
        raise ValueError("sparse_solve needs a square matrix matching the rhs")
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            _release_free_heap()
            x = d * spla.spsolve(As, d * rhs)
        except (spla.MatrixRankWarning, RuntimeError) as exc:
            raise RuntimeError("matrix is numerically singular") from exc
    return _checked(A, rhs, x, lambda b: d * spla.spsolve(As, d * b))


def _splu(A, **options):
    """SuperLU factor of a CSC matrix with the minimum-degree order of
    A^T + A and unrelaxed supernodes (see the module docstring)."""
    _release_free_heap()
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1,
                     **options)


def _leading_block(G, n):
    """The leading n x n block of a CSR G whose first n rows have no entry
    right of column n (an Assembler's G), as a CSR on G's own arrays."""
    m = G.indptr[n]
    return sparse.csr_matrix((G.data[:m], G.indices[:m], G.indptr[:n + 1]),
                             shape=(n, n))


class _BlockFactor:
    """The factor of diag(A, ..., A) from the factor lu of A: a solve takes
    the blocks of b as the columns of one right-hand side, and nnz counts
    the L and U of every block."""

    def __init__(self, lu, blocks):
        self.lu, self.blocks, self.nnz = lu, blocks, blocks * lu.nnz

    def solve(self, b):
        return self.lu.solve(b.reshape(self.blocks, -1).T).T.ravel()


def _gram_factor(G, blocks=1):
    """SuperLU factor of an energy Gram matrix without pivoting: G is SPD, so
    every pivot is positive and the rows may follow the column order, where
    partial pivoting would only add fill.  An assembled G is symmetric to the
    bit, so G.T hands the arrays of a CSR G to SuperLU as its CSC, without a
    copy.  A CSR G of blocks > 1 equal diagonal blocks (the vk G, diag(A, A))
    factors its leading block alone and returns a _BlockFactor.  A singular
    G raises RuntimeError."""
    if blocks > 1:
        G = _leading_block(G, G.shape[0] // blocks)
    csr = sparse.issparse(G) and G.format == "csr"
    lu = _splu(G.T if csr else _as_csc(G), diag_pivot_thresh=0.0)
    return lu if blocks == 1 else _BlockFactor(lu, blocks)


KRYLOV_MAX = 40         # GMRES iterations before a Newton step falls back


def _gram_gmres(J, b, G, Glu, target, z):
    """(d, k): a d with |b - J d|_{G^-1} <= target, from k iterations of GMRES
    on G^-1 J in the G inner product, started from 0 without restart; Glu is
    the factor of G, J a matrix or the element-wise LinearOperator of
    Assembler.jacobian_operator, and z is G^-1 b.  None if KRYLOV_MAX
    iterations do not reach target, or if the true residual misses it.

    The G-orthonormal basis is one preallocated (KRYLOV_MAX + 1, n) block V,
    and no G V is stored; row k + 1 holds iteration k's scratch vectors until
    it takes v_{k+1}.  Two passes of classical Gram-Schmidt in the G inner
    product keep the basis orthogonal to working precision (Giraud, Langou,
    Rozloznik and van den Eshof, Numer. Math. 2005).  k iterations make
    k + 1 G solves and k + 1 J products, the last of each confirming the
    true residual after the basis is released."""
    beta = np.sqrt(max(z @ b, 0.0))
    V = np.empty((KRYLOV_MAX + 1, len(b)))
    np.divide(z, beta, out=V[0])
    H = np.zeros((KRYLOV_MAX + 1, KRYLOV_MAX))
    for k in range(KRYLOV_MAX):
        Vk, v = V[:k + 1], V[k + 1]
        v[:] = J @ V[k]
        z = Glu.solve(v)
        for _ in range(2):              # v = G z on entry to each pass
            c = Vk @ v                  # (V_k, z)_G
            H[:k + 1, k] += c
            z -= np.matmul(c, Vk, out=v)
            v[:] = G @ z
        H[k + 1, k] = h = np.sqrt(max(z @ v, 0.0))
        Hk, e = H[:k + 2, :k + 1], np.zeros(k + 2)
        e[0] = beta
        y = np.linalg.lstsq(Hk, e, rcond=None)[0]     # min |beta e_1 - Hk y|
        if np.linalg.norm(Hk @ y - e) <= target or h == 0:
            break
        np.divide(z, h, out=v)
    else:
        return None
    d = y @ Vk
    del V, Vk, v, z             # the final check runs without the basis
    r = b - J @ d
    if r @ Glu.solve(r) > target ** 2:
        return None
    return d, k + 1


@dataclass
class NewtonTrace:
    residual_norms: list = field(default_factory=list)   # per visited iterate
    correction_norms: list = field(default_factory=list)  # per Newton step
    converged: bool = False
    gram_fill: float = 0.0      # stored nnz of the G factor / nnz(G)
    krylov_iterations: list = field(default_factory=list)  # per Krylov step
    direct_fallbacks: int = 0   # later steps that fell back to sparse_solve

    @property
    def iterations(self) -> int:
        """Newton steps taken: one correction norm each."""
        return len(self.correction_norms)


def _initial_iterate(asm, U0):
    """U0 (default: the level's zero state), checked against the dof map.
    A level without free dofs has nothing to solve: ValueError."""
    if asm.dofmap.n_free == 0:
        raise ValueError(NO_FREE_DOFS)
    n = asm.dofmap.n_free * asm.problem.n_components
    U = np.zeros(n) if U0 is None else U0
    if len(U) != n:
        raise ValueError("initial iterate does not match the dof map")
    return U


def newton_solve(asm, U0=None, tol: float = 1e-10, max_iter: int = 20):
    """Undamped Newton iteration on the level asm from the coefficient
    vector U0 (None: zero, a cold start; a given U0 is a warm start; see
    the module docstring) until the correction energy norm or the residual
    dual norm drops to tol, for at most max_iter steps; max_iter = 0 makes
    no solve and no factor.  Returns (solution, trace): trace.converged is
    False once max_iter is exhausted, trace.krylov_iterations has one entry
    per GMRES step and trace.direct_fallbacks counts the sparse_solve
    fallbacks.  Raises ValueError for tol outside (0, inf), a U0 of the
    wrong length or a level without free dofs; a singular Jacobian raises."""
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    U = _initial_iterate(asm, U0)
    G = asm.gram()
    Glu = None

    def dual(r):                # (|r|_{G^-1}, G^-1 r)
        z = Glu.solve(r)
        return float(np.sqrt(max(r @ z, 0.0))), z

    trace = NewtonTrace()
    for _ in range(max_iter):
        r = asm.residual(U)
        d = None
        if Glu is None:
            if U0 is None:  # cold: J and its LU are gone before G is factored
                d = sparse_solve(asm.jacobian(U), -r)
            Glu = _gram_factor(G, asm.problem.n_components)
            trace.gram_fill = Glu.nnz / G.nnz
        rn, z = dual(r)
        trace.residual_norms.append(rn)
        if rn <= tol:
            trace.converged = True
            break
        if d is None:
            # G^-1 (-r) = -z exactly: GMRES starts from the test's solve
            step = _gram_gmres(asm.jacobian_operator(U), -r, G, Glu, tol / 100,
                               -z)
            if step is None:
                trace.direct_fallbacks += 1
                d = sparse_solve(asm.jacobian(U), -r)
            else:
                d, k = step
                trace.krylov_iterations.append(k)
        dn = float(np.sqrt(max(d @ (G @ d), 0.0)))
        trace.correction_norms.append(dn)
        U = U + d
        if dn <= tol:
            trace.residual_norms.append(dual(asm.residual(U))[0])
            trace.converged = True
            break
    return U, trace


GAMMA_RTOL = 1e-6       # stop once a round raises |Gamma| by at most this
GAMMA_MAX_ROUNDS = 100
GAMMA_HISTORY = 5       # sweep residuals the extrapolation mixes


def _gamma_power_method(asm):
    """gamma_norm_lower_bound's (estimate, rounds) and the triple, a (3, n)
    array of G-normalized slot coefficients, whose |Gamma| the estimate is;
    (0.0, 0, None) for the CR problem."""
    kind = asm.problem.kind
    if kind is ProblemKind.SECOND_ORDER_CR:
        return 0.0, 0, None
    value = (asm.gamma_ns_value if kind is ProblemKind.NAVIER_STOKES_MORLEY
             else asm.gamma_vk_value)
    G = asm.gram()
    Glu = _gram_factor(G, asm.problem.n_components)
    n = asm.dofmap.n_free * asm.problem.n_components

    def normalized(u):          # (u, G u) with every slot of unit G norm
        Gu = (G @ u.T).T
        norms = np.sqrt(np.einsum("si,si->s", u, Gu))[:, None]
        return u / norms, Gu / norms

    u, Gu = normalized(np.random.default_rng(0).standard_normal((3, n)))
    best = abs(value(*u))
    history = deque(maxlen=GAMMA_HISTORY)      # (F(u), r, G r) per sweep
    for rounds in range(1, GAMMA_MAX_ROUNDS + 1):
        start = best
        F, GF = u.copy(), np.empty_like(u)
        for slot in range(3):
            w = asm.gamma_gradient(slot, *F)
            c = Glu.solve(w)
            cw = c @ w                          # |w|_{G^-1}^2 = |G^-1 w|_G^2
            if cw <= 0:
                return float(best), rounds, u
            new = np.sqrt(cw)
            F[slot], GF[slot] = c / new, w / new
        best = max(best, new)
        history.append((F, F - u, GF - Gu))
        u, Gu = F, GF
        if len(history) > 1:
            Fs, R, GR = (np.stack(h).reshape(len(history), -1)
                         for h in zip(*history))
            # a / sum(a), a = A^-1 1, minimizes |sum a_i r_i|_G over sum a_i = 1
            A = R @ GR.T                        # G inner products of residuals
            a = np.linalg.lstsq(A, np.ones(len(history)), rcond=None)[0]
            if a.sum() > 0:                     # 0 once the residuals vanish
                x, Gx = normalized((a / a.sum() @ Fs).reshape(3, n))
                extrapolated = abs(value(*x))
                if extrapolated > best:
                    best, u, Gu = extrapolated, x, Gx
                else:
                    history.clear()
        if best - start <= GAMMA_RTOL * best:
            break
    return float(best), rounds, u


def gamma_norm_lower_bound(asm):
    """Lower bound for the trilinear form norm of the level asm,
    sup |Gamma(x, y, z)| / (|x| |y| |z|) in energy norms, and the rounds used.

    The higher-order power method (De Lathauwer, De Moor and Vandewalle,
    SIMAX 2000) from one fixed triple: a round sets every slot in turn to
    the normalized G-Riesz representative of its gradient, which never
    lowers |Gamma|, then mixes the sweeps of the last GAMMA_HISTORY rounds
    by safeguarded Anderson extrapolation (Walker and Ni, SINUM 2011) and
    keeps the mix only if |Gamma| there beats the best value so far.  The
    estimate is |Gamma|, to round-off, at the triple the method ends on.
    Stops once a round raises the best value by at most GAMMA_RTOL
    (relative), after GAMMA_MAX_ROUNDS, or as soon as a gradient vanishes,
    as every gradient does with one free dof; the rounds returned count the
    round that stopped.  Returns (estimate, rounds); (0.0, 0) for the CR
    problem."""
    estimate, rounds, _ = _gamma_power_method(asm)
    return estimate, rounds


@dataclass
class KantorovichReport:
    beta0: float
    delta: float
    gamma_norm_estimate: float  # power-method lower bound for |Gamma|
    m: float
    h: float
    r_minus: float
    rho: float
    condition_met: bool
    gamma_rounds: int           # power-method rounds, up to GAMMA_MAX_ROUNDS


def kantorovich_report(asm, U0=None):
    """Newton-Kantorovich constants of the level asm at U0 (default 0), as
    a KantorovichReport (definitions in the module docstring): beta0 =
    infsup_constant(J^T, G) without its SPD test of G, and delta =
    |J^-1 r|_G from the same factor of J^T, checked as by sparse_solve.
    Raises ValueError for a U0 of the wrong length or a level without free
    dofs, and RuntimeError for a singular Jacobian."""
    U0 = _initial_iterate(asm, U0)
    G = asm.gram()
    J = asm.jacobian(U0)
    beta0, solve = _infsup(J.T, G)
    if beta0 <= 0:
        raise RuntimeError("singular Jacobian: beta0 = 0")
    rhs = -asm.residual(U0)
    d = _checked(J, rhs, solve(rhs), solve)
    del solve
    delta = float(np.sqrt(max(d @ (G @ d), 0.0)))
    gamma_est, rounds = gamma_norm_lower_bound(asm)
    m = 2.0 * gamma_est / beta0
    h = delta * m
    if m == 0.0:    # no trilinear form
        r_minus, rho = 0.0, np.inf
    elif h <= 0.5:
        root = np.sqrt(1.0 - 2.0 * h)
        r_minus = delta * 2.0 * h / (1.0 + root) ** 2   # no cancellation
        rho = (1.0 + root) / m
    else:
        r_minus = rho = np.nan
    return KantorovichReport(beta0=beta0, delta=delta,
                             gamma_norm_estimate=gamma_est, m=m, h=h,
                             r_minus=r_minus, rho=rho,
                             condition_met=bool(4.0 * delta * gamma_est < beta0),
                             gamma_rounds=rounds)


def _infsup(B, G):
    """(beta, solve) for infsup_constant's checked B and G, both from one
    factor of the equilibrated B: solve(x) = B^-T x."""
    n = B.shape[0]
    Bs, e = _equilibrate(B)     # B^-1 = E Bs^-1 E, as in sparse_solve
    Blu = _splu(Bs)

    def solve(x):
        return e * Blu.solve(e * x, trans="T")
    if n == 1:  # ARPACK needs n >= 2
        return float(abs(B[0, 0]) / G[0, 0]), solve
    OPinv = spla.LinearOperator((n, n), dtype=float,
                                matvec=lambda x: solve(G @ (e * Blu.solve(e * x))))
    v0 = np.random.default_rng(0).standard_normal(n)
    # shift-invert mode applies only OPinv and M; of A (Bs) it reads the dtype
    lam = spla.eigsh(Bs, k=1, M=G, sigma=0.0, OPinv=OPinv, v0=v0,
                     return_eigenvectors=False)[0]
    return float(np.sqrt(max(lam, 0.0))), solve


def infsup_constant(B, G):
    """Smallest generalized singular value

        beta = inf_x sup_y (x^T B y) / sqrt(x^T G x * y^T G y)

    of a square B: sqrt(lambda_min) of the pencil (B G^-1 B^T, G), found by
    shift-invert Lanczos at sigma = 0 with the inverse B^-T G B^-1 (_infsup).
    G is factored only to test it: unpivoted, an SPD G keeps perm_r == perm_c
    and, by Sylvester's law of inertia, positive pivots; else ValueError, as
    for an empty B (no free dofs) or a B that does not match G."""
    B, G = _as_csc(B), _as_csc(G)
    n = B.shape[0]
    if n == 0:
        raise ValueError(NO_FREE_DOFS)
    if not B.shape == G.shape == (n, n):
        raise ValueError("infsup_constant needs a square B matching G")
    if abs(G - G.T).max() > 1e-10 * max(abs(G).max(), 1.0):
        raise ValueError("G is not symmetric")
    try:
        lu = _gram_factor(G)
    except RuntimeError as exc:
        raise ValueError("G is not positive definite") from exc
    if (lu.perm_r != lu.perm_c).any() or (lu.U.diagonal() <= 0).any():
        raise ValueError("G is not positive definite")
    del lu                      # not alive next to the factor of B
    return _infsup(B, G)[0]


def fd_jacobian(asm, U):
    """Central-difference Jacobian of the level's residual at U; the
    independent oracle for Assembler.jacobian (exact for quadratic residuals
    up to round-off)."""
    return np.column_stack([(asm.residual(U + e) - asm.residual(U - e))
                            / (2.0 * FD_STEP) for e in FD_STEP * np.eye(len(U))])


def discrete_embedding_ratio(asm):
    """Lower bound for the discrete embedding constant max_x sup_v
    |v(x)| / |v|_pw, x over the vertices, edge midpoints and degree-4
    quadrature points of every element of the Morley level asm; G is that of
    its problem.

    For a point x with basis values phi_x the inner sup is attained by the
    discrete Green's function v = G^-1 phi_x and equals
    sqrt(phi_x^T G^-1 phi_x).  From the point nearest the vertex centroid,
    alternate: v = G^-1 phi_x, then move x to argmax |v|; the ratio
    max |v| / |v|_pw never falls, and the loop stops once it stops rising,
    possibly at a local maximum over x.  0.0 on a level without free dofs."""
    mesh, dofmap = asm.mesh, asm.dofmap
    n = dofmap.n_free
    if n == 0:
        return 0.0
    Glu = _gram_factor(_leading_block(asm.gram(), n))
    rule = quad_triangle(4)
    bary = np.vstack([np.eye(3), 0.5 * (np.eye(3) + np.roll(np.eye(3), 1, axis=0)),
                      rule.points])
    pts = physical_points(mesh, bary)
    slots = dofmap.slots                             # (nt, nloc), n if fixed
    V = asm.tables.values_at(bary) * (slots < n)[:, None, :]   # (nt, nq, nloc)
    nq = pts.shape[1]
    # start where some free phi_i(x) != 0 (on the unrefined square the only
    # free function vanishes at the centroid)
    dist = np.linalg.norm(pts - mesh.vertices.mean(axis=0), axis=-1)
    x = int(np.argmin(np.where(np.abs(V).max(axis=-1) > 0, dist, np.inf)))
    best = 0.0
    while True:   # the ratio rises strictly, so no point comes back
        t, q = divmod(x, nq)
        phi = np.zeros(n + 1)                        # slot n takes fixed dofs
        phi[slots[t]] = V[t, q]
        c = Glu.solve(phi[:n])
        energy = np.sqrt(c @ phi[:n])                # = |v|_pw > 0
        vals = np.abs(np.einsum("tqj,tj->tq", V,
                                local_coefficients(dofmap, c))).ravel()
        x_next = int(np.argmax(vals))
        ratio = vals[x_next] / energy
        if ratio <= best:
            break
        best, x = ratio, x_next
    return float(best)
