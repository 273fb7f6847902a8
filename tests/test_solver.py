import os
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from conftest import SplaSpy
from ncfem.assembly import Assembler, assembler
from ncfem.mesh import build_from_arrays, builtin_domain, refine
from ncfem.problems import ProblemKind, ProblemSpec, manufactured
from ncfem.interpolation import interpolate
import ncfem.solve
from ncfem.solve import (GAMMA_MAX_ROUNDS, GAMMA_RTOL, KRYLOV_MAX,
                         _equilibrate, _gamma_power_method, _gram_factor,
                         _gram_gmres,
                         discrete_embedding_ratio,
                         gamma_norm_lower_bound, infsup_constant,
                         kantorovich_report, newton_solve, sparse_solve)
from ncfem.spaces import local_coefficients
from ncfem.quadrature import quad_triangle


def zero_load(pts):
    return np.zeros(np.shape(pts)[:-1])


NS = ProblemSpec(kind=ProblemKind.NAVIER_STOKES_MORLEY, f=zero_load)
VK = ProblemSpec(kind=ProblemKind.VON_KARMAN_MORLEY, f=zero_load)


def test_sparse_solve_identity():
    A = sp.identity(4, format="csr")
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(sparse_solve(A, rhs), rhs)


def test_sparse_solve_diagonal():
    A = sp.diags([2.0, 4.0]).tocsr()
    assert np.allclose(sparse_solve(A, np.array([2.0, 4.0])), [1.0, 1.0])


def test_sparse_solve_random_spd():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((50, 50))
    A = sp.csr_matrix(M @ M.T + 50 * np.eye(50))
    x = rng.standard_normal(50)
    rhs = A @ x
    sol = sparse_solve(A, rhs)
    assert np.abs(A @ sol - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())


def test_sparse_solve_singular_raises():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(RuntimeError, match="singular"):
        sparse_solve(A, np.array([1.0, 0.0]))


def test_gram_factor_singular_raises():
    G = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(RuntimeError, match="singular"):
        _gram_factor(G)


GRAMS = {"ns": NS, "vk": VK, "cr": manufactured("cr_sine")}


@pytest.mark.parametrize("name", sorted(GRAMS))
def test_gram_factor_keeps_column_order_and_solves(square32, name):
    G = assembler(square32, GRAMS[name]).gram()
    lu = _gram_factor(G)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    b = np.random.default_rng(0).standard_normal(G.shape[0])
    x = scipy.sparse.linalg.spsolve(G.tocsc(), b)
    assert np.linalg.norm(lu.solve(b) - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly", "cr_sine", "afem"])
def test_gram_factor_takes_the_csr_arrays_of_a_symmetric_g(name, lshape,
                                                           graded_lshape,
                                                           monkeypatch):
    """An assembled G is symmetric to the bit, on refine(l_shape, 5) and on
    an afem level (ns_unit_load on the graded L-shape), so _gram_factor hands
    SuperLU the arrays of the CSR G as its CSC, with no copy, and gets
    bitwise the permutations, L and U of a factor of G.tocsc()."""
    if name == "afem":
        problem, mesh = graded_lshape[:2]
    else:
        problem, mesh = manufactured(name), refine(lshape, 5)
    G = Assembler(mesh, problem).gram()
    assert G.format == "csr" and (G - G.T).count_nonzero() == 0
    splu, seen = ncfem.solve._splu, []
    monkeypatch.setattr(ncfem.solve, "_splu",
                        lambda A, **kw: seen.append(A) or splu(A, **kw))
    lu, ref = _gram_factor(G), _gram_factor(G.tocsc())
    assert seen[0].format == "csc"
    assert all(np.shares_memory(getattr(seen[0], a), getattr(G, a))
               for a in ("data", "indices", "indptr"))
    assert np.array_equal(lu.perm_c, ref.perm_c)
    assert np.array_equal(lu.perm_r, ref.perm_r)
    for factor in ("L", "U"):
        got, want = getattr(lu, factor), getattr(ref, factor)
        for a in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, a), getattr(want, a))


def test_gram_factor_fills_less_than_partial_pivoting():
    mesh = refine(builtin_domain("unit_square"), 3)
    G = assembler(mesh, NS).gram()
    lu, pivoted = _gram_factor(G), scipy.sparse.linalg.splu(G.tocsc())
    assert lu.L.nnz + lu.U.nnz < pivoted.L.nnz + pivoted.U.nnz


@pytest.fixture(scope="module")
def graded_ns(graded_lshape):
    """Jacobian and Gram of ns_unit_load on the graded L-shape."""
    problem, mesh, _, U = graded_lshape
    asm = assembler(mesh, problem)
    return asm.jacobian(U).tocsc(), asm.gram()


def assert_equilibrated(As):
    diag = np.abs(As.diagonal())
    diag = diag[diag > 0]
    assert diag.min() >= 0.5 and diag.max() <= 2.0


def test_sparse_solve_equilibrates_by_powers_of_two(graded_ns, monkeypatch):
    J, _ = graded_ns
    diag = np.abs(J.diagonal())
    assert diag.max() > 16.0 * diag.min()        # unscaled, it spreads
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    sparse_solve(J, np.ones(J.shape[0]))
    [((As, d), _)] = spla.args["spsolve"]          # d * rhs = d
    assert np.all(np.frexp(d)[0] == 0.5)
    assert abs(As - sp.diags(d) @ J @ sp.diags(d)).max() == 0.0
    assert_equilibrated(As)


@pytest.mark.parametrize("a", [np.nextafter(2.0 ** 17, np.inf), 2.0 ** 17,
                               np.nextafter(2.0 ** 17, -np.inf), 2.0 ** -40])
def test_equilibrate_exact_exponent(a):
    """log2 of a just above 2^17 rounds onto 17, an odd integer, and a
    rounded half exponent then leaves the scaled diagonal just above 2."""
    As, d = _equilibrate(sp.csc_matrix(np.diag([a, -a, 1.0])))
    assert np.all(np.frexp(d)[0] == 0.5)
    diag = np.abs(As.diagonal())
    assert np.all((diag >= 0.5) & (diag < 2.0))
    assert np.array_equal(diag, d * d * np.array([a, a, 1.0]))


def test_equilibration_cuts_jacobian_fill(graded_ns):
    J, _ = graded_ns
    plain = scipy.sparse.linalg.splu(J)
    scaled = scipy.sparse.linalg.splu(_equilibrate(J)[0])
    assert scaled.L.nnz + scaled.U.nnz <= 0.75 * (plain.L.nnz + plain.U.nnz)


def test_sparse_solve_retry_uses_the_scaled_matrix(graded_ns, monkeypatch):
    J, _ = graded_ns
    spla = SplaSpy(perturb=1e-3)
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    b = np.random.default_rng(0).standard_normal(J.shape[0])
    x = sparse_solve(J, b)
    first, retry = spla.args["spsolve"]
    assert retry[0][0] is first[0][0]
    assert np.abs(J @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


def test_sparse_solve_matches_plain_spsolve_bitwise_on_cr():
    """Pivots stay on the diagonal of this J unscaled, so scaling by powers
    of two must not change a bit; any other scaling would."""
    mesh = refine(builtin_domain("unit_square"), 4)
    asm = assembler(mesh, manufactured("cr_sine"))
    U = np.zeros(asm.dofmap.n_free)
    J = asm.jacobian(U).tocsc()
    assert not np.all(_equilibrate(J)[1] == 1.0)
    b = np.random.default_rng(0).standard_normal(J.shape[0])
    assert np.array_equal(sparse_solve(J, b),
                          scipy.sparse.linalg.spsolve(J, b))


def test_sparse_solve_copies_the_matrix_once(monkeypatch):
    """When SuperLU is called, sparse_solve holds one nnz-long copy of the
    CSR J, its equilibrated CSC, besides vectors of length n: a second copy
    would add 12 bytes per entry, about 60 per row here."""
    asm = assembler(refine(builtin_domain("l_shape"), 5), manufactured("cr_sine"))
    J, b = asm.jacobian(None), asm.load()
    n = J.shape[0]
    spsolve, held = scipy.sparse.linalg.spsolve, []

    def traced_spsolve(A, rhs):
        held.append(tracemalloc.get_traced_memory()[0])
        return spsolve(A, rhs)
    monkeypatch.setattr(ncfem.solve.spla, "spsolve", traced_spsolve)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        x = sparse_solve(J, b)
    finally:
        tracemalloc.stop()
    one_copy = 12 * J.nnz + 4 * (n + 1)     # float data, int32 indices, indptr
    assert held[0] - base <= one_copy + 32 * n
    assert np.abs(J @ x - b).max() <= 1e-10 * (1.0 + np.abs(b).max())


@pytest.mark.parametrize("M", [
    [[0.0, 1.0], [1.0, 0.0]],
    [[400.0, 1.0, 3.0], [1.0, 0.01, 2.0], [3.0, 2.0, 0.0]],   # saddle point
])
def test_sparse_solve_zero_diagonal(M):
    M = np.array(M)
    b = np.arange(1.0, len(M) + 1.0)
    assert np.allclose(sparse_solve(sp.csr_matrix(M), b),
                       np.linalg.solve(M, b), rtol=1e-12, atol=0.0)


def test_infsup_factors_the_equilibrated_b(graded_ns, monkeypatch):
    J, G = graded_ns
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    infsup_constant(J.T, G)
    [b_factor] = [args[0] for args, kwargs in spla.args["splu"]
                  if "diag_pivot_thresh" not in kwargs]
    assert_equilibrated(b_factor)


def fill(lu, A):
    return (lu.L.nnz + lu.U.nnz) / A.nnz


def test_gram_factor_fills_less_than_colamd(graded_ns):
    """The minimum-degree order of G^T + G halves the fill of SuperLU's
    default COLAMD order (2.29 against 4.50 nnz(G)), in what SuperLU stores
    as well as in the entries of L and U, and keeps the rows in column order."""
    _, G = graded_ns
    lu = _gram_factor(G)
    colamd = scipy.sparse.linalg.splu(G.tocsc(), diag_pivot_thresh=0.0)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert fill(lu, G) <= 0.6 * fill(colamd, G)
    assert lu.nnz <= 0.6 * colamd.nnz


def test_gram_and_b_factors_solve_like_spsolve(graded_ns, monkeypatch):
    J, G = graded_ns
    b = np.random.default_rng(0).standard_normal(G.shape[0])

    def assert_solves(x, A):
        ref = scipy.sparse.linalg.spsolve(A.tocsc(), b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    assert_solves(_gram_factor(G).solve(b), G)
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    infsup_constant(J.T, G)
    [(Bs, Blu)] = [(args[0], lu) for (args, kwargs), lu
                   in zip(spla.args["splu"], spla.results["splu"])
                   if "diag_pivot_thresh" not in kwargs]
    assert_solves(Blu.solve(b), Bs)
    assert_solves(Blu.solve(b, trans="T"), Bs.T)


def test_every_factor_orders_by_minimum_degree_unrelaxed(square32, monkeypatch):
    """SuperLU's default relaxed supernodes store 49 nnz(G) and take 40-60
    times as long on the final G of the afem L-shape run (60421 dofs), and
    its default panel width of 10 factors the unrelaxed supernodes 30-40%
    slower than width 1; every splu must keep the symmetric order, relax=1
    and panel_size=1."""
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    asm = assembler(square32, manufactured("ns_poly"))
    U, _ = newton_solve(asm)
    kantorovich_report(asm, U)
    discrete_embedding_ratio(asm)
    asm = assembler(square32, manufactured("cr_sine"))
    infsup_constant(asm.jacobian(None).T, asm.gram())
    assert spla.calls["splu"] >= 4
    for _, kwargs in spla.args["splu"]:
        assert kwargs["permc_spec"] == "MMD_AT_PLUS_A"
        assert kwargs["relax"] == 1
        assert kwargs["panel_size"] == 1


def test_every_factor_starts_from_a_trimmed_heap(square32, monkeypatch):
    """Each splu and spsolve follows exactly one malloc_trim(0): a cold
    Newton solve (its direct first step and its G factor) and an inf-sup
    constant (the test factor of G and the factor of B)."""
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    monkeypatch.setattr(ncfem.solve, "_malloc_trim",
                        lambda pad: spla.log.append(("trim", pad)))
    newton_solve(assembler(square32, manufactured("ns_poly")))
    asm = assembler(square32, manufactured("cr_sine"))
    infsup_constant(asm.jacobian(None).T, asm.gram())
    assert [name for name, _ in spla.log] == ["trim", "spsolve"] + ["trim", "splu"] * 3
    assert [pad for name, pad in spla.log if name == "trim"] == [0] * 4


def test_solves_without_malloc_trim_repeat_bitwise(square32, monkeypatch):
    """Where the C library has no malloc_trim the trim is skipped, and every
    number stays the same."""
    def run():
        asm = assembler(square32, manufactured("ns_poly"))
        U, _ = newton_solve(asm)
        cr = assembler(square32, manufactured("cr_sine"))
        return (U, sparse_solve(cr.jacobian(None), cr.load()),
                infsup_constant(cr.jacobian(None).T, cr.gram()))

    trimmed = run()
    monkeypatch.setattr(ncfem.solve, "_malloc_trim", None)
    for a, b in zip(trimmed, run()):
        assert np.array_equal(np.asarray(a).view(np.int64),
                              np.asarray(b).view(np.int64))


@pytest.mark.skipif(ncfem.solve._malloc_trim is None
                    or not os.path.exists("/proc/self/statm"),
                    reason="needs glibc's malloc_trim and /proc/self/statm")
def test_release_free_heap_returns_freed_pages():
    """1000 freed 64 KB arrays between live ones stay resident until the
    trim returns them; at least half of the 62.5 MB must go."""
    def resident():
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    blocks = [np.ones(8192) for _ in range(2000)]
    del blocks[::2]
    freed = 1000 * blocks[0].nbytes
    before = resident()
    ncfem.solve._release_free_heap()
    assert before - resident() >= freed / 2


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly", "cr_sine"])
def test_newton_factors_gram_once_and_solves_once_per_step(square32, name,
                                                           monkeypatch):
    """Each step makes one linear solve: the first with J directly, every
    later one by GMRES on the G factor, unless it falls back to a direct
    solve.  So J is factored once per cold Newton solve, plus once per
    fallback."""
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    _, trace = newton_solve(assembler(square32, manufactured(name)))
    assert trace.converged and trace.iterations >= 1
    assert spla.calls == {"splu": 1, "spsolve": 1 + trace.direct_fallbacks}
    assert (len(trace.krylov_iterations) + trace.direct_fallbacks
            == trace.iterations - 1)
    if name == "cr_sine":
        assert trace.iterations == 1


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly", "cr_sine"])
def test_newton_solves_with_j_before_it_factors_g(square32, name, monkeypatch):
    """The direct first step comes before the one G factor, so the LU of J
    and the factor of G are never alive together."""
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    newton_solve(assembler(square32, manufactured(name)))
    names = [call for call, _ in spla.log]
    assert names[:2] == ["spsolve", "splu"] and names.count("splu") == 1


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly", "cr_sine"])
def test_gram_gmres_meets_its_target_and_the_dense_error_bound(square32, name):
    """At a state of energy norm 30 (beta0 0.84 for ns, 0.46 for vk, and
    0.0081 for the indefinite CR J, which no state changes), the
    correction's linear residual meets the target in the G-dual norm, and its
    energy error against the dense solve is at most residual / beta0."""
    asm = assembler(square32, manufactured(name))
    G = asm.gram()
    x = np.random.default_rng(0).standard_normal(G.shape[0])
    U = 30.0 * x / np.sqrt(x @ (G @ x))
    J, r = asm.jacobian(U), asm.residual(U)
    Glu = _gram_factor(G)

    def dual(v):
        return np.sqrt(v @ Glu.solve(v))

    target = 1e-8 * dual(r)
    d, k = _gram_gmres(J, -r, G, Glu, target, Glu.solve(-r))
    residual = dual(J @ d + r)
    assert 1 <= k <= KRYLOV_MAX and residual <= target
    e = d - np.linalg.solve(J.toarray(), -r)
    assert np.sqrt(e @ (G @ e)) <= residual / infsup_constant(J.T, G)


def test_gram_gmres_holds_one_basis_block(monkeypatch):
    """One GMRES step on a CR level of 12160 dofs (14 iterations) holds one
    basis block and a few vectors of n: at most (k + 4) n doubles, where a
    basis kept with its G-images and copied for the solution holds about
    3 (k + 1) n.  tracemalloc counts the whole (KRYLOV_MAX + 1, n) block,
    written rows or not, so the step runs with KRYLOV_MAX set to its own k."""
    asm = Assembler(refine(builtin_domain("unit_square"), 6),
                    manufactured("cr_sine"))
    G = asm.gram()
    n = G.shape[0]
    assert n == 12160
    Glu = _gram_factor(G)
    J, b = asm.jacobian_operator(None), asm.load()
    z = Glu.solve(b)
    _, k = _gram_gmres(J, b, G, Glu, 1e-12, z)
    assert k == 14
    monkeypatch.setattr(ncfem.solve, "KRYLOV_MAX", k)
    tracemalloc.start()
    try:
        assert _gram_gmres(J, b, G, Glu, 1e-12, z)[1] == k
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (k + 4) * n * 8


class NumpyKeepingBlocks:
    """Stands in for numpy inside ncfem.solve and keeps every array that
    np.empty hands out, so a test can read the GMRES basis block after
    _gram_gmres has let it go."""

    def __init__(self):
        self.blocks = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        self.blocks.append(np.empty(*args, **kwargs))
        return self.blocks[-1]


def test_gram_gmres_basis_stays_g_orthonormal(monkeypatch):
    """On the indefinite CR problem on the L-shape (23 iterations) the
    basis is G-orthonormal to round-off.  A single Gram-Schmidt pass takes
    the same number of iterations here but loses orthogonality to 7e-3."""
    asm = Assembler(refine(builtin_domain("l_shape"), 4),
                    manufactured("cr_sine"))
    G = asm.gram()
    Glu = _gram_factor(G)
    b = asm.load()
    spy = NumpyKeepingBlocks()
    monkeypatch.setattr(ncfem.solve, "np", spy)
    _, k = _gram_gmres(asm.jacobian_operator(None), b, G, Glu, 1e-12,
                       Glu.solve(b))
    assert k >= 20
    [V] = spy.blocks
    Vk = V[:k]
    assert np.abs(Vk @ (G @ Vk.T) - np.eye(k)).max() <= 1e-12


def test_vk_newton_factors_one_block_of_g(square32, monkeypatch):
    """The vk G is diag(A, A): Newton factors A alone, once, and solves
    both components through that factor; gram_fill still counts the L and
    U of both blocks."""
    asm = assembler(square32, manufactured("vk_poly"))
    G, n = asm.gram(), asm.dofmap.n_free
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    _, trace = newton_solve(asm)
    assert trace.converged and trace.krylov_iterations
    [(args, _)] = spla.args["splu"]
    assert args[0].shape == (n, n)
    lu = spla.results["splu"][0]
    assert trace.gram_fill == 2 * lu.nnz / G.nnz


def test_block_factor_solves_as_the_factor_of_the_whole_g(square32):
    asm = assembler(square32, manufactured("vk_poly"))
    G = asm.gram()
    b = np.random.default_rng(0).standard_normal(G.shape[0])
    whole, block = _gram_factor(G), _gram_factor(G, 2)
    assert block.nnz == whole.nnz
    assert np.array_equal(block.solve(b), whole.solve(b))


def test_newton_falls_back_to_the_direct_solve(square32, monkeypatch):
    asm = assembler(square32, manufactured("vk_poly"))
    _, krylov = newton_solve(asm)
    monkeypatch.setattr(ncfem.solve, "KRYLOV_MAX", 1)
    _, direct = newton_solve(asm)
    assert max(krylov.krylov_iterations) > 1 and krylov.direct_fallbacks == 0
    assert direct.direct_fallbacks >= 1 and direct.converged
    assert direct.iterations == krylov.iterations


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly", "cr_sine"])
def test_warm_newton_takes_every_step_by_gmres(square32, name, monkeypatch):
    """From a given U0, the interpolant or zero, the G factor is the only
    factorization: every step, the first included, is a GMRES step on it,
    and the solution agrees with the cold start's to round-off in the
    energy norm."""
    man = manufactured(name)
    asm = assembler(square32, man)
    cold, _ = newton_solve(asm)
    G = asm.gram()
    for U0 in (interpolate(asm.mesh, asm.dofmap, man.exact),
               np.zeros_like(cold)):
        spla = SplaSpy()
        monkeypatch.setattr(ncfem.solve, "spla", spla)
        U, trace = newton_solve(asm, U0=U0)
        assert trace.converged and trace.iterations >= 1
        assert spla.calls == {"splu": 1, "spsolve": 0}
        assert (len(trace.krylov_iterations) + trace.direct_fallbacks
                == trace.iterations)
        e = U - cold
        assert np.sqrt(e @ (G @ e)) <= 1e-10 * np.sqrt(cold @ (G @ cold))


class CountingFactor:
    """A G factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def __getattr__(self, name):
        return getattr(self.lu, name)

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly"])
def test_warm_gmres_step_starts_from_the_residual_test(square32, name,
                                                       monkeypatch):
    """The residual test's G^-1 r is GMRES's first basis vector, so a warm
    step of k iterations makes k + 1 G solves: one per iteration and the
    final check.  Each residual test makes one more, and J is never
    assembled."""
    man = manufactured(name)
    asm = assembler(square32, man)
    factors = []

    def counting(G, blocks=1):
        factors.append(CountingFactor(_gram_factor(G, blocks)))
        return factors[-1]

    monkeypatch.setattr(ncfem.solve, "_gram_factor", counting)

    def assembled(self, U):
        raise AssertionError("a warm GMRES step assembled J")

    monkeypatch.setattr(Assembler, "jacobian", assembled)
    _, trace = newton_solve(asm, U0=interpolate(asm.mesh, asm.dofmap, man.exact))
    assert trace.converged and trace.iterations >= 1
    assert len(trace.krylov_iterations) == trace.iterations
    assert factors[0].solves == (len(trace.residual_norms)
                                 + sum(k + 1 for k in trace.krylov_iterations))


@pytest.mark.parametrize("name", ["vk_poly", "cr_sine"])
def test_warm_newton_falls_back_on_every_step(square32, name, monkeypatch):
    """With one GMRES iteration allowed, every warm step, the first
    included, falls back to a direct solve, and Newton takes the same
    number of steps (one for the linear CR problem)."""
    man = manufactured(name)
    asm = assembler(square32, man)
    U0 = interpolate(asm.mesh, asm.dofmap, man.exact)
    _, krylov = newton_solve(asm, U0=U0)
    assert min(krylov.krylov_iterations) > 1 and krylov.direct_fallbacks == 0
    monkeypatch.setattr(ncfem.solve, "KRYLOV_MAX", 1)
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    _, direct = newton_solve(asm, U0=U0)
    assert direct.converged and direct.iterations == krylov.iterations
    assert name != "cr_sine" or direct.iterations == 1
    assert direct.krylov_iterations == []
    assert direct.direct_fallbacks == direct.iterations
    assert spla.calls == {"splu": 1, "spsolve": direct.iterations}


def test_newton_with_krylov_steps_repeats_bitwise():
    problem = manufactured("vk_poly")
    mesh = refine(builtin_domain("unit_square"), 4)
    (U1, t1), (U2, t2) = (newton_solve(Assembler(mesh, problem))
                          for _ in range(2))
    assert t1.krylov_iterations and t1 == t2
    assert np.array_equal(U1, U2)


@pytest.mark.parametrize("name", ["ns_poly", "cr_sine"])
def test_newton_trace_gram_fill_repeats_bitwise(square32, name):
    problem = manufactured(name)
    G = assembler(square32, problem).gram()
    first = newton_solve(assembler(square32, problem))[1].gram_fill
    assert newton_solve(assembler(square32, problem))[1].gram_fill == first
    assert first == _gram_factor(G).nnz / G.nnz
    assert first >= 1.0


def test_kantorovich_report_factors_and_solves(square32, monkeypatch):
    """One factor of the equilibrated J^T gives beta0 and delta; the power
    method factors G, which the CR problem skips, and nothing validates G."""
    for name, splu in [("ns_poly", 2), ("vk_poly", 2), ("cr_sine", 1)]:
        spla = SplaSpy()
        monkeypatch.setattr(ncfem.solve, "spla", spla)
        kantorovich_report(assembler(square32, manufactured(name)))
        assert spla.calls == {"splu": splu, "spsolve": 0}, name
        [j_factor] = [args[0] for args, kwargs in spla.args["splu"]
                      if "diag_pivot_thresh" not in kwargs]
        assert_equilibrated(j_factor)


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly", "cr_sine"])
@pytest.mark.parametrize("at", ["zero", "interpolant"])
def test_kantorovich_report_matches_its_parts(square32, name, at):
    """beta0 and |Gamma| are bitwise those of infsup_constant and
    gamma_norm_lower_bound; delta solves with the J^T factor instead of
    sparse_solve's COLAMD factor of J, so it agrees to round-off."""
    man = manufactured(name)
    asm = assembler(square32, man)
    U = (np.zeros(asm.dofmap.n_free * man.n_components) if at == "zero"
         else interpolate(asm.mesh, asm.dofmap, man.exact))
    rep = kantorovich_report(asm, U)
    G, J = asm.gram(), asm.jacobian(U)
    assert rep.beta0 == infsup_constant(J.T, G)
    assert (rep.gamma_norm_estimate, rep.gamma_rounds) == \
        gamma_norm_lower_bound(asm)
    d = sparse_solve(J, -asm.residual(U))
    delta = np.sqrt(d @ G @ d)
    assert delta > 0 and abs(rep.delta - delta) <= 1e-12 * delta


@pytest.mark.parametrize("first_only", [True, False])
def test_kantorovich_delta_refines_once(square32, first_only, monkeypatch):
    """A J solve off by 1e-3 fails the residual check: the report refines
    once through the same factor, as sparse_solve does, and raises if that
    fails too."""
    asm = assembler(square32, manufactured("ns_poly"))
    infsup, rhs = ncfem.solve._infsup, []

    def perturbed(B, G):
        beta, solve = infsup(B, G)

        def off(b):
            rhs.append(b)
            return solve(b) + (1e-3 if len(rhs) == 1 or not first_only else 0.0)
        return beta, off
    monkeypatch.setattr(ncfem.solve, "_infsup", perturbed)
    if first_only:
        rep = kantorovich_report(asm)
        d = sparse_solve(asm.jacobian(np.zeros(len(rhs[0]))), rhs[0])
        assert abs(rep.delta - np.sqrt(d @ asm.gram() @ d)) <= 1e-10 * rep.delta
    else:
        with pytest.raises(RuntimeError, match="residual check"):
            kantorovich_report(asm)
    assert len(rhs) == 2 and not np.array_equal(rhs[0], rhs[1])


def test_newton_linear_problem_one_iteration(square8):
    U, trace = newton_solve(assembler(square8, manufactured("cr_sine")))
    assert trace.converged
    assert trace.iterations == 1


def test_newton_fixed_point(square8, monkeypatch):
    asm = assembler(square8, manufactured("ns_poly"))
    U, trace = newton_solve(asm)
    assert trace.converged
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    U2, trace2 = newton_solve(asm, U0=U)
    assert trace2.converged
    assert trace2.iterations == 0
    assert np.array_equal(U2, U)
    # a warm start factors G, meets tol and solves nothing
    assert spla.calls == {"splu": 1, "spsolve": 0}


def test_newton_from_interpolant_converges_quickly():
    man = manufactured("ns_poly")
    mesh = refine(builtin_domain("unit_square"), 3)  # h_max = sqrt(2)/8
    asm = assembler(mesh, man)
    U0 = interpolate(mesh, asm.dofmap, man.exact[0])
    U, trace = newton_solve(asm, U0=U0, tol=1e-10)
    assert trace.converged
    assert trace.iterations <= 6


def test_newton_max_iter_reports_failure(square8):
    asm = assembler(square8, manufactured("ns_poly"))
    _, trace = newton_solve(asm, max_iter=0)
    assert not trace.converged
    assert trace.iterations == 0


def test_newton_without_iterations_makes_no_solve(square8, monkeypatch):
    asm = assembler(square8, manufactured("ns_poly"))
    U0 = np.ones(asm.dofmap.n_free)
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    U, trace = newton_solve(asm, U0=U0, max_iter=0)
    assert spla.calls == {"splu": 0, "spsolve": 0}
    assert trace.residual_norms == [] and np.array_equal(U, U0)


@pytest.mark.parametrize("name, solve", [
    *(pytest.param(name, newton_solve, id=name)
      for name in ("ns_poly", "vk_poly", "cr_sine")),
    *(pytest.param(name, kantorovich_report, id=f"{name}-kantorovich_report")
      for name in ("ns_poly", "vk_poly", "cr_sine")),
])
def test_newton_rejects_a_mesh_without_free_dofs(name, solve):
    """newton_solve and kantorovich_report share the one guard of
    _initial_iterate."""
    tri = build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    asm = assembler(tri, manufactured(name))
    assert asm.dofmap.n_free == 0
    with pytest.raises(ValueError, match="no free dofs"):
        solve(asm)


def test_infsup_rejects_empty_matrices():
    empty = sp.csr_matrix((0, 0))
    with pytest.raises(ValueError, match="no free dofs"):
        infsup_constant(empty, empty)


def test_newton_rejects_bad_tol(square8):
    asm = assembler(square8, manufactured("ns_poly"))
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            newton_solve(asm, tol=tol)


@pytest.mark.parametrize("length", [98, 48])
def test_kantorovich_rejects_a_state_off_the_dof_map(square32, length):
    # a 49-dof ns level: twice the length, and one coefficient short
    asm = assembler(square32, manufactured("ns_poly"))
    assert asm.dofmap.n_free == 49
    with pytest.raises(ValueError,
                       match="initial iterate does not match the dof map"):
        kantorovich_report(asm, np.zeros(length))


def test_kantorovich_linear_degenerate(square8):
    rep = kantorovich_report(assembler(square8,
                                       manufactured("cr_sine")))
    assert rep.gamma_norm_estimate == 0.0 and rep.gamma_rounds == 0
    assert rep.m == 0.0 and rep.h == 0.0 and rep.r_minus == 0.0
    assert rep.rho == np.inf
    assert rep.condition_met


def test_kantorovich_beta0_of_energy_operator(square8):
    asm = assembler(square8, NS)
    zero = np.zeros(asm.dofmap.n_free)
    rep = kantorovich_report(asm, zero)
    assert rep.beta0 == pytest.approx(1.0, abs=1e-8)


def test_kantorovich_ns_manufactured_fine_mesh():
    man = manufactured("ns_poly")
    mesh = refine(builtin_domain("unit_square"), 3)
    asm = assembler(mesh, man)
    U0 = interpolate(mesh, asm.dofmap, man.exact[0])
    rep = kantorovich_report(asm, U0)
    assert 1 <= rep.gamma_rounds <= GAMMA_MAX_ROUNDS
    assert rep.h < 0.5
    assert rep.condition_met
    assert 0.0 <= rep.r_minus <= rep.rho


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly"])
def test_kantorovich_r_minus_at_a_newton_solution(square32, name):
    """At a Newton solution h is at round-off, and r_minus = (1 - sqrt(1 -
    2h)) / m - delta = delta 2h / (1 + sqrt(1 - 2h))^2, about delta h / 2,
    must not cancel to round-off in delta."""
    asm = assembler(square32, manufactured(name))
    rep = kantorovich_report(asm, newton_solve(asm)[0])
    assert 0.0 < rep.h < 1e-8
    closed = rep.delta * 2.0 * rep.h / (1.0 + np.sqrt(1.0 - 2.0 * rep.h)) ** 2
    assert rep.r_minus == pytest.approx(closed, rel=1e-12, abs=0.0)
    assert rep.delta * rep.h / 2 <= rep.r_minus <= 2 * rep.delta * rep.h


def test_kantorovich_r_minus_nonnegative_identity():
    # (1 - sqrt(1 - 2h)) / m >= delta holds identically for h = delta m <= 1/2
    for delta, m in [(0.1, 3.0), (0.2, 2.4), (1e-6, 1.0)]:
        h = delta * m
        if h > 0.5:
            continue
        r_minus = (1 - np.sqrt(1 - 2 * h)) / m - delta
        assert r_minus >= -1e-15


def _dense_gamma_tensor(asm):
    """T[i, j, k] = Gamma(e_i, e_j, e_k) and the Gram matrix, densely."""
    n = asm.dofmap.n_free * asm.problem.n_components

    def unit(i):
        c = np.zeros(n)
        c[i] = 1.0
        return c
    zero = unit(0)
    T = np.array([[asm.gamma_gradient(2, unit(i), unit(j), zero)
                   for j in range(n)] for i in range(n)])
    return T, asm.gram().toarray()


@pytest.mark.parametrize("problem", [NS, VK], ids=["ns", "vk"])
def test_gamma_norm_estimate_below_dense_frobenius_bound(square8, problem):
    # |Gamma| is the spectral norm of the G-orthonormalized tensor, which
    # the Frobenius norm bounds from above
    asm = assembler(square8, problem)
    T, G = _dense_gamma_tensor(asm)
    Linv = scipy.linalg.inv(scipy.linalg.cholesky(G, lower=True))
    Tn = np.einsum("ai,bj,ck,ijk->abc", Linv, Linv, Linv, T)
    est, rounds = gamma_norm_lower_bound(asm)
    assert 1 <= rounds <= GAMMA_MAX_ROUNDS
    assert 0.0 < est <= np.linalg.norm(Tn.ravel())


# the estimates of 1000 random triples plus 6 alternating rounds (seed 0),
# the method this one replaced; the power method must not fall below them
SAMPLED_GAMMA = {
    ("ns", 9): 0.020786229253725502, ("vk", 9): 0.018042170211036893,
    ("ns", 49): 0.02265464514826034, ("vk", 49): 0.04014475419989462,
    ("ns", 225): 0.018256918589713435, ("vk", 225): 0.04246526110508672,
    ("ns", 961): 0.015754994155722287, ("vk", 961): 0.02932103023530127,
}


@pytest.mark.parametrize("name, n", sorted(SAMPLED_GAMMA))
def test_gamma_norm_estimate_at_least_sampled_floor(name, n):
    mesh = refine(builtin_domain("unit_square"), {9: 1, 49: 2, 225: 3, 961: 4}[n])
    asm = assembler(mesh, {"ns": NS, "vk": VK}[name])
    assert asm.dofmap.n_free == n
    est, _ = gamma_norm_lower_bound(asm)
    assert est >= SAMPLED_GAMMA[name, n]


def test_gamma_rounds_report_the_cap(square8, monkeypatch):
    monkeypatch.setattr("ncfem.solve.GAMMA_MAX_ROUNDS", 2)
    zero = np.zeros(9)
    rep = kantorovich_report(assembler(square8, NS), zero)
    assert rep.gamma_rounds == 2


def _gamma_power_method_reference(asm):
    """The plain power method, without extrapolation, with Gamma evaluated
    at the whole triple after every round."""
    value = (asm.gamma_ns_value if asm.problem.kind is NS.kind
             else asm.gamma_vk_value)
    G = asm.gram()
    Glu = _gram_factor(G)
    n = asm.dofmap.n_free * asm.problem.n_components
    triple = [c / np.sqrt(c @ (G @ c))
              for c in np.random.default_rng(0).standard_normal((3, n))]
    best = abs(value(*triple))
    for rounds in range(1, GAMMA_MAX_ROUNDS + 1):
        for slot in range(3):
            w = asm.gamma_gradient(slot, *triple)
            c = Glu.solve(w)
            triple[slot] = c / np.sqrt(c @ w)
        new = abs(value(*triple))
        gain, best = new - best, max(best, new)
        if gain <= GAMMA_RTOL * new:
            break
    return best, rounds


@pytest.mark.parametrize("problem", [NS, VK], ids=["ns", "vk"])
@pytest.mark.parametrize("mesh", ["square32", "graded"])
def test_gamma_extrapolation_beats_plain_power_method(mesh, problem, square32,
                                                      graded_lshape):
    # the safeguard accepts an extrapolated triple only if it raises |Gamma|,
    # so the estimate is |Gamma| at the triple returned, never below the
    # plain method's, and reached in no more rounds
    m = square32 if mesh == "square32" else graded_lshape[1]
    asm = assembler(m, problem)
    ref, ref_rounds = _gamma_power_method_reference(asm)
    est, rounds, triple = _gamma_power_method(asm)
    assert (est, rounds) == gamma_norm_lower_bound(asm)
    assert est >= ref
    assert rounds <= ref_rounds
    value = (asm.gamma_ns_value if problem is NS else asm.gamma_vk_value)
    G = asm.gram()
    assert np.allclose([c @ (G @ c) for c in triple], 1.0, rtol=1e-12, atol=0)
    at_triple = abs(value(*triple))
    assert est == pytest.approx(at_triple, rel=1e-12, abs=0)


# Long-run values on refine(unit_square, 4) (961 free dofs), computed once by
# the plain power method (the sweep alone, as _gamma_power_method_reference
# runs it) with GAMMA_RTOL = 1e-12 and no round cap.  ns stops at its fixed
# point after 551 rounds.  vk stalls at a saddle: it holds 0.04319081 from
# round 200 to round 5000, with gains of 2e-11 to 6e-11 per round, then
# climbs away and stops at 0.04319443705332055 after 53401 rounds.  The vk
# entry is its value at round 1000, the saddle that the first 100 rounds
# approach.
LONG_RUN_GAMMA = {"ns": 0.016348209799290386, "vk": 0.043190810724343005}


@pytest.mark.parametrize("name", sorted(LONG_RUN_GAMMA))
def test_gamma_estimate_reaches_long_run_value(name):
    mesh = refine(builtin_domain("unit_square"), 4)
    asm = assembler(mesh, {"ns": NS, "vk": VK}[name])
    assert asm.dofmap.n_free == 961
    est, _ = gamma_norm_lower_bound(asm)
    assert est == pytest.approx(LONG_RUN_GAMMA[name], rel=1e-5, abs=0)


@pytest.mark.parametrize("name, levels, n", [("ns_poly", 6, 3969),
                                             ("vk_poly", 5, 961)])
def test_gamma_rounds_at_diagnostics_sizes(name, levels, n):
    # the solves `ncfem solve --problem ns_poly --levels 6` and `--problem
    # vk_poly --levels 5` report on; the plain method took 99 and 73 rounds
    mesh = refine(builtin_domain("unit_square"), levels - 1)
    asm = assembler(mesh, manufactured(name))
    assert asm.dofmap.n_free == n
    _, rounds = gamma_norm_lower_bound(asm)
    assert rounds <= 30


@pytest.mark.parametrize("problem", [NS, VK], ids=["ns", "vk"])
def test_gamma_vanishing_gradient_stops_the_power_method(square2, problem):
    # one free dof (the unrefined square): S is antisymmetric, so every ns
    # gradient is 0, and so is every vk gradient; the method stops in its
    # first round instead of dividing 0 by 0
    asm = assembler(square2, problem)
    assert asm.dofmap.n_free == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gamma_norm_lower_bound(asm) == (0.0, 1)


def test_infsup_trivial_identity():
    G = sp.identity(6, format="csr")
    assert infsup_constant(G, G) == pytest.approx(1.0, abs=1e-8)


def test_infsup_diag_epsilon():
    B = sp.diags([1.0, 1e-4]).tocsr()
    I2 = sp.identity(2, format="csr")
    assert infsup_constant(B, I2) == pytest.approx(1e-4, rel=1e-8)


def test_infsup_checks_shapes_before_it_factors_g(monkeypatch):
    calls = []
    gram_factor = ncfem.solve._gram_factor
    monkeypatch.setattr(ncfem.solve, "_gram_factor",
                        lambda G: calls.append(G) or gram_factor(G))
    with pytest.raises(ValueError, match="square B matching G"):
        infsup_constant(sp.identity(3, format="csr"),
                        sp.identity(2, format="csr"))
    assert calls == []
    I2 = sp.identity(2, format="csr")
    assert infsup_constant(I2, I2) == pytest.approx(1.0, abs=1e-8)
    assert len(calls) == 1


def test_infsup_rejects_nonsymmetric_gram():
    B = sp.identity(2, format="csr")
    G = sp.csr_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        infsup_constant(B, G)


def test_infsup_rejects_indefinite_gram():
    B = sp.identity(2, format="csr")
    G = sp.csr_matrix(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="positive definite"):
        infsup_constant(B, G)
    # zero diagonal: the LU needs a row swap, after which diag(U) = (1, 1)
    G = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        infsup_constant(B, G)


def test_infsup_releases_the_gram_check_before_factoring_b(square32,
                                                          monkeypatch):
    """The factor that validates G is gone before _infsup factors B, and the
    value is bitwise unchanged."""
    asm = assembler(square32, manufactured("cr_sine"))
    B = asm.jacobian(None).T.tocsr()
    G = asm.gram()
    expected = infsup_constant(B, G)
    gram_factor, infsup = ncfem.solve._gram_factor, ncfem.solve._infsup
    refs, dead = [], []

    class Factor:           # a SuperLU object takes no weak reference
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def tracked(G):
        factor = Factor(gram_factor(G))
        refs.append(weakref.ref(factor))
        return factor

    def checked(B, G):
        dead.extend(ref() is None for ref in refs)
        return infsup(B, G)
    monkeypatch.setattr(ncfem.solve, "_gram_factor", tracked)
    monkeypatch.setattr(ncfem.solve, "_infsup", checked)
    assert infsup_constant(B, G) == expected
    assert dead == [True]


def test_infsup_basis_change_invariance(square32):
    asm = assembler(square32, manufactured("cr_sine"))
    B = asm.jacobian(None).T.toarray()
    G = asm.gram().toarray()
    beta = infsup_constant(B, G)
    rng = np.random.default_rng(8)
    n = B.shape[0]
    T = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    # x = T x' and y = T y' change both bases; beta must not move
    beta2 = infsup_constant(T.T @ B @ T, T.T @ G @ T)
    assert beta2 == pytest.approx(beta, abs=1e-8)


def test_infsup_iterative_path_matches_dense(square32):
    asm = assembler(square32, manufactured("cr_sine"))
    B = asm.jacobian(None).T.tocsr()
    G = asm.gram()
    Bd, Gd = B.toarray(), G.toarray()
    A = Bd @ scipy.linalg.solve(Gd, Bd.T, assume_a="pos")
    lam = scipy.linalg.eigh(A, Gd, eigvals_only=True, subset_by_index=(0, 0))
    assert infsup_constant(B, G) == pytest.approx(np.sqrt(lam[0]), rel=1e-8)


def test_infsup_bitwise_deterministic(square32):
    asm = assembler(square32, manufactured("cr_sine"))
    B = asm.jacobian(None).T.tocsr()
    G = asm.gram()
    first = infsup_constant(B, G)
    assert infsup_constant(B, G) == first
    # an unrelated ARPACK call in between must not shift the start vector
    scipy.sparse.linalg.eigsh(sp.diags(np.arange(1.0, 41.0)), k=2)
    assert infsup_constant(B, G) == first


@pytest.mark.parametrize("name, n", [("ns_poly", 961), ("vk_poly", 1922)])
def test_kantorovich_beta0_matches_dense_svd(name, n):
    man = manufactured(name)
    mesh = refine(builtin_domain("unit_square"), 4)
    asm = assembler(mesh, man)
    U0 = interpolate(mesh, asm.dofmap, man.exact)
    assert len(U0) == n
    J, G = asm.jacobian(U0).toarray(), asm.gram().toarray()
    L = scipy.linalg.cholesky(G, lower=True)
    K = scipy.linalg.solve_triangular(L, J, lower=True)
    K = scipy.linalg.solve_triangular(L, K.T, lower=True).T
    dense = scipy.linalg.svdvals(K)[-1]
    rep = kantorovich_report(asm, U0)
    assert rep.beta0 == pytest.approx(dense, rel=1e-8)


def test_embedding_ratio_positive_and_finite(square32):
    r = discrete_embedding_ratio(assembler(square32, NS))
    assert 0.0 < r < 10.0


def _dense_embedding_constant(asm):
    """max over the point set of sqrt(phi_x^T G^-1 phi_x), with G^-1 dense."""
    dm = asm.dofmap
    Ginv = np.linalg.inv(asm.gram().toarray())
    eye = np.eye(3)
    bary = np.vstack([eye, 0.5 * (eye + np.roll(eye, 1, axis=0)),
                      quad_triangle(4).points])
    V = asm.tables.values_at(bary)
    # phi_x as a dense vector over free dofs, by the local coefficients of e_i
    loc = np.stack([local_coefficients(dm, e) for e in np.eye(dm.n_free)])
    Phi = np.einsum("tqj,itj->tqi", V, loc).reshape(-1, dm.n_free)
    return np.sqrt(np.einsum("pi,ij,pj->p", Phi, Ginv, Phi).max())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("levels", [0, 1, 2, 3])
def test_embedding_ratio_matches_dense_max(levels):
    asm = assembler(refine(builtin_domain("unit_square"), levels), NS)
    assert asm.dofmap.n_free == {0: 1, 1: 9, 2: 49, 3: 225}[levels]
    assert discrete_embedding_ratio(asm) == pytest.approx(
        _dense_embedding_constant(asm), rel=1e-10)


def test_embedding_ratio_is_a_lower_bound_on_lshape():
    # the alternation may stop at a local maximum over the points, but its
    # value is the ratio of an actual function, so never above the maximum
    asm = assembler(refine(builtin_domain("l_shape"), 2), NS)
    r = discrete_embedding_ratio(asm)
    assert 0.0 < r <= _dense_embedding_constant(asm) * (1 + 1e-12)


def test_embedding_ratio_without_free_dofs_is_zero():
    tri = build_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert discrete_embedding_ratio(assembler(tri, NS)) == 0.0


def test_diagnostics_bitwise_repeat(square32):
    def diagnostics():
        return [gamma_norm_lower_bound(assembler(square32, NS)),
                gamma_norm_lower_bound(assembler(square32, VK)),
                discrete_embedding_ratio(assembler(square32, NS))]

    first = diagnostics()
    # fresh assemblers and unrelated draws from the global generator in
    # between must not change a bit
    np.random.standard_normal(50)
    assert diagnostics() == first
