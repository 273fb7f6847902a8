import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (MorleyByInverse, cr_apriori_terms, interior_edges,
                      morley_dofmap, random_function, volume_rule)
from ncfem.afem import dorfler_mark
from ncfem.assembly import Assembler, assembler
from ncfem.estimators import (EstimatorReport, _centroid_gradients,
                              _tangential_flux, broken_energy_error,
                              estimate)
from ncfem.interpolation import OSCILLATION_DEGREE, _edge_points, oscillation
from ncfem.mesh import builtin_domain, geometry, refine, uniform_refine
from ncfem.problems import Field, ProblemKind, ProblemSpec, manufactured
from ncfem.quadrature import quad_edge
from ncfem.solve import newton_solve
from ncfem.spaces import element_blocks, local_coefficients
import ncfem.spaces


def const_field(c):
    return Field(value=lambda p: np.full(np.shape(p)[:-1], float(c)))


def level(mesh, kind, f, g=None):
    """The level of a Morley problem with loads f (and g) on mesh."""
    return Assembler(mesh, ProblemSpec(kind=kind, f=f, g=g))


NS, VK = ProblemKind.NAVIER_STOKES_MORLEY, ProblemKind.VON_KARMAN_MORLEY


def test_ns_zero_consistency(square8):
    asm = level(square8, NS, const_field(0.0).value)
    zero = np.zeros(asm.dofmap.n_free)
    rep = estimate(asm, zero)
    assert rep.eta_total == 0.0
    assert rep.eta_K_sq.max() == 0.0 and rep.eta_E_sq.max() == 0.0
    assert rep.avg_term_S_sq == 0.0
    assert rep.osc_sq == 0.0


def test_ns_pure_data_term(square8):
    asm = level(square8, NS, const_field(1.0).value)
    zero = np.zeros(asm.dofmap.n_free)
    rep = estimate(asm, zero)
    g = geometry(square8)
    assert np.allclose(rep.eta_K_sq, g.h_T ** 4 * g.area, rtol=1e-12)
    assert rep.eta_E_sq.max() == 0.0
    assert rep.eta_total == pytest.approx(
        np.sqrt(rep.eta_K_sq.sum() + rep.eta_E_sq.sum()))


def test_vk_zero_and_data_cases(square8):
    zero = np.zeros(2 * morley_dofmap(square8).n_free)
    rep0 = estimate(level(square8, VK, const_field(0.0).value), zero)
    assert rep0.eta_total == 0.0
    rep1 = estimate(level(square8, VK, const_field(1.0).value), zero)
    g = geometry(square8)
    assert np.allclose(rep1.eta_K_sq, g.h_T ** 4 * g.area, rtol=1e-12)
    assert rep1.eta_E_sq.max() == 0.0


def test_vk_second_equation_verification_load(square8):
    asm = level(square8, VK, const_field(0.0).value, g=const_field(1.0).value)
    zero = np.zeros(2 * asm.dofmap.n_free)
    rep = estimate(asm, zero)
    g = geometry(square8)
    # residual of the second equation is [u,u] - 2g = -2
    assert np.allclose(rep.eta_K_sq, g.h_T ** 4 * 4.0 * g.area, rtol=1e-12)


def test_ns_estimator_report_consistency(square32):
    asm = assembler(square32, manufactured("ns_poly"))
    U, _ = newton_solve(asm)
    rep = estimate(asm, U)
    assert (rep.eta_K_sq >= 0).all() and (rep.eta_E_sq >= 0).all()
    assert rep.eta_total == pytest.approx(
        np.sqrt(rep.eta_K_sq.sum() + rep.eta_E_sq.sum()), rel=1e-12)
    assert 0.0 <= rep.avg_term_S_sq <= rep.eta_E_sq.sum()


@pytest.mark.parametrize("mesh", ["lshape", "graded"])
def test_lap_grad_at_edges_matches_basis_gradients(mesh, lshape, graded_lshape):
    """The hessians and centroid gradients from barycentric_form, and the
    closed-form tangential flux a + b s of (Lap u) grad u . tau_E built from
    them, against the basis of the dof-matrix inverse: at the centroids, and
    at the Gauss points of every edge from both sides.  The Navier-Stokes
    edge indicators of estimate then match those Gauss sums of the oracle's
    jumps and averages."""
    if mesh == "lshape":
        m = lshape
        dm = morley_dofmap(m)
        u = random_function(dm, np.random.default_rng(1))
    else:
        _, m, dm, u = graded_lshape
    asm = Assembler(m, manufactured("ns_poly"))
    tab = asm.tables
    cu = local_coefficients(dm, u)
    H = tab.hessians(cu)
    lap = H[:, 0, 0] + H[:, 1, 1]
    rule = quad_edge(4)
    pts = _edge_points(m, rule)
    geom = geometry(m)
    tau, h = geom.tau_E, geom.h_E
    mids = m.vertices[m.edges].mean(axis=1)
    s = np.einsum("eqd,ed->eq", pts - mids[:, None, :], tau)
    t_plus, t_minus = m.triangles_of_edge.T
    interior = t_minus >= 0
    cent = m.vertices[m.triangles].mean(axis=1)
    g_cent = _centroid_gradients(tab, cu)
    ref = MorleyByInverse(m)
    H_ref = np.einsum("tjab,tj->tab", ref.hess, cu)
    assert np.abs(H - H_ref).max() <= 1e-12 * np.abs(H_ref).max()
    tris = np.arange(m.n_triangles)
    g_ref = np.einsum("tjd,tj->td", ref.grads_at(tris, cent), cu)
    assert np.abs(g_cent - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    sides = []
    for tris, e in ((t_plus, slice(None)), (t_minus[interior], interior)):
        a, b = _tangential_flux(H, g_cent, cent, mids[e], tau[e], tris)
        got = a[:, None] + b[:, None] * s[e]
        g = np.einsum("eqjd,ej->eqd", ref.grads_at(tris, pts[e]), cu[tris])
        want = lap[tris][:, None] * np.einsum("eqd,ed->eq", g, tau[e])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        sides.append(want)
    plus, minus = sides[0], np.zeros_like(sides[0])
    minus[interior] = sides[1]
    avg = np.where(interior[:, None], 0.5 * (plus + minus), plus)
    jump = np.einsum("eab,eb->ea", H_ref[t_plus] - np.where(
        interior[:, None, None], H_ref[t_minus], 0.0), tau)
    flux_sq = [h ** 4 * (w ** 2 @ rule.weights) for w in (plus - minus, avg)]
    want = h ** 2 * (jump ** 2).sum(axis=1) + flux_sq[0] + flux_sq[1]
    rep = estimate(asm, u)
    assert np.abs(rep.eta_E_sq - want).max() <= 1e-12 * want.max()
    assert rep.avg_term_S_sq == pytest.approx(flux_sq[1].sum(), rel=1e-12)


def test_estimator_decay_under_refinement():
    man = manufactured("ns_poly")
    mesh = refine(builtin_domain("unit_square"), 1)
    totals = []
    for _ in range(4):
        asm = assembler(mesh, man)
        U, _ = newton_solve(asm)
        totals.append(estimate(asm, U).eta_total)
        mesh = uniform_refine(mesh)
    rate = np.log2(totals[-2] / totals[-1])
    assert 0.8 < rate < 2.2


def test_estimators_reject_space_mismatch(square8):
    asm = level(square8, VK, const_field(0.0).value)
    scalar = np.zeros(asm.dofmap.n_free)
    with pytest.raises(ValueError, match="2 Morley component"):
        estimate(asm, scalar)
    # the CR indicators never read U, but its length must fit the dof map
    cr = Assembler(refine(builtin_domain("unit_square"), 2),
                   manufactured("cr_sine"))
    assert cr.dofmap.n_free == 40
    with pytest.raises(ValueError, match="1 CR component"):
        estimate(cr, np.zeros(3))
    man = manufactured("ns_poly")
    with pytest.raises(ValueError, match="CR"):
        cr_apriori_terms(square8, man.exact[0], man)


def test_cr_estimate_needs_the_exact_solution():
    """A CR level is estimated by its exact solution's a priori terms; without
    one there is nothing to estimate by, so no indicators come back."""
    man = manufactured("cr_sine")
    cr = Assembler(refine(builtin_domain("unit_square"), 2), man)
    assert cr.dofmap.n_free == 40
    U = np.zeros(cr.dofmap.n_free)
    with pytest.raises(ValueError, match="exact solution"):
        estimate(Assembler(cr.mesh, dataclasses.replace(man, exact=None)), U)
    assert estimate(cr, U).eta_total > 0.0


def test_broken_energy_error_needs_the_exact_solution(square8):
    asm = Assembler(square8, manufactured("ns_unit_load"))
    with pytest.raises(ValueError, match="exact solution"):
        broken_energy_error(asm, np.zeros(asm.dofmap.n_free))


def test_vk_edge_indicators_sum_over_components(lshape):
    """The Hessian jumps of the pair (u, v) are those of (u, 0) plus those of
    (0, v): the edge term adds one jump term per component, and each
    component counts alike."""
    asm = level(lshape, VK, const_field(1.0).value)
    rng = np.random.default_rng(7)
    n = asm.dofmap.n_free
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    zero = np.zeros(n)
    both = estimate(asm, np.concatenate([u, v])).eta_E_sq
    only_u = estimate(asm, np.concatenate([u, zero])).eta_E_sq
    only_v = estimate(asm, np.concatenate([zero, v])).eta_E_sq
    assert np.array_equal(both, only_u + only_v)
    assert only_v.max() > 0.0
    v_first = estimate(asm, np.concatenate([v, zero])).eta_E_sq
    assert np.array_equal(only_v, v_first)


def test_vk_oscillation_sums_both_loads(square8):
    """With the second load g set, osc_sq is osc_0(f)^2 + osc_0(g)^2 (p = 2);
    without it, osc_0(f)^2 alone."""
    f = lambda p: np.sin(3.0 * p[..., 0]) * p[..., 1]
    g = lambda p: np.exp(p[..., 0] - 2.0 * p[..., 1])
    zero = np.zeros(2 * morley_dofmap(square8).n_free)
    xq, _ = volume_rule(square8, OSCILLATION_DEGREE)
    osc_f = oscillation(square8, f(xq), k=0, p=2)[1]
    osc_g = oscillation(square8, g(xq), k=0, p=2)[1]
    assert osc_f > 0.0 and osc_g > 0.0
    rep = estimate(level(square8, VK, f, g=g), zero)
    assert rep.osc_sq == osc_f ** 2 + osc_g ** 2
    assert estimate(level(square8, VK, f), zero).osc_sq == osc_f ** 2


class Sampled:
    """A load that counts the point sets it is sampled on."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, pts):
        self.calls += 1
        return self.fn(pts)


@pytest.mark.parametrize("kind", [NS, VK], ids=["ns", "vk"])
def test_morley_estimate_samples_each_load_once(square8, kind):
    """The volume residuals and the oscillation read one sampling of each
    load."""
    f, g = (Sampled(lambda p: np.sin(3.0 * p[..., 0]) * p[..., 1]),
            Sampled(lambda p: np.exp(p[..., 0] - 2.0 * p[..., 1])))
    asm = level(square8, kind, f, g=g)
    U = random_function(asm.dofmap, np.random.default_rng(3),
                        n_components=asm.problem.n_components)
    f.calls = g.calls = 0
    estimate(asm, U)
    assert (f.calls, g.calls) == (1, 1)


def test_cr_apriori_terms_sample_the_data_once(square8):
    """osc_1(f - gamma u) reads the samples of f, gamma and u that the flux
    term already took."""
    man = manufactured("cr_sine")
    u = man.exact[0]
    value = Sampled(u.value)
    prob = dataclasses.replace(man, f=Sampled(man.f),
                               gamma=Sampled(man.gamma))
    cr_apriori_terms(square8, dataclasses.replace(u, value=value), prob)
    assert (prob.f.calls, prob.gamma.calls, value.calls) == (1, 1, 1)


def test_cr_apriori_terms_zero_cases(square8):
    man = manufactured("cr_sine")
    zero = Field(value=lambda p: np.zeros(np.shape(p)[:-1]),
                 gradient=lambda p: np.zeros(np.shape(p)))
    prob0 = dataclasses.replace(man,
                                f=lambda p: np.zeros(np.shape(p)[:-1]),
                                gamma=None, b=None)
    p_term, osc1 = cr_apriori_terms(square8, zero, prob0)
    assert p_term == pytest.approx(0.0, abs=1e-14)
    assert osc1 == pytest.approx(0.0, abs=1e-14)


def test_cr_apriori_constant_flux(square8):
    # u with constant A grad(u) + u b: u linear, b = 0 -> first term vanishes
    from ncfem.problems import polynomial_field
    man = manufactured("cr_sine")
    prob = dataclasses.replace(man, b=None)
    lin = polynomial_field([[0.0, 2.0], [1.0, 0.0]])
    p_term, _ = cr_apriori_terms(square8, lin, prob)
    assert p_term == pytest.approx(0.0, abs=1e-12)


def test_cr_apriori_decay():
    man = manufactured("cr_sine")
    mesh = builtin_domain("unit_square")
    hist = []
    for _ in range(4):
        hist.append(cr_apriori_terms(mesh, man.exact[0], man))
        mesh = uniform_refine(mesh)
    p_rate = np.log2(hist[-2][0] / hist[-1][0])
    osc_rate = np.log2(hist[-2][1] / hist[-1][1])
    assert p_rate > 0.85
    assert osc_rate > 0.85


# tracemalloc bytes per triangle that estimating a CR level or taking its
# broken error may peak at, on refine(unit_square, 6) (8192 triangles, two
# element blocks): measured 869 (estimate) and 640 (broken error), budget
# 10% above the larger.  Sampled on the whole mesh at once, estimate took
# 1160 and the broken error 1072
CR_ESTIMATE_BYTES_PER_TRIANGLE = 950


def cr_step_peak(step, levels):
    """tracemalloc peak per triangle of one CR estimate step on
    refine(unit_square, levels)."""
    mesh = refine(builtin_domain("unit_square"), levels)
    asm = Assembler(mesh, manufactured("cr_sine"))
    U = np.zeros(asm.dofmap.n_free)
    tracemalloc.start()
    try:
        step(asm, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / mesh.n_triangles


@pytest.mark.parametrize("step", [estimate, broken_energy_error])
def test_a_cr_estimate_peaks_within_its_memory_budget(step):
    assert cr_step_peak(step, 6) <= CR_ESTIMATE_BYTES_PER_TRIANGLE


@pytest.mark.parametrize("step", [estimate, broken_energy_error])
def test_a_cr_estimate_sweeps_its_points_in_element_blocks(step):
    """Only the per-element and (nt, nq) outputs grow with nt; the
    quadrature-point temporaries are one block's, so the peak per triangle
    falls from 8192 triangles (two blocks) to 32768 (eight)."""
    assert cr_step_peak(step, 7) < cr_step_peak(step, 6)


def _wavy_A(pts):
    """A symmetric coefficient that varies on every element, its
    eigenvalues in [1.2, 2.8]."""
    x, y = pts[..., 0], pts[..., 1]
    out = np.empty(np.shape(pts)[:-1] + (2, 2))
    out[..., 0, 0] = 2.0 + 0.5 * np.sin(3.0 * x)
    out[..., 1, 1] = 2.0 + 0.5 * np.cos(2.0 * y)
    out[..., 0, 1] = out[..., 1, 0] = 0.3 * np.sin(x * y)
    return out


# CR problems with A set and every coefficient varying, sampled at the
# quadrature points or at the centroids
_WAVY = dataclasses.replace(
    manufactured("cr_sine"), A=_wavy_A, lambda_bounds=(1.0, 3.0),
    b=lambda p: np.stack([np.cos(p[..., 1]), p[..., 0] ** 2], axis=-1),
    gamma=lambda p: -20.0 + 5.0 * np.exp(p[..., 0] - p[..., 1]))
BLOCK_PROBLEMS = {"cr_A": _WAVY, "cr_pwc": dataclasses.replace(
    _WAVY, piecewise_constant=True)}


def block_outputs(asm, U):
    """The set-up's G (data, indices, indptr), load and CR Jacobian, the
    fields of the estimator report of U, and its broken error."""
    G = asm.gram()
    out = [G.data, G.indices, G.indptr, asm.load()]
    if asm.problem.kind is ProblemKind.SECOND_ORDER_CR:
        J = asm.jacobian(None)
        out += [J.data, J.indices, J.indptr]
    rep = estimate(asm, U)
    return (out + [getattr(rep, f.name) for f in dataclasses.fields(rep)],
            broken_energy_error(asm, U))


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly", "cr_sine", "cr_A",
                                  "cr_pwc"])
@pytest.mark.parametrize("domain, levels", [("unit_square", 3),
                                            ("l_shape", 2)])
def test_element_blocks_keep_every_bit(name, domain, levels, monkeypatch):
    """Blocks of 7 elements (no divisor of nt, so a partial last block) give
    the set-up (G, the load and the CR Jacobian), the estimate and the
    broken error of a single whole-mesh block to the bit, and cover every
    element once, in order."""
    mesh = refine(builtin_domain(domain), levels)
    assert mesh.n_triangles % 7 > 1
    problem = BLOCK_PROBLEMS.get(name) or manufactured(name)
    U, outputs = None, []
    for block in (mesh.n_triangles + 1, 7):
        monkeypatch.setattr(ncfem.spaces, "ELEMENT_BLOCK", block)
        covered = [np.arange(mesh.n_triangles)[sl]
                   for sl, _, _ in element_blocks(mesh, 6)]
        assert np.array_equal(np.concatenate(covered),
                              np.arange(mesh.n_triangles))
        asm = Assembler(mesh, problem)
        if U is None:
            U, _ = newton_solve(asm)
        outputs.append(block_outputs(asm, U))
    (whole, err_whole), (blocked, err_blocked) = outputs
    assert len(covered) == -(-mesh.n_triangles // 7)
    for a, b in zip(whole, blocked):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert np.float64(err_whole).tobytes() == np.float64(err_blocked).tobytes()


def test_a_one_element_last_block_joins_the_one_before(monkeypatch):
    """numpy takes a one-row matmul down its vector path, which rounds the
    P1 fit of oscillation differently; element_blocks never ends on one."""
    mesh = refine(builtin_domain("l_shape"), 2)        # 96 = 5 * 19 + 1
    gq = np.random.default_rng(0).standard_normal((mesh.n_triangles, 12))
    monkeypatch.setattr(ncfem.spaces, "ELEMENT_BLOCK", mesh.n_triangles)
    whole = oscillation(mesh, gq, k=1, p=1)
    monkeypatch.setattr(ncfem.spaces, "ELEMENT_BLOCK", 19)
    sizes = [sl.stop - sl.start for sl, _, _ in element_blocks(mesh, 6)]
    assert sizes == [19] * 4 + [20]
    blocked = oscillation(mesh, gq, k=1, p=1)
    assert whole[0].tobytes() == blocked[0].tobytes()
    assert whole[1] == blocked[1]


def test_broken_energy_error_zero_for_exact_interpolated():
    # against itself the error must vanish: compare discrete vs discrete
    man = manufactured("ns_poly")
    asm = assembler(refine(builtin_domain("unit_square"), 1), man)
    U, _ = newton_solve(asm)
    err = broken_energy_error(asm, U)
    assert err > 0.0


# ---------------------------------------------------------------------------
# Doerfler marking

def report_from(eta_K_sq, eta_E_sq):
    eta_K_sq = np.asarray(eta_K_sq, dtype=float)
    eta_E_sq = np.asarray(eta_E_sq, dtype=float)
    return EstimatorReport(eta_K_sq=eta_K_sq, eta_E_sq=eta_E_sq,
                           avg_term_S_sq=0.0, osc_sq=0.0,
                           eta_total=float(np.sqrt(eta_K_sq.sum()
                                                   + eta_E_sq.sum())))


def test_dorfler_theta_one_marks_all_positive(square8):
    rng = np.random.default_rng(0)
    rep = report_from(rng.random(square8.n_triangles),
                      np.zeros(square8.n_edges))
    marked = dorfler_mark(square8, rep, 1.0)
    assert marked.dtype == np.intp
    assert marked.tolist() == list(range(square8.n_triangles))


def test_dorfler_dominant_element(square8):
    eta = np.full(square8.n_triangles, 1e-6)
    eta[3] = 100.0
    rep = report_from(eta, np.zeros(square8.n_edges))
    assert dorfler_mark(square8, rep, 0.5).tolist() == [3]


def test_dorfler_equal_indicators_half(square8):
    n = square8.n_triangles
    rep = report_from(np.ones(n), np.zeros(square8.n_edges))
    marked = dorfler_mark(square8, rep, 0.5)
    assert len(marked) == int(np.ceil(n / 2))


def test_dorfler_zero_report_empty(square8):
    rep = report_from(np.zeros(square8.n_triangles), np.zeros(square8.n_edges))
    marked = dorfler_mark(square8, rep, 0.7)
    assert marked.dtype == np.intp and marked.tolist() == []


def test_dorfler_rejects_bad_theta(square8):
    rep = report_from(np.ones(square8.n_triangles), np.zeros(square8.n_edges))
    with pytest.raises(ValueError):
        dorfler_mark(square8, rep, 0.0)
    with pytest.raises(ValueError):
        dorfler_mark(square8, rep, 1.5)


def test_dorfler_edge_split(square8):
    # a single dominant edge marks exactly its two neighbours at fitting theta
    eta_E = np.zeros(square8.n_edges)
    e = interior_edges(square8)[0]
    eta_E[e] = 1.0
    rep = report_from(np.zeros(square8.n_triangles), eta_E)
    marked = dorfler_mark(square8, rep, 0.9)
    adj = square8.triangles_of_edge[e]
    assert marked.tolist() == sorted(adj[adj >= 0].tolist())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_dorfler_monotone_in_theta(seed, th1, th2):
    mesh = builtin_domain("l_shape")
    rng = np.random.default_rng(seed)
    rep = report_from(rng.random(mesh.n_triangles) ** 3,
                      rng.random(mesh.n_edges) ** 3)
    lo, hi = sorted((th1, th2))
    m_lo = dorfler_mark(mesh, rep, lo)
    m_hi = dorfler_mark(mesh, rep, hi)
    # ascending without repeats, and the lower theta's set inside the other
    assert (np.diff(m_lo) > 0).all() and (np.diff(m_hi) > 0).all()
    assert np.isin(m_lo, m_hi).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 1.0))
def test_dorfler_bulk_property_and_minimality(seed, theta):
    mesh = builtin_domain("l_shape")
    rng = np.random.default_rng(seed)
    rep = report_from(rng.random(mesh.n_triangles) ** 2,
                      rng.random(mesh.n_edges) ** 2)
    adj = mesh.triangles_of_edge
    share = rep.eta_E_sq / (adj >= 0).sum(axis=1)
    ind = rep.eta_K_sq.copy()
    for e in range(mesh.n_edges):
        for t in adj[e][adj[e] >= 0]:
            ind[t] += share[e]
    marked = dorfler_mark(mesh, rep, theta)
    assert (np.diff(marked) > 0).all()
    total = ind.sum()
    got = sum(ind[t] for t in marked)
    assert got >= theta * total * (1 - 1e-9)
    # greedy minimality: dropping the smallest marked indicator breaks the bulk
    if len(marked):
        smallest = min(marked, key=lambda t: (ind[t], -t))
        assert got - ind[smallest] < theta * total * (1 + 1e-9)
