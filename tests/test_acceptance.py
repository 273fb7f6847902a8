"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -rA -s` to see the lines.  The
convergence studies are shared module-scoped fixtures; tolerances and rate
windows are pinned here, not configurable.
"""
import time

import numpy as np
import pytest

from conftest import morley_dofmap, random_function
from ncfem.afem import afem_loop, corner_fraction, uniform_study
from ncfem.assembly import Assembler, assembler, gamma_ns
from ncfem.estimators import (cr_apriori_terms, estimate_ns_morley,
                              estimate_vk_morley)
from ncfem.interpolation import (cr_dof_values, morley_dof_values,
                                 transfer_morley)
from ncfem.mesh import builtin_domain, geometry, refine, uniform_refine
from ncfem.problems import (ProblemKind, ProblemSpec, manufactured,
                            ns_unit_load, polynomial_field)
from ncfem.quadrature import (quad_triangle,
                              reference_triangle_monomial_integral)
from ncfem.solve import (discrete_embedding_ratio, fd_jacobian,
                         infsup_constant, kantorovich_report)
from ncfem.spaces import (DiscreteFunction, SpaceTag, basis_tables,
                          build_dofmap, local_coefficients, physical_points)

RATE_WINDOW = (0.85, 1.15)
EFFECTIVITY_FACTOR = 3.0
QUAD_RATIO_BOUND = 50.0   # observed <= 0.05 on all levels; rounded up hard


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def ns_study():
    man = manufactured("ns_poly")
    mesh0 = refine(builtin_domain("unit_square"), 1)
    t0 = time.perf_counter()
    result = uniform_study(man.problem, mesh0, 6, exact=man.exact)
    return {"man": man, "records": result.records, "result": result,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def vk_study():
    man = manufactured("vk_poly")
    mesh0 = refine(builtin_domain("unit_square"), 1)
    t0 = time.perf_counter()
    result = uniform_study(man.problem, mesh0, 6, exact=man.exact)
    return {"man": man, "records": result.records, "result": result,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def cr_study():
    man = manufactured("cr_sine")
    result = uniform_study(man.problem, builtin_domain("unit_square"), 8,
                           exact=man.exact)
    return {"man": man, "records": result.records, "result": result}


def test_criterion_1_ns_convergence(ns_study):
    records = ns_study["records"]
    rate = records[-1].rate_error
    n_final = records[-1].n_free
    ok = (RATE_WINDOW[0] <= rate <= RATE_WINDOW[1]
          and 5e3 <= n_final <= 2e4 and ns_study["elapsed"] <= 120.0)
    report(1, ok, f"Morley NS broken-H2 rate {rate:.3f} in {RATE_WINDOW}, "
                  f"n_free {n_final}, {ns_study['elapsed']:.1f}s <= 120s")


def test_criterion_2_vk_convergence(vk_study):
    records = vk_study["records"]
    rate = records[-1].rate_error
    n_final = records[-1].n_free
    ok = (RATE_WINDOW[0] <= rate <= RATE_WINDOW[1]
          and 5e3 <= n_final <= 2e4 and vk_study["elapsed"] <= 120.0)
    report(2, ok, f"Morley von Karman rate {rate:.3f} in {RATE_WINDOW}, "
                  f"n_free {n_final}, {vk_study['elapsed']:.1f}s <= 120s")


def test_criterion_3_cr_convergence(cr_study):
    records = cr_study["records"]
    man = cr_study["man"]
    rate = records[-1].rate_error
    terms = [cr_apriori_terms(m, man.exact[0], man.problem)
             for m in cr_study["result"].meshes[-2:]]
    p_rate = np.log2(terms[0][0] / terms[1][0])
    osc_rate = np.log2(terms[0][1] / terms[1][1])
    ok = (RATE_WINDOW[0] <= rate <= RATE_WINDOW[1]
          and p_rate >= 0.85 and osc_rate >= 0.85)
    report(3, ok, f"CR broken-H1 rate {rate:.3f} in {RATE_WINDOW}, "
                  f"flux-term rate {p_rate:.2f} >= 0.85, "
                  f"osc1 rate {osc_rate:.2f} >= 0.85")


def _newton_checks(study, label):
    records = study["records"]
    iters = [r.newton_iters for r in records]
    ok_small = all(i <= 6 for i in iters)
    ok_mono = all(b <= a for a, b in zip(iters[2:], iters[3:]))
    ratios = []
    for trace in study["result"].traces:
        for k, dn in enumerate(trace.correction_norms[:-1]):
            if 1e-8 <= dn <= 1e-2:
                ratios.append(trace.correction_norms[k + 1] / dn ** 2)
    ok_quad = all(q <= QUAD_RATIO_BOUND for q in ratios)
    return ok_small and ok_mono and ok_quad, iters, ratios


def _kantorovich_h_values(study, problem):
    res = study["result"]
    hs = []
    for lvl in range(1, len(res.meshes)):
        h_max = geometry(res.meshes[lvl]).h_max
        if h_max > 0.125 + 1e-12:
            continue
        U0 = transfer_morley(res.meshes[lvl - 1], res.dofmaps[lvl - 1],
                             res.solutions[lvl - 1],
                             res.meshes[lvl], res.dofmaps[lvl])
        rep = kantorovich_report(res.meshes[lvl], res.dofmaps[lvl],
                                 problem, U0)
        hs.append((lvl, rep.h, rep.condition_met))
    return hs


def test_criterion_4_newton_behavior(ns_study, vk_study):
    ok_ns, iters_ns, ratios_ns = _newton_checks(ns_study, "ns")
    ok_vk, iters_vk, ratios_vk = _newton_checks(vk_study, "vk")
    hs = (_kantorovich_h_values(ns_study, ns_study["man"].problem)
          + _kantorovich_h_values(vk_study, vk_study["man"].problem))
    ok_h = bool(hs) and all(h < 0.5 for _, h, _ in hs)
    max_ratio = max(ratios_ns + ratios_vk, default=0.0)
    ok = ok_ns and ok_vk and ok_h
    report(4, ok, f"newton iters ns {iters_ns} / vk {iters_vk} (<= 6, "
                  f"non-increasing from level 2), quadratic ratios <= "
                  f"{max_ratio:.3g} (bound {QUAD_RATIO_BOUND}), kantorovich "
                  f"h = {[f'{h:.2e}' for _, h, _ in hs]} all < 1/2")


def test_criterion_5_effectivity(ns_study, vk_study):
    details = []
    ok = True
    for study, label in ((ns_study, "ns"), (vk_study, "vk")):
        eff = [r.eta_total / r.error_pw for r in study["records"][2:6]]
        spread = max(eff) / min(eff)
        ok &= spread < EFFECTIVITY_FACTOR
        details.append(f"{label} effectivity {min(eff):.2f}..{max(eff):.2f} "
                       f"spread {spread:.2f}")
    # zero-consistency: zero state and zero data produce the exact zero report
    mesh = refine(builtin_domain("unit_square"), 1)
    dm = morley_dofmap(mesh)
    zf = lambda p: np.zeros(np.shape(p)[:-1])
    z1 = DiscreteFunction(SpaceTag.MORLEY, 1, np.zeros(dm.n_free))
    z2 = DiscreteFunction(SpaceTag.MORLEY, 2, np.zeros(2 * dm.n_free))
    rep1 = estimate_ns_morley(mesh, dm, z1, zf)
    rep2 = estimate_vk_morley(mesh, dm, z2, zf)
    zero_ok = rep1.eta_total == 0.0 and rep2.eta_total == 0.0
    ok &= zero_ok
    report(5, ok, "; ".join(details) + f" (< {EFFECTIVITY_FACTOR}); "
                  f"zero-consistency exact: {zero_ok}")


def test_criterion_6_average_term_decay(ns_study):
    man = ns_study["man"]
    res = ns_study["result"]
    S = []
    for mesh, dm, U in zip(res.meshes, res.dofmaps, res.solutions):
        rep = estimate_ns_morley(mesh, dm, U, man.problem.f)
        S.append(np.sqrt(rep.avg_term_S_sq))
    rates = [np.log2(a / b) for a, b in zip(S[1:], S[2:])]
    ok = all(r >= 0.85 for r in rates)
    report(6, ok, "average-term S rates "
                  + ", ".join(f"{r:.2f}" for r in rates) + " all >= 0.85")


def test_criterion_7_identity_suite():
    rng = np.random.default_rng(0)
    mesh = refine(builtin_domain("unit_square"), 1)
    checks = []

    rule_defect = 0.0
    for degree in range(1, 7):
        rule = quad_triangle(degree)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for p in range(rule.exact_degree + 1):
            for q in range(rule.exact_degree + 1 - p):
                val = (rule.weights * x ** p * y ** q).sum()
                rule_defect = max(rule_defect, abs(
                    val - reference_triangle_monomial_integral(p, q)))
    checks.append(("quadrature exactness", rule_defect, 1e-12))

    dm = morley_dofmap(mesh)
    tab = basis_tables(mesh, SpaceTag.MORLEY)
    dual = np.abs(np.einsum("tim,tmj->tij", tab.dof_matrix, tab.C)
                  - np.eye(6)).max()
    checks.append(("morley dof duality", dual, 1e-12))

    worst = 0.0
    for _ in range(100):
        eta = random_function(dm, rng)
        chi = random_function(dm, rng)
        worst = max(worst, abs(gamma_ns(mesh, dm, eta, chi, chi)))
    checks.append(("gamma antisymmetry", worst, 1e-12))

    vk_probe = ProblemSpec(kind=ProblemKind.VON_KARMAN_MORLEY,
                           f=lambda p: np.zeros(np.shape(p)[:-1]))
    asm = Assembler(mesh, dm, vk_probe)
    worst = 0.0
    for _ in range(100):
        ce, cc, cp = (local_coefficients(dm, random_function(dm, rng))
                      for _ in range(3))
        worst = max(worst, abs(asm.vk_b_pw(ce, cc, cp)
                               - asm.vk_b_pw(cc, ce, cp)))
    checks.append(("bracket symmetry", worst, 1e-12))

    def random_poly(max_deg):
        c = np.zeros((max_deg + 1, max_deg + 1))
        for i in range(max_deg + 1):
            for j in range(max_deg + 1 - i):
                c[i, j] = rng.standard_normal()
        return polynomial_field(c)

    geom = geometry(mesh)
    rule = quad_triangle(4)
    xq = physical_points(mesh, rule.points)
    wdx = 2.0 * geom.area[:, None] * rule.weights
    worst_m, worst_c = 0.0, 0.0
    dm_cr = build_dofmap(mesh, SpaceTag.CROUZEIX_RAVIART)
    tab_cr = basis_tables(mesh, SpaceTag.CROUZEIX_RAVIART)
    for _ in range(20):
        fld = random_poly(4)
        loc = morley_dof_values(mesh, fld)[dm.element_dofs]
        H = np.einsum("tjab,tj->tab", tab.hess, loc)
        mean = np.einsum("tq,tqab->tab", wdx, fld.hessian(xq)) / geom.area[:, None, None]
        worst_m = max(worst_m, np.abs(H - mean).max())
        locc = cr_dof_values(mesh, fld)[dm_cr.element_dofs]
        gh = np.einsum("tjd,tj->td", -2.0 * tab_cr.grad_lambda, locc)
        meang = np.einsum("tq,tqd->td", wdx, fld.gradient(xq)) / geom.area[:, None]
        worst_c = max(worst_c, np.abs(gh - meang).max())
    checks.append(("morley commuting identity", worst_m, 1e-10))
    checks.append(("cr commuting identity", worst_c, 1e-10))

    worst = 0.0
    for name in ("cr_sine", "ns_poly", "vk_poly"):
        problem = manufactured(name).problem
        space = (SpaceTag.CROUZEIX_RAVIART
                 if problem.kind is ProblemKind.SECOND_ORDER_CR
                 else SpaceTag.MORLEY)
        dmx = build_dofmap(mesh, space)
        U = random_function(dmx, rng, n_components=problem.n_components,
                            scale=0.2)
        J = assembler(mesh, dmx, problem).jacobian(U).toarray()
        fd = fd_jacobian(mesh, dmx, problem, U)
        worst = max(worst, np.abs(J - fd).max() / max(1.0, np.abs(fd).max()))
    checks.append(("jacobian vs finite differences", worst, 1e-6))

    ok = all(defect <= tol for _, defect, tol in checks)
    detail = "; ".join(f"{n} {d:.2e}<= {t:.0e}" for n, d, t in checks)
    report(7, ok, detail)


def test_criterion_8_infsup_plateau():
    import scipy.sparse as sp

    G6 = sp.identity(6, format="csr")
    trivial = infsup_constant(G6, G6, G6)
    man = manufactured("cr_sine")
    mesh = refine(builtin_domain("unit_square"), 3)
    betas = []
    for _ in range(4):
        dm = build_dofmap(mesh, SpaceTag.CROUZEIX_RAVIART)
        asm = assembler(mesh, dm, man.problem)
        B = (asm.a_matrix() + asm.b_matrix()).T.tocsr()
        G = asm.gram()
        betas.append(infsup_constant(B, G, G))
        mesh = uniform_refine(mesh)
    plateau = min(betas[-2:]) >= 0.9 * betas[-1]
    ok = (abs(trivial - 1.0) <= 1e-8 and all(b > 0 for b in betas) and plateau)
    report(8, ok, f"trivial beta {trivial:.10f} (=1 to 1e-8); beta_h = "
                  + ", ".join(f"{b:.5f}" for b in betas)
                  + f"; min(last two) >= 0.9 * last: {plateau}")


def test_criterion_9_afem_lshape():
    t0 = time.perf_counter()
    result = afem_loop(ns_unit_load(), builtin_domain("l_shape"), 0.5,
                       max_free_dofs=10_000)
    elapsed = time.perf_counter() - t0
    etas = [r.eta_total for r in result.records]
    decreasing = all(b < a for a, b in zip(etas[1:], etas[2:]))
    fracs = [corner_fraction(m) for m in result.meshes]
    # triangles are huge on the first levels, so every element touches the
    # disc; density growth shows as the tail rising clearly above the minimum
    concentrates = fracs[-1] >= 1.5 * min(fracs) and fracs[-1] > fracs[
        int(np.argmin(fracs))]
    reached = result.records[-1].n_free > 10_000
    ok = decreasing and concentrates and reached and elapsed <= 180.0
    report(9, ok, f"eta strictly decreasing from level 1: {decreasing}; "
                  f"corner fraction min {min(fracs):.3f} -> final "
                  f"{fracs[-1]:.3f} (>= 1.5x); n_free {result.records[-1].n_free} "
                  f"> 1e4; {elapsed:.1f}s <= 180s")


def test_criterion_10_discrete_embedding():
    mesh = refine(builtin_domain("unit_square"), 1)
    ratios = []
    for _ in range(4):
        dm = morley_dofmap(mesh)
        ratios.append(discrete_embedding_ratio(mesh, dm))
        mesh = uniform_refine(mesh)
    ok = max(ratios) <= 1.5 * ratios[0]
    report(10, ok, "sup/energy ratios per level "
                   + ", ".join(f"{r:.4f}" for r in ratios)
                   + f"; max <= 1.5 x first level: {ok}")
