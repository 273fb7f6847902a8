import gc
import weakref

import pytest

from conftest import SplaSpy, patch_newton
from ncfem.afem import (NewtonDivergence, afem_loop, corner_fraction,
                        uniform_study)
from ncfem.assembly import Assembler, assembler
from ncfem.mesh import builtin_domain, refine
from ncfem.problems import manufactured, ns_unit_load
import ncfem.afem
import ncfem.mesh
import ncfem.solve
from ncfem.spaces import SpaceTag, basis_tables


def test_afem_refuses_a_cr_problem(monkeypatch):
    """The CR indicators are a priori terms that never read U, so an
    adaptive CR run would mark by the exact solution alone: afem_loop
    refuses before its first solve."""
    calls = patch_newton(monkeypatch)
    man = manufactured("cr_sine")
    with pytest.raises(ValueError, match="Morley"):
        afem_loop(man, builtin_domain("unit_square"), 0.5,
                  max_free_dofs=300)
    assert calls == []


def test_afem_ns_eta_decreases():
    res = afem_loop(ns_unit_load(), builtin_domain("unit_square"), 0.5,
                    max_free_dofs=400)
    etas = [r.eta_total for r in res.records]
    assert all(b < a for a, b in zip(etas[1:], etas[2:]))


def test_afem_ns_manufactured_eta_decreases():
    man = manufactured("ns_poly")
    res = afem_loop(man, builtin_domain("unit_square"), 0.5,
                    max_free_dofs=500)
    etas = [r.eta_total for r in res.records]
    assert all(b < a for a, b in zip(etas[1:], etas[2:]))
    assert all(r.error_pw is not None and r.error_pw > 0 for r in res.records)


def test_afem_factors_only_g_after_level_0(monkeypatch):
    """Level 0 starts cold, and its direct first step is the run's one
    spsolve and its one assembled Jacobian.  Every later level starts from
    the transferred solution, makes the G factor its one splu and takes
    every Newton step by GMRES on it, with J applied element-wise."""
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    jacobian, assembled = Assembler.jacobian, []

    def counted(self, U):
        assembled.append(len(calls))
        return jacobian(self, U)

    monkeypatch.setattr(Assembler, "jacobian", counted)
    calls = []
    res = afem_loop(ns_unit_load(), builtin_domain("l_shape"), 0.5, 1000,
                    on_level=lambda asm, U, rec: calls.append(spla.calls))
    assert res.records[-1].n_free > 1000
    assert calls == [{"splu": k + 1, "spsolve": 1} for k in range(len(calls))]
    assert assembled == [0]
    for trace in res.traces[1:]:
        assert trace.iterations >= 1 and trace.direct_fallbacks == 0
        assert len(trace.krylov_iterations) == trace.iterations


@pytest.mark.parametrize("domain, levels", [("unit_square", 5), ("l_shape", 4)])
def test_a_cr_study_factors_j_once_on_level_0(domain, levels, monkeypatch):
    """Only level 0 of a CR study is a cold start: its direct step is the
    run's one spsolve.  Every later level starts from zero and takes its
    one Newton step by GMRES on the G factor, its one splu."""
    spla = SplaSpy()
    monkeypatch.setattr(ncfem.solve, "spla", spla)
    calls = []
    res = uniform_study(manufactured("cr_sine"), builtin_domain(domain),
                        levels, on_level=lambda asm, U, rec:
                        calls.append(spla.calls))
    assert calls == [{"splu": k + 1, "spsolve": 1} for k in range(levels)]
    assert [r.newton_iters for r in res.records] == [1] * levels
    assert [t.direct_fallbacks for t in res.traces] == [0] * levels
    assert res.traces[0].krylov_iterations == []
    for trace in res.traces[1:]:
        assert len(trace.krylov_iterations) == 1
        assert 1 <= trace.krylov_iterations[0] <= 30


def test_afem_stops_at_budget():
    res = afem_loop(ns_unit_load(), builtin_domain("unit_square"), 0.5,
                    max_free_dofs=200)
    assert res.records[-1].n_free > 200
    assert all(r.n_free <= 200 for r in res.records[:-1])


@pytest.mark.parametrize("theta", [0.0, -0.5, 1.5])
def test_afem_checks_theta_before_the_first_solve(theta, monkeypatch):
    calls = patch_newton(monkeypatch)
    for budget in (100, 100_000):
        with pytest.raises(ValueError, match="theta"):
            afem_loop(ns_unit_load(), refine(builtin_domain("l_shape"), 3),
                      theta=theta, max_free_dofs=budget)
    assert len(calls) == 0


@pytest.mark.parametrize("driver", ["afem", "uniform"])
def test_divergence_carries_the_converged_levels(driver, monkeypatch):
    patch_newton(monkeypatch, fail_from_level=2)
    man = manufactured("ns_poly")
    with pytest.raises(NewtonDivergence, match="did not converge") as info:
        if driver == "afem":
            afem_loop(man, builtin_domain("unit_square"), 0.5,
                      max_free_dofs=10_000)
        else:
            uniform_study(man, builtin_domain("unit_square"), 4)
    assert [r.level for r in info.value.records] == [0, 1]


def test_uniform_study_levels_and_rates():
    man = manufactured("cr_sine")
    records = uniform_study(man, builtin_domain("unit_square"), 3).records
    assert [r.level for r in records] == [0, 1, 2]
    assert records[0].rate_error is None and records[0].rate_eta is None
    assert records[1].rate_error is not None
    with pytest.raises(ValueError):
        uniform_study(man, builtin_domain("unit_square"), 0)


def test_uniform_study_single_level():
    man = manufactured("cr_sine")
    records = uniform_study(man, builtin_domain("unit_square"), 1).records
    assert len(records) == 1
    assert records[0].rate_error is None


def test_finished_levels_are_not_cached():
    """No module cache keeps a level: neither a level that a caller built and
    dropped, nor any level of a finished study."""
    man = manufactured("ns_poly")
    mesh = builtin_domain("unit_square")
    refs = [weakref.ref(assembler(mesh, man)),
            weakref.ref(basis_tables(mesh, SpaceTag.MORLEY))]

    def on_level(asm, U, record):
        refs.extend([weakref.ref(asm), weakref.ref(asm.tables)])

    uniform_study(man, mesh, 3, on_level=on_level)
    gc.collect()
    assert [ref() for ref in refs] == [None] * 8


@pytest.mark.parametrize("driver", ["uniform_study", "afem_loop",
                                    "cr_uniform_study"])
def test_each_level_builds_its_assembler_and_tables_once(driver):
    # the level driver hands each level's Assembler to Newton, the
    # estimators and the transfer: none of them looks a level up again.  A
    # CR level holds no table past its set-up, so its broken error and its
    # carry (on every level but the last) each build the gradients anew
    # through Assembler.cr_gradients: 3 + 3 + 2 tables on three levels
    assembler.cache_clear()
    basis_tables.cache_clear()
    tables = 3
    if driver == "uniform_study":
        man = manufactured("ns_poly")
        res = uniform_study(man, builtin_domain("unit_square"), 3)
    elif driver == "cr_uniform_study":
        res = uniform_study(manufactured("cr_sine"),
                            builtin_domain("unit_square"), 3)
        tables = 3 + 3 + 2
    else:
        # 5, 13 and 17 free dofs: the third level passes 15
        res = afem_loop(ns_unit_load(), builtin_domain("l_shape"), 0.5,
                        max_free_dofs=15)
    assert len(res.records) == 3
    for cached, misses in ((assembler, 3), (basis_tables, tables)):
        info = cached.cache_info()
        assert (info.misses, info.hits) == (misses, 0)


@pytest.mark.parametrize("driver", ["uniform_study", "afem_loop"])
def test_finished_levels_are_let_go(driver):
    """The drivers keep no mesh and no solution: on_level sees each level
    once, and after the run no level's mesh or U is alive."""
    seen = []

    def on_level(asm, U, record):
        seen.append((weakref.ref(asm.mesh), weakref.ref(U), record))
        assert record.n_free == asm.dofmap.n_free == U.shape[0]

    if driver == "uniform_study":
        man = manufactured("ns_poly")
        res = uniform_study(man, builtin_domain("unit_square"), 3,
                            on_level=on_level)
    else:
        # 5, 13 and 17 free dofs: the third level passes 15
        res = afem_loop(ns_unit_load(), builtin_domain("l_shape"), 0.5,
                        max_free_dofs=15, on_level=on_level)
    gc.collect()
    assert [rec for _, _, rec in seen] == res.records
    assert [ref() is not None for ref, _, _ in seen] == [False, False, False]
    assert [ref() is not None for _, ref, _ in seen] == [False, False, False]


def test_transferred_values_go_once_restricted(monkeypatch):
    """The Morley dof values that the transfer carries to the next mesh are
    freed once they are restricted to Newton's start, before Newton runs."""
    refs, alive = [], []
    restrict, solve = (ncfem.afem.function_from_element_values,
                       ncfem.afem.newton_solve)

    def restrict_spy(dofmap, values):
        refs.append(weakref.ref(values))
        return restrict(dofmap, values)

    def solve_spy(asm, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return solve(asm, **kwargs)
    monkeypatch.setattr(ncfem.afem, "function_from_element_values", restrict_spy)
    monkeypatch.setattr(ncfem.afem, "newton_solve", solve_spy)
    uniform_study(manufactured("ns_poly"), builtin_domain("unit_square"), 3)
    assert alive == [[], [False], [False, False]]


def test_a_cr_study_leaves_the_edge_geometry_unbuilt(monkeypatch):
    """No CR level reads h_E, nu_E or tau_E, so none is built."""
    built, build = [], ncfem.mesh._edge_fields
    monkeypatch.setattr(ncfem.mesh, "_edge_fields",
                        lambda *arrays: built.append(1) or build(*arrays))
    res = uniform_study(manufactured("cr_sine"), builtin_domain("unit_square"),
                        3)
    assert len(res.records) == 3 and built == []


@pytest.mark.parametrize("driver", ["uniform_study", "afem_loop"])
def test_the_coarse_level_is_gone_before_the_fine_set_up(driver, monkeypatch):
    """When a driver sets up a level, every earlier level's Assembler, tables
    and mesh are already collected: the driver is their only owner.  Level
    0's mesh is the caller's mesh0, alive for the whole run."""
    levels, alive = [], []

    def spy(mesh, problem):
        gc.collect()
        alive.append([ref() is not None for level in levels for ref in level])
        asm = assembler(mesh, problem)
        levels.append([weakref.ref(asm), weakref.ref(asm.tables),
                       weakref.ref(asm.mesh)])
        return asm

    monkeypatch.setattr(ncfem.afem, "assembler", spy)
    if driver == "uniform_study":
        man = manufactured("ns_poly")
        uniform_study(man, builtin_domain("unit_square"), 3)
    else:
        # 5, 13 and 17 free dofs: the third level passes 15
        afem_loop(ns_unit_load(), builtin_domain("l_shape"), 0.5,
                  max_free_dofs=15)
    assert alive == [[], [False, False, True], [False, False, True] + [False] * 3]


def test_corner_fraction_geometry():
    m = builtin_domain("l_shape")
    assert corner_fraction(m, (0.0, 0.0), 0.1) == 1.0  # all coarse triangles touch
    assert corner_fraction(m, (10.0, 10.0), 0.1) == 0.0
    m2 = refine(m, 3)
    frac = corner_fraction(m2, (0.0, 0.0), 0.1)
    assert 0.0 < frac < 1.0


def test_corner_fraction_counts_containing_triangle():
    m = builtin_domain("unit_square")
    # interior point of triangle 0, radius tiny: exactly one triangle
    assert corner_fraction(m, (0.7, 0.2), 1e-6) == pytest.approx(0.5)
