"""Manufactured registry against independently derived loads.

The expected point values were frozen from a symbolic-differentiation run
performed before the registry was written; the closed forms below re-derive
the loads by hand from u* = g(x) g(y), g(t) = t^2 (1-t)^2, and sympy
re-derives every load and exact field from its defining expression, so the
checks do not share code with the registry's coefficient arrays.
"""
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as P
import pytest
import sympy as sp

import ncfem
from ncfem.mesh import refine
from ncfem.problems import manufactured, ns_unit_load, polynomial_field, registry_names
from ncfem.quadrature import quad_triangle
from ncfem.spaces import physical_points

RNG = np.random.default_rng(11)


def g(t):
    return t * t * (1 - t) ** 2


def g1(t):
    return 2 * t - 6 * t ** 2 + 4 * t ** 3


def g2(t):
    return 2 - 12 * t + 12 * t ** 2


def g3(t):
    return -12 + 24 * t


def bump(x, y):
    return g(x) * g(y)


def bilap_bump(x, y):
    return 24 * g(y) + 2 * g2(x) * g2(y) + g(x) * 24


def ns_load(x, y):
    # Delta^2 u + d/dx((-Lap u) u_y) - d/dy((-Lap u) u_x) for u = g(x) g(y)
    lap_x = -(g3(x) * g(y) + g1(x) * g2(y))
    lap_y = -(g2(x) * g1(y) + g(x) * g3(y))
    u_x = g1(x) * g(y)
    u_y = g(x) * g1(y)
    return bilap_bump(x, y) + lap_x * u_y - lap_y * u_x


def bracket_uu(x, y):
    u_xx = g2(x) * g(y)
    u_yy = g(x) * g2(y)
    u_xy = g1(x) * g1(y)
    return 2.0 * (u_xx * u_yy - u_xy ** 2)


def test_registry_names():
    assert set(registry_names()) == {"ns_poly", "vk_poly", "cr_sine"}
    with pytest.raises(KeyError, match="cr_sine"):
        manufactured("nope")


def test_ns_frozen_values():
    f = manufactured("ns_poly").problem.f
    pts = np.array([[0.5, 0.5], [0.25, 0.75], [0.3, 0.2]])
    expected = [5.0, 1.8125, 1.58873166848]
    assert np.allclose(f(pts), expected, atol=1e-12)


def test_vk_frozen_values():
    man = manufactured("vk_poly")
    pts = np.array([[0.5, 0.5], [0.25, 0.75], [0.3, 0.2]])
    assert np.allclose(man.problem.f(pts),
                       [639 / 128, 1.8148174285888672, 1.591774828544],
                       atol=1e-12)
    assert np.allclose(man.problem.g(pts),
                       [1281 / 256, 1.8113412857055664, 1.588512585728],
                       atol=1e-12)


def test_cr_frozen_values():
    f = manufactured("cr_sine").problem.f
    pts = np.array([[0.5, 0.5], [0.25, 0.75], [0.3, 0.2]])
    expected = [2 * np.pi ** 2 - 20, -0.13039559891064138, -3.265606237629968]
    assert np.allclose(f(pts), expected, atol=1e-12)


def test_cr_load_evaluates_the_sines_once(monkeypatch):
    """f = (2 pi^2 + gamma) u - u_x - u_y takes sin and cos of pi x and pi y
    once per call, and matches u.value and u.gradient bitwise."""
    man = manufactured("cr_sine")
    pts = RNG.random((40, 2))
    u = man.exact[0]
    grad = u.gradient(pts)
    expected = (2 * np.pi ** 2 - 20) * u.value(pts) - grad[..., 0] - grad[..., 1]
    calls = []

    def counted(name):
        ufunc = getattr(np, name)

        def call(x):
            calls.append(name)
            return ufunc(x)
        return call
    for name in ("sin", "cos"):
        monkeypatch.setattr(np, name, counted(name))
    out = man.problem.f(pts)
    assert sorted(calls) == ["cos", "cos", "sin", "sin"]
    assert np.array_equal(out, expected)


def test_ns_load_against_hand_derivation():
    f = manufactured("ns_poly").problem.f
    pts = RNG.random((40, 2))
    assert np.allclose(f(pts), ns_load(pts[:, 0], pts[:, 1]), atol=1e-12)


def test_vk_loads_against_hand_derivation():
    man = manufactured("vk_poly")
    pts = RNG.random((40, 2))
    x, y = pts[:, 0], pts[:, 1]
    assert np.allclose(man.problem.f(pts), bilap_bump(x, y) - bracket_uu(x, y),
                       atol=1e-12)
    assert np.allclose(man.problem.g(pts),
                       bilap_bump(x, y) + 0.5 * bracket_uu(x, y), atol=1e-12)


def test_cr_load_against_hand_derivation():
    f = manufactured("cr_sine").problem.f
    pts = RNG.random((40, 2))
    x, y = pts[:, 0], pts[:, 1]
    ss = np.sin(np.pi * x) * np.sin(np.pi * y)
    expected = ((2 * np.pi ** 2 - 20) * ss
                - np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
                - np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
    assert np.allclose(f(pts), expected, atol=1e-12)


def test_exact_fields_match_hand_derivatives():
    fld = manufactured("ns_poly").exact[0]
    pts = RNG.random((20, 2))
    x, y = pts[:, 0], pts[:, 1]
    assert np.allclose(fld.value(pts), bump(x, y), atol=1e-14)
    grad = fld.gradient(pts)
    assert np.allclose(grad[:, 0], g1(x) * g(y), atol=1e-13)
    assert np.allclose(grad[:, 1], g(x) * g1(y), atol=1e-13)
    hess = fld.hessian(pts)
    assert np.allclose(hess[:, 0, 0], g2(x) * g(y), atol=1e-13)
    assert np.allclose(hess[:, 0, 1], g1(x) * g1(y), atol=1e-13)
    assert np.allclose(hess[:, 1, 1], g(x) * g2(y), atol=1e-13)


def test_exact_solution_is_clamped():
    fld = manufactured("ns_poly").exact[0]
    ts = np.linspace(0, 1, 9)
    boundary = np.concatenate([
        np.stack([ts, np.zeros_like(ts)], axis=-1),
        np.stack([ts, np.ones_like(ts)], axis=-1),
        np.stack([np.zeros_like(ts), ts], axis=-1),
        np.stack([np.ones_like(ts), ts], axis=-1)])
    assert np.abs(fld.value(boundary)).max() < 1e-15
    assert np.abs(fld.gradient(boundary)).max() < 1e-15


def test_cr_coefficients():
    p = manufactured("cr_sine").problem
    pts = RNG.random((5, 2))
    A = p.A(pts)
    assert np.allclose(A, np.broadcast_to(np.eye(2), (5, 2, 2)))
    assert np.allclose(p.b(pts), 1.0)
    assert np.allclose(p.gamma(pts), -20.0)
    assert p.lambda_bounds == (1.0, 1.0)


def test_ns_unit_load():
    p = ns_unit_load()
    assert np.allclose(p.f(RNG.random((7, 2))), 1.0)


def test_polynomial_field_derivatives():
    c = RNG.standard_normal((4, 4))
    fld = polynomial_field(c)
    pts = RNG.random((10, 2))
    h = 1e-5
    for d, e in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
        fd = (fld.value(pts + e) - fld.value(pts - e)) / (2 * h)
        assert np.allclose(fld.gradient(pts)[:, d], fd, atol=1e-7)


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (9, 9)])
def test_polynomial_field_is_bitwise_polyval2d(shape):
    """The nested Horner evaluation keeps polyval2d's operation order."""
    rng = np.random.default_rng(sum(shape))
    c = rng.standard_normal(shape)
    pts = rng.uniform(-2.0, 2.0, (40, 7, 2))
    fld = polynomial_field(c)
    got = fld.value(pts)
    expect = P.polyval2d(pts[..., 0], pts[..., 1], c)
    assert got.shape == expect.shape == (40, 7)
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
    assert np.array_equal(fld.gradient(pts)[..., 1],
                          P.polyval2d(pts[..., 0], pts[..., 1], P.polyder(c, axis=1)))


# tracemalloc bytes per triangle that sampling a load on the degree-6 points
# of refine(l_shape, 6) may peak at: measured 288 for every polynomial load
# (three arrays of the sample shape); polyval2d peaked at 2304 for ns f
LOAD_BYTES_PER_TRIANGLE = 480


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly"])
def test_a_polynomial_load_samples_within_its_memory_budget(name, lshape):
    mesh = refine(lshape, 6)
    xq = physical_points(mesh, quad_triangle(6).points)
    f = manufactured(name).problem.f
    tracemalloc.start()
    try:
        fq = f(xq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fq.shape == xq.shape[:-1]
    assert peak / mesh.n_triangles <= LOAD_BYTES_PER_TRIANGLE


# ---------------------------------------------------------------------------
# symbolic oracle: each load and exact field re-derived with sympy

X, Y = sp.symbols("x y")
SYM_BUMP = (X * (1 - X)) ** 2 * (Y * (1 - Y)) ** 2
SYM_SINE = sp.sin(sp.pi * X) * sp.sin(sp.pi * Y)


def sym_lap(u):
    return sp.diff(u, X, 2) + sp.diff(u, Y, 2)


def sym_bracket(u, v):
    return (sp.diff(u, X, 2) * sp.diff(v, Y, 2)
            + sp.diff(u, Y, 2) * sp.diff(v, X, 2)
            - 2 * sp.diff(u, X, Y) * sp.diff(v, X, Y))


def symbolic_loads(name):
    """(f, g or None) of the manufactured problem, derived from its PDE."""
    if name == "ns_poly":
        u = SYM_BUMP
        return (sym_lap(sym_lap(u))
                + sp.diff(-sym_lap(u) * sp.diff(u, Y), X)
                - sp.diff(-sym_lap(u) * sp.diff(u, X), Y)), None
    if name == "vk_poly":
        u = v = SYM_BUMP
        return (sym_lap(sym_lap(u)) - sym_bracket(u, v),
                sym_lap(sym_lap(v)) + sp.Rational(1, 2) * sym_bracket(u, u))
    # -div(A grad u + u b) + gamma u with A = I, b = (1, 1), gamma = -20
    u = SYM_SINE
    return -sym_lap(u) - (sp.diff(u, X) + sp.diff(u, Y)) - 20 * u, None


def sym_eval(expr, pts):
    fn = sp.lambdify((X, Y), expr, modules="numpy")
    return np.broadcast_to(fn(pts[:, 0], pts[:, 1]), pts.shape[:-1])


def assert_rel(actual, expected, rel=1e-12):
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


@pytest.mark.parametrize("name", ["ns_poly", "vk_poly", "cr_sine"])
def test_loads_match_symbolic_derivation(name):
    problem = manufactured(name).problem
    f, g = symbolic_loads(name)
    pts = np.random.default_rng(5).random((200, 2))
    assert_rel(problem.f(pts), sym_eval(f, pts))
    assert (problem.g is None) == (g is None)
    if g is not None:
        assert_rel(problem.g(pts), sym_eval(g, pts))


@pytest.mark.parametrize("name, component, expr", [
    ("ns_poly", 0, SYM_BUMP), ("vk_poly", 0, SYM_BUMP),
    ("vk_poly", 1, SYM_BUMP), ("cr_sine", 0, SYM_SINE)],
    ids=["ns_poly-u", "vk_poly-u", "vk_poly-v", "cr_sine-u"])
def test_exact_fields_match_symbolic_derivatives(name, component, expr):
    fld = manufactured(name).exact[component]
    pts = np.random.default_rng(6).random((200, 2))
    assert_rel(fld.value(pts), sym_eval(expr, pts))
    grad = fld.gradient(pts)
    hess = fld.hessian(pts)
    assert grad.shape == (200, 2) and hess.shape == (200, 2, 2)
    for a, xa in enumerate((X, Y)):
        assert_rel(grad[:, a], sym_eval(sp.diff(expr, xa), pts))
        for b, xb in enumerate((X, Y)):
            assert_rel(hess[:, a, b], sym_eval(sp.diff(expr, xa, xb), pts))


def test_import_does_not_load_sympy():
    src = str(Path(ncfem.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import ncfem, ncfem.cli; "
            "assert 'sympy' not in sys.modules, 'ncfem imports sympy'")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
