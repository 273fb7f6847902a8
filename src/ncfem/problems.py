"""Problem definitions and the manufactured-solution registry.

Three problem families are supported:

* ``SecondOrderCR``      -div(A grad u + u b) + gamma u = f, Crouzeix-Raviart
* ``NavierStokesMorley`` stream-function vorticity form of the 2D
                         Navier-Stokes equations (viscosity 1), Morley
* ``VonKarmanMorley``    von Karman plate system for the pair (u, v), Morley

Coefficient callables are vectorized: they take points of shape (..., 2) and
return scalars (...,), vectors (..., 2) or matrices (..., 2, 2).  Coefficients
that are only piecewise constant with respect to the mesh can set
``piecewise_constant=True``; assembly then samples them at element centroids
only, honoring discontinuities aligned with the mesh.

The manufactured entries carry the exact solution as a `Field` (value,
gradient, hessian) plus the matching loads; all derivatives and loads are
produced symbolically and lambdified once per entry.  The second von Karman
equation gets a verification-only load g so that a manufactured pair can be
tested; g = 0 recovers the plain plate system.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np
import sympy as sp

__all__ = [
    "ProblemKind", "ProblemSpec", "Field", "Manufactured", "manufactured",
    "registry_names", "ns_unit_load", "polynomial_field",
]


class ProblemKind(Enum):
    SECOND_ORDER_CR = "second_order_cr"
    NAVIER_STOKES_MORLEY = "navier_stokes_morley"
    VON_KARMAN_MORLEY = "von_karman_morley"


@dataclass(frozen=True, eq=False)
class Field:
    """A position-dependent scalar field with derivatives, all vectorized."""
    value: callable
    gradient: callable = None
    hessian: callable = None


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    kind: ProblemKind
    f: callable                       # load (first equation for von Karman)
    A: callable = None                # SPD matrix field, SecondOrderCR only
    b: callable = None                # vector field, SecondOrderCR only
    gamma: callable = None            # scalar field, SecondOrderCR only
    g: callable = None                # von Karman second-equation load, tests only
    lambda_bounds: tuple = (1.0, 1.0)  # declared eigenvalue bounds of A
    piecewise_constant: bool = False  # sample coefficients at centroids only
    name: str = ""

    @property
    def n_components(self):
        return 2 if self.kind is ProblemKind.VON_KARMAN_MORLEY else 1


@dataclass(frozen=True, eq=False)
class Manufactured:
    name: str
    problem: ProblemSpec
    exact: tuple  # one Field per component


_X, _Y = sp.symbols("x y")


def _lambdify(expr):
    fn = sp.lambdify((_X, _Y), expr, modules="numpy")

    def wrapped(pts):
        pts = np.asarray(pts, dtype=float)
        out = fn(pts[..., 0], pts[..., 1])
        return np.broadcast_to(np.asarray(out, dtype=float), pts.shape[:-1]).copy()

    return wrapped


def _field(expr) -> Field:
    gx, gy = sp.diff(expr, _X), sp.diff(expr, _Y)
    hxx, hxy, hyy = sp.diff(gx, _X), sp.diff(gx, _Y), sp.diff(gy, _Y)
    vals = [_lambdify(e) for e in (expr, gx, gy, hxx, hxy, hyy)]

    def gradient(pts):
        return np.stack([vals[1](pts), vals[2](pts)], axis=-1)

    def hessian(pts):
        xx, xy, yy = vals[3](pts), vals[4](pts), vals[5](pts)
        return np.stack([np.stack([xx, xy], axis=-1),
                         np.stack([xy, yy], axis=-1)], axis=-2)

    return Field(value=vals[0], gradient=gradient, hessian=hessian)


def _lap(u):
    return sp.diff(u, _X, 2) + sp.diff(u, _Y, 2)


def _bracket(u, v):
    return (sp.diff(u, _X, 2) * sp.diff(v, _Y, 2)
            + sp.diff(u, _Y, 2) * sp.diff(v, _X, 2)
            - 2 * sp.diff(u, _X, _Y) * sp.diff(v, _X, _Y))


def _identity_matrix(pts):
    pts = np.asarray(pts, dtype=float)
    out = np.zeros(pts.shape[:-1] + (2, 2))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    return out


def _constant_vector(bx, by):
    def b(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty(pts.shape[:-1] + (2,))
        out[..., 0] = bx
        out[..., 1] = by
        return out
    return b


def _constant(c):
    def g(pts):
        pts = np.asarray(pts, dtype=float)
        return np.full(pts.shape[:-1], float(c))
    return g


_BUMP = (_X * (1 - _X)) ** 2 * (_Y * (1 - _Y)) ** 2   # in H^2_0 of the unit square


@lru_cache(maxsize=None)
def _build(name: str) -> Manufactured:
    if name == "ns_poly":
        u = _BUMP
        f = sp.expand(_lap(_lap(u))
                      + sp.diff((-_lap(u)) * sp.diff(u, _Y), _X)
                      - sp.diff((-_lap(u)) * sp.diff(u, _X), _Y))
        problem = ProblemSpec(kind=ProblemKind.NAVIER_STOKES_MORLEY,
                              f=_lambdify(f), name=name)
        return Manufactured(name=name, problem=problem, exact=(_field(u),))

    if name == "vk_poly":
        u = _BUMP
        v = _BUMP
        f = sp.expand(_lap(_lap(u)) - _bracket(u, v))
        g = sp.expand(_lap(_lap(v)) + sp.Rational(1, 2) * _bracket(u, u))
        problem = ProblemSpec(kind=ProblemKind.VON_KARMAN_MORLEY,
                              f=_lambdify(f), g=_lambdify(g), name=name)
        return Manufactured(name=name, problem=problem,
                            exact=(_field(u), _field(v)))

    if name == "cr_sine":
        u = sp.sin(sp.pi * _X) * sp.sin(sp.pi * _Y)
        gamma = -20
        # -div(grad u + u b) + gamma u with A = I, b = (1, 1)
        f = sp.expand(-_lap(u) - (sp.diff(u, _X) + sp.diff(u, _Y)) + gamma * u)
        problem = ProblemSpec(kind=ProblemKind.SECOND_ORDER_CR,
                              f=_lambdify(f), A=_identity_matrix,
                              b=_constant_vector(1.0, 1.0),
                              gamma=_constant(gamma),
                              lambda_bounds=(1.0, 1.0), name=name)
        return Manufactured(name=name, problem=problem, exact=(_field(u),))

    raise KeyError(name)


_REGISTRY = ("ns_poly", "vk_poly", "cr_sine")


def registry_names():
    return _REGISTRY


def manufactured(name: str) -> Manufactured:
    """Look up a manufactured problem by name; raises KeyError with the
    available names otherwise."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown manufactured problem {name!r}; "
                       f"available: {', '.join(_REGISTRY)}")
    return _build(name)


def ns_unit_load() -> ProblemSpec:
    """Navier-Stokes with constant load f = 1 (no exact solution attached);
    the standard adaptive test case on the L-shaped domain."""
    return ProblemSpec(kind=ProblemKind.NAVIER_STOKES_MORLEY,
                       f=_constant(1.0), name="ns_unit_load")


def polynomial_field(coeffs) -> Field:
    """Field for the bivariate polynomial sum_ij coeffs[i, j] x^i y^j."""
    from numpy.polynomial import polynomial as P

    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    cx = P.polyder(c, axis=0)
    cy = P.polyder(c, axis=1)
    cxx = P.polyder(cx, axis=0)
    cxy = P.polyder(cx, axis=1)
    cyy = P.polyder(cy, axis=1)

    def ev(cc):
        def fn(pts):
            pts = np.asarray(pts, dtype=float)
            return P.polyval2d(pts[..., 0], pts[..., 1], cc)
        return fn

    v, gx, gy, hxx, hxy, hyy = (ev(cc) for cc in (c, cx, cy, cxx, cxy, cyy))

    def gradient(pts):
        return np.stack([gx(pts), gy(pts)], axis=-1)

    def hessian(pts):
        xx, xy, yy = hxx(pts), hxy(pts), hyy(pts)
        return np.stack([np.stack([xx, xy], axis=-1),
                         np.stack([xy, yy], axis=-1)], axis=-2)

    return Field(value=v, gradient=gradient, hessian=hessian)
