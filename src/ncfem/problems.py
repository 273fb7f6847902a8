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
gradient, hessian) plus the matching loads.  The polynomial entries are
bivariate coefficient arrays c[i, j] of x^i y^j: derivatives come from
`polyder` along one axis, products from a small 2-D convolution, and the
loads (bilaplacian, transport term, Monge-Ampere bracket) are built from
these on the arrays and evaluated through `polynomial_field`.  The sine entry
has closed-form derivatives.  The second von Karman equation gets a
verification-only load g so that a manufactured pair can be tested; g = 0
recovers the plain plate system.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

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


def _dx(c):
    return P.polyder(c, axis=0)


def _dy(c):
    return P.polyder(c, axis=1)


def _pmul(a, b):
    """Product of two bivariate coefficient arrays."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for (i, j), aij in np.ndenumerate(a):
        out[i:i + b.shape[0], j:j + b.shape[1]] += aij * b
    return out


def _padd(*terms):
    """Sum of coefficient arrays of different shapes."""
    out = np.zeros((max(t.shape[0] for t in terms),
                    max(t.shape[1] for t in terms)))
    for t in terms:
        out[:t.shape[0], :t.shape[1]] += t
    return out


def _lap(u):
    return _padd(_dx(_dx(u)), _dy(_dy(u)))


def _bracket(u, v):
    """[u, v] = u_xx v_yy + u_yy v_xx - 2 u_xy v_xy."""
    return _padd(_pmul(_dx(_dx(u)), _dy(_dy(v))),
                 _pmul(_dy(_dy(u)), _dx(_dx(v))),
                 -2.0 * _pmul(_dx(_dy(u)), _dx(_dy(v))))


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


_G = np.array([0.0, 0.0, 1.0, -2.0, 1.0])      # t^2 (1 - t)^2
_BUMP = np.outer(_G, _G)                         # in H^2_0 of the unit square


def _sine_parts(pts):
    """sin(pi x), cos(pi x), sin(pi y), cos(pi y) at points (..., 2)."""
    pts = np.asarray(pts, dtype=float)
    x, y = np.pi * pts[..., 0], np.pi * pts[..., 1]
    return np.sin(x), np.cos(x), np.sin(y), np.cos(y)


def _sine_field() -> Field:
    """u = sin(pi x) sin(pi y) with its gradient and Hessian."""
    def value(pts):
        sx, _, sy, _ = _sine_parts(pts)
        return sx * sy

    def gradient(pts):
        sx, cx, sy, cy = _sine_parts(pts)
        return np.pi * np.stack([cx * sy, sx * cy], axis=-1)

    def hessian(pts):
        sx, cx, sy, cy = _sine_parts(pts)
        d, o = -sx * sy, cx * cy
        return np.pi ** 2 * np.stack([np.stack([d, o], axis=-1),
                                      np.stack([o, d], axis=-1)], axis=-2)

    return Field(value=value, gradient=gradient, hessian=hessian)


@lru_cache(maxsize=None)
def _build(name: str) -> Manufactured:
    if name == "ns_poly":
        u = _BUMP
        w = -_lap(u)
        f = _padd(_lap(_lap(u)), _dx(_pmul(w, _dy(u))), -_dy(_pmul(w, _dx(u))))
        problem = ProblemSpec(kind=ProblemKind.NAVIER_STOKES_MORLEY,
                              f=polynomial_field(f).value, name=name)
        return Manufactured(name=name, problem=problem,
                            exact=(polynomial_field(u),))

    if name == "vk_poly":
        u = _BUMP
        v = _BUMP
        f = _padd(_lap(_lap(u)), -_bracket(u, v))
        g = _padd(_lap(_lap(v)), 0.5 * _bracket(u, u))
        problem = ProblemSpec(kind=ProblemKind.VON_KARMAN_MORLEY,
                              f=polynomial_field(f).value,
                              g=polynomial_field(g).value, name=name)
        return Manufactured(name=name, problem=problem,
                            exact=(polynomial_field(u), polynomial_field(v)))

    if name == "cr_sine":
        u = _sine_field()
        gamma = -20
        # -div(grad u + u b) + gamma u with A = I, b = (1, 1):
        # -Lap u = 2 pi^2 u, so f = (2 pi^2 + gamma) u - u_x - u_y, from one
        # evaluation of the sines and the same products as u.value, u.gradient
        def f(pts):
            sx, cx, sy, cy = _sine_parts(pts)
            return ((2 * np.pi ** 2 + gamma) * (sx * sy)
                    - np.pi * (cx * sy) - np.pi * (sx * cy))

        problem = ProblemSpec(kind=ProblemKind.SECOND_ORDER_CR,
                              f=f, A=_identity_matrix,
                              b=_constant_vector(1.0, 1.0),
                              gamma=_constant(gamma),
                              lambda_bounds=(1.0, 1.0), name=name)
        return Manufactured(name=name, problem=problem, exact=(u,))

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
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    cx, cy = _dx(c), _dy(c)
    cxx, cxy, cyy = _dx(cx), _dy(cx), _dy(cy)

    def ev(cc):
        def fn(pts):
            # polyval2d's Horner, one column at a time: bitwise its values
            pts = np.asarray(pts, dtype=float)
            x, y, out = pts[..., 0], pts[..., 1], 0.0
            for col in cc.T[::-1]:
                h = 0.0
                for a in col[::-1]:
                    h = a + h * x
                out = h + out * y
            return out
        return fn

    v, gx, gy, hxx, hxy, hyy = (ev(cc) for cc in (c, cx, cy, cxx, cxy, cyy))

    def gradient(pts):
        return np.stack([gx(pts), gy(pts)], axis=-1)

    def hessian(pts):
        xx, xy, yy = hxx(pts), hxy(pts), hyy(pts)
        return np.stack([np.stack([xx, xy], axis=-1),
                         np.stack([xy, yy], axis=-1)], axis=-2)

    return Field(value=v, gradient=gradient, hessian=hessian)
