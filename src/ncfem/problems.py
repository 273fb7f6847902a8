"""Problem definitions and the registry of named problems.

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

A problem carries its exact solution, if one is known, in `exact`: one
`Field` (value, gradient, hessian) per component.  The registry is one table
of builders, looked up by `manufactured(name)`; the manufactured entries set
`exact` and the matching loads (the polynomial ones built on coefficient
arrays), and `ns_unit_load` sets none.  The second von Karman equation gets
a verification-only load g; g = 0 recovers the plain plate system.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "ProblemKind", "ProblemSpec", "Field", "manufactured",
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
    exact: tuple = None               # one Field per component, or None

    @property
    def n_components(self):
        return 2 if self.kind is ProblemKind.VON_KARMAN_MORLEY else 1


_dx = partial(P.polyder, axis=0)     # d/dx and d/dy of coefficient arrays
_dy = partial(P.polyder, axis=1)


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


def _constant(value):
    """The field equal to value, a scalar or a vector, at points (..., 2)."""
    def c(pts):
        return np.full(np.shape(pts)[:-1] + np.shape(value), value, dtype=float)
    return c


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
        out = np.empty(sx.shape + (2,))
        np.multiply(cx, sy, out=out[..., 0])
        np.multiply(sx, cy, out=out[..., 1])
        out *= np.pi
        return out

    def hessian(pts):
        sx, cx, sy, cy = _sine_parts(pts)
        d, o = -sx * sy, cx * cy
        return np.pi ** 2 * np.stack([np.stack([d, o], axis=-1),
                                      np.stack([o, d], axis=-1)], axis=-2)

    return Field(value=value, gradient=gradient, hessian=hessian)


def _ns_poly() -> ProblemSpec:
    u = _BUMP
    w = -_lap(u)
    f = _padd(_lap(_lap(u)), _dx(_pmul(w, _dy(u))), -_dy(_pmul(w, _dx(u))))
    return ProblemSpec(kind=ProblemKind.NAVIER_STOKES_MORLEY,
                       f=polynomial_field(f).value,
                       exact=(polynomial_field(u),))


def _vk_poly() -> ProblemSpec:
    u = v = _BUMP
    f = _padd(_lap(_lap(u)), -_bracket(u, v))
    g = _padd(_lap(_lap(v)), 0.5 * _bracket(u, u))
    return ProblemSpec(kind=ProblemKind.VON_KARMAN_MORLEY,
                       f=polynomial_field(f).value,
                       g=polynomial_field(g).value,
                       exact=(polynomial_field(u), polynomial_field(v)))


def _cr_sine() -> ProblemSpec:
    u = _sine_field()
    gamma = -20
    # -div(grad u + u b) + gamma u with A = I (unset), b = (1, 1):
    # -Lap u = 2 pi^2 u, so f = (2 pi^2 + gamma) u - u_x - u_y, from one
    # evaluation of the sines and the same products as u.value, u.gradient
    def f(pts):
        sx, cx, sy, cy = _sine_parts(pts)
        return ((2 * np.pi ** 2 + gamma) * (sx * sy)
                - np.pi * (cx * sy) - np.pi * (sx * cy))

    return ProblemSpec(kind=ProblemKind.SECOND_ORDER_CR,
                       f=f, b=_constant((1.0, 1.0)),
                       gamma=_constant(gamma), exact=(u,))


def ns_unit_load() -> ProblemSpec:
    """Navier-Stokes with constant load f = 1 and no exact solution; the
    standard adaptive test case on the L-shaped domain."""
    return ProblemSpec(kind=ProblemKind.NAVIER_STOKES_MORLEY,
                       f=_constant(1.0))


# every named problem, in the order the CLI lists them
_REGISTRY = {"ns_poly": _ns_poly, "vk_poly": _vk_poly, "cr_sine": _cr_sine,
             "ns_unit_load": ns_unit_load}


@lru_cache(maxsize=None)
def _build(name: str) -> ProblemSpec:
    return _REGISTRY[name]()


def registry_names():
    return tuple(_REGISTRY)


def manufactured(name: str) -> ProblemSpec:
    """Look up a registry problem by name; raises KeyError with the
    available names otherwise."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown manufactured problem {name!r}; "
                       f"available: {', '.join(_REGISTRY)}")
    return _build(name)


def polynomial_field(coeffs) -> Field:
    """Field for the bivariate polynomial sum_ij coeffs[i, j] x^i y^j."""
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    cx, cy = _dx(c), _dy(c)
    cxx, cxy, cyy = _dx(cx), _dy(cx), _dy(cy)

    def ev(cc):
        def fn(pts):
            # polyval2d's Horner, one column at a time and in place (two
            # arrays of the sample shape): bitwise its values
            pts = np.asarray(pts, dtype=float)
            x, y = pts[..., 0], pts[..., 1]
            out, h = np.zeros(x.shape), np.empty(x.shape)
            for col in cc.T[::-1]:
                h.fill(0.0)
                for a in col[::-1]:
                    h *= x
                    h += a
                out *= y
                out += h
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
