"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are symmetric rules with strictly positive weights; the
stored weights sum to the reference-triangle measure 1/2, so

    int_T f dx  =  2 |T| * sum_q w_q f(x_q),

with x_q the image of the barycentric point under the affine map onto T.
Edge rules are Gauss-Legendre on [0, 1] with weights summing to 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadRule", "quad_triangle", "quad_edge",
           "reference_triangle_monomial_integral"]


@dataclass(frozen=True, eq=False)
class QuadRule:
    points: np.ndarray   # (nq, 3) barycentric, or (nq,) parameters in [0, 1]
    weights: np.ndarray  # (nq,), positive, summing to the reference measure
    exact_degree: int


def _perm3(a, b, c):
    out = {(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)}
    return sorted(out)


# Symmetric positive rules (Dunavant); the degree-3 request is served by the
# degree-4 rule because the classical degree-3 rule has a negative weight.
_CENTROID = ([(1 / 3, 1 / 3, 1 / 3)], [1.0], 1)

_DEG2 = ([(2 / 3, 1 / 6, 1 / 6), (1 / 6, 2 / 3, 1 / 6), (1 / 6, 1 / 6, 2 / 3)],
         [1 / 3, 1 / 3, 1 / 3], 2)

_a4, _b4 = 0.108103018168070, 0.445948490915965
_c4, _d4 = 0.816847572980459, 0.091576213509771
_DEG4 = ([(_a4, _b4, _b4), (_b4, _a4, _b4), (_b4, _b4, _a4),
          (_c4, _d4, _d4), (_d4, _c4, _d4), (_d4, _d4, _c4)],
         [0.223381589678011] * 3 + [0.109951743655322] * 3, 4)

_a5, _b5 = 0.059715871789770, 0.470142064105115
_c5, _d5 = 0.797426985353087, 0.101286507323456
_DEG5 = ([(1 / 3, 1 / 3, 1 / 3),
          (_a5, _b5, _b5), (_b5, _a5, _b5), (_b5, _b5, _a5),
          (_c5, _d5, _d5), (_d5, _c5, _d5), (_d5, _d5, _c5)],
         [0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3, 5)

_a6, _b6 = 0.873821971016996, 0.063089014491502
_c6, _d6 = 0.501426509658179, 0.249286745170910
_e6, _f6, _g6 = 0.636502499121399, 0.310352451033785, 0.053145049844816
_DEG6 = ([(_a6, _b6, _b6), (_b6, _a6, _b6), (_b6, _b6, _a6),
          (_c6, _d6, _d6), (_d6, _c6, _d6), (_d6, _d6, _c6)]
         + _perm3(_e6, _f6, _g6),
         [0.050844906370207] * 3 + [0.116786275726379] * 3
         + [0.082851075618374] * 6, 6)

_TRIANGLE_RULES = {1: _CENTROID, 2: _DEG2, 3: _DEG4, 4: _DEG4, 5: _DEG5, 6: _DEG6}


def quad_triangle(degree: int) -> QuadRule:
    """Return a triangle rule exact for polynomials up to `degree` (1..6)."""
    if degree not in _TRIANGLE_RULES:
        raise ValueError(f"unsupported triangle quadrature degree {degree}, need 1..6")
    pts, wts, exact = _TRIANGLE_RULES[degree]
    points = np.asarray(pts, dtype=float)
    weights = 0.5 * np.asarray(wts, dtype=float)
    return QuadRule(points=points, weights=weights, exact_degree=exact)


def quad_edge(degree: int) -> QuadRule:
    """Gauss-Legendre rule on [0, 1] exact for polynomials up to `degree`."""
    if degree < 0:
        raise ValueError(f"unsupported edge quadrature degree {degree}")
    n = max(1, (degree + 2) // 2)
    xs, ws = leggauss(n)
    return QuadRule(points=0.5 * (xs + 1.0), weights=0.5 * ws,
                    exact_degree=2 * n - 1)


def reference_triangle_monomial_integral(p: int, q: int) -> float:
    """Exact value of int x^p y^q over the unit reference triangle."""
    from math import factorial

    return factorial(p) * factorial(q) / factorial(p + q + 2)
