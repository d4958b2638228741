"""Closed-form evaluation of the unit-square distance integrals.

For a depot O = (a, b) and v uniform on [0,1]^2:

  g1(O) = E d(O, v)
  g2(O) = E min{d(O, v), R}      with R = (3/4) g1(O)
  g3(O) = measure of {x in [0,1]^2 : d(O, x) > R}

g1 decomposes into eight right-triangle integrals fn_A; g2 and g3 reduce to
disk/half-plane intersection integrals fn_B, fn_C and the inclusion-
exclusion fn_D over the square's corners. Far from the square the eight
cubic terms of g1 cancel (about d^2 ulps lost at distance d), so there g1 is
a tensor Gauss-Legendre rule instead.

Everything here is plain binary64 evaluation; the rigorous interval
counterparts live in the interval module.
"""

from __future__ import annotations

import functools
import math

# Below this |a| the cubic-log term of fn_A underflows any representable
# contribution, so route to the zero branch rather than divide.
_A_ZERO_CUTOFF = 1e-300

# From this distance to the square on, g1 is the tensor Gauss-Legendre rule.
# The net's points all lie closer (at most 6), so they keep the closed form.
_QUADRATURE_DISTANCE = 8.0
_QUADRATURE_NODES = 8


def fn_A(i: int, a: float, b: float) -> float:
    """Integral of 1 (i=0) or sqrt(x^2+y^2) (i=1) over the right triangle
    with vertices (0,0), (a,0), (a,b); odd in both a and b."""
    if i == 0:
        return a * b / 2.0
    if abs(a) < _A_ZERO_CUTOFF:
        return 0.0
    # log(b/|a| + sqrt(1 + b^2/a^2)) == asinh(b/|a|)
    return (a * a * a / 6.0) * math.asinh(b / abs(a)) \
        + (a * b / 6.0) * math.hypot(a, b)


def fn_B(i: int, h: float) -> float:
    """Integral of 1 (i=0) or the radius (i=1) over the unit-disk segment
    {x <= h}."""
    if h < -1.0:
        return 0.0
    if h >= 1.0:
        return (3 - i) / 3.0 * math.pi
    root = math.sqrt(max(0.0, 1.0 - h * h))
    return (3 - i) / 3.0 * (math.pi - math.acos(h)) + 2.0 * fn_A(i, h, root)


def fn_C(i: int, h1: float, h2: float) -> float:
    """Integral of 1 (i=0) or the radius (i=1) over the unit-disk region
    {x <= h1, y <= h2}."""
    s = h1 * h1 + h2 * h2
    if s <= 1.0:
        r1 = math.sqrt(max(0.0, 1.0 - h1 * h1))
        r2 = math.sqrt(max(0.0, 1.0 - h2 * h2))
        return (
            (3 - i) / 6.0 * (math.pi / 2.0 + math.asin(h1) + math.asin(h2))
            + fn_A(i, h1, r1) + fn_A(i, h2, r2)
            + fn_A(i, h1, h2) + fn_A(i, h2, h1)
        )
    pos1, pos2 = h1 > 0.0, h2 > 0.0
    if pos1 and pos2:
        return fn_B(i, h1) + fn_B(i, h2) - (3 - i) / 3.0 * math.pi
    if pos1:
        return fn_B(i, h2)
    if pos2:
        return fn_B(i, h1)
    return 0.0


def square_distance(a: float, b: float) -> float:
    """Distance from (a, b) to the unit square (coordinate clamping)."""
    dx = max(0.0, -a, a - 1.0)
    dy = max(0.0, -b, b - 1.0)
    return math.hypot(dx, dy)


def fn_D(i: int, a: float, b: float, R: float) -> float:
    """Normalized integral of 1 (i=0) or d(O,v)/R (i=1) over the part of the
    unit square within distance R of O=(a,b), divided by R^2 (resp. R^3).

    Inclusion-exclusion of four fn_C corner terms. When the R-disk misses
    the square entirely the result is exactly 0 (the corner terms would
    cancel only up to rounding, so the empty case is short-circuited).
    """
    if R <= 0.0:
        raise ValueError(f"R must be > 0, got {R}")
    if square_distance(a, b) >= R:
        return 0.0
    return (
        fn_C(i, (1.0 - a) / R, (1.0 - b) / R)
        - fn_C(i, (1.0 - a) / R, -b / R)
        - fn_C(i, -a / R, (1.0 - b) / R)
        + fn_C(i, -a / R, -b / R)
    )


def g1(a: float, b: float) -> float:
    """Expected distance from (a, b) to a uniform point of the unit square:
    eight right-triangle terms, one per corner/axis split, or, at distance
    _QUADRATURE_DISTANCE or more, the Gauss-Legendre rule."""
    if square_distance(a, b) >= _QUADRATURE_DISTANCE:
        return _g1_quadrature(a, b)
    return math.fsum((
        fn_A(1, a, b), fn_A(1, b, a),
        fn_A(1, b, 1.0 - a), fn_A(1, 1.0 - a, b),
        fn_A(1, 1.0 - a, 1.0 - b), fn_A(1, 1.0 - b, 1.0 - a),
        fn_A(1, 1.0 - b, a), fn_A(1, a, 1.0 - b),
    ))


@functools.cache
def _unit_nodes() -> tuple[tuple[float, float], ...]:
    """Gauss-Legendre (node, weight) pairs on [0, 1]."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(_QUADRATURE_NODES)
    return tuple(((1.0 + xi) / 2.0, wi / 2.0) for xi, wi in zip(x.tolist(), w.tolist()))


def _g1_quadrature(a: float, b: float) -> float:
    """Tensor Gauss-Legendre rule for g1 at distance d from the square.
    d(O, v) is singular only where (a - x)^2 + (b - y)^2 = 0, which for
    real y in [0, 1] puts x at distance >= d from [0, 1] (and likewise in
    y), so the rule's relative error decays like rho^(-2n) with rho about 4d:
    at d >= 8 and n = 8 about 32^-16, far below one ulp. Every term is
    positive, so nothing cancels, and hypot does not overflow."""
    nodes = _unit_nodes()
    return math.fsum(wx * wy * math.hypot(a - x, b - y)
                     for x, wx in nodes for y, wy in nodes)


def choose_radius(a: float, b: float) -> float:
    """The clipping radius R = (3/4) g1(O) used throughout the analysis."""
    return 0.75 * g1(a, b)


def g2(a: float, b: float) -> float:
    """E min{d(O,v), R} with R = (3/4) g1(O)."""
    return g_all(a, b)[1]


def g3(a: float, b: float) -> float:
    """Measure of the part of the unit square farther than R from O."""
    return g_all(a, b)[2]


def g_all(a: float, b: float) -> tuple[float, float, float, float]:
    """(g1, g2, g3, R) with shared subexpressions evaluated once."""
    v1 = g1(a, b)
    R = 0.75 * v1
    if square_distance(a, b) >= R:
        # the R-disk misses the square, so D0 = D1 = 0 (and R^3 may overflow)
        return v1, R, 1.0, R
    d0 = fn_D(0, a, b, R)
    d1 = fn_D(1, a, b, R)
    return v1, R - R ** 3 * d0 + R ** 3 * d1, 1.0 - R * R * d0, R
