"""Rigorous interval enclosures for the closed-form distance integrals.

Every operation returns an interval guaranteed to contain the exact real
result for any inputs drawn from the input intervals. Rounding discipline:
operations are evaluated in round-to-nearest, the IEEE-754 default that this
module assumes (it never switches the hardware rounding mode, trading a
little width for portability), and each result z is then moved outward:

  _dn1(z) = z - max(|z| 2^-52, 2^-1074),  _up1(z) = z + max(|z| 2^-52, 2^-1074)

(after Rump, Zimmermann, Boldo & Melquiond 2009, "Computing predecessor and
successor in rounding to nearest"). Soundness: let ulp(z) be the spacing of
binary64 numbers just above |z|. A normal |z| in [2^e, 2^(e+1)) has
ulp(z) = 2^(e-52) <= |z| 2^-52, and the computed product stays >= 2^(e-52)
because that power of two is representable and rounding is monotone; a zero
or subnormal z has ulp(z) = 2^-1074. So the offset is >= ulp(z), the exact
z - offset is <= z - ulp(z) <= pred(z), and since pred(z) is representable
the rounded _dn1(z) is <= pred(z); symmetrically _up1(z) >= succ(z). IEEE
correct rounding of +, -, *, / and squaring leaves the exact result within
[pred(z), succ(z)], so these bounds enclose it. The offset is also <= 2
ulp(z), so each bound moves at most two ulps. _dn4/_up4 use four times the
offset (at least four ulps, at most eight) for sqrt/log/arccos/arcsin,
whose libm results are assumed faithfully rounded (error below 1 ulp), a 4x
margin. An upward move that crosses a power of two is rounded on the coarser
grid above it, which may add one ulp of z to the 4-ulp helpers' eight.

Non-finite values never become finite: inf - inf is NaN, so _dn1(+inf) and
_up1(-inf) are NaN (an infinite z stays infinite on its outward side). NaN
propagates through every later operation; v_A1's isfinite test sends such
lanes to its crude fallback, and the net verifier counts any non-finite
margin as a failure, so a NaN can never read as a pass.

The working representation is a pair (lo, hi) of binary64 scalars or numpy
arrays; the `v_*` functions, which operate elementwise on such pairs, do all
of the arithmetic, so the same code evaluates one depot position or the net
verifier's vectorized batches of millions. `Interval` is only the result type
handed to callers (of `iv_g`, `netverify.verify_point` and
`netverify.lipschitz_slacks`): a checked scalar pair with lo <= hi.

Piecewise formulas (the disk-segment and disk-corner integrals) combine
their branches by one rule, `_piecewise`: each branch comes with a guard
that holds on every lane whose input box meets that branch's region, and
each lane's result is the hull of the branches whose guard holds there. So
an enclosure stays valid when the box straddles a branch boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

__all__ = ["Interval", "iv_g"]

# two binary64 neighbors of pi (math.pi rounds down from the true value)
PI_LO = math.pi
PI_HI = math.nextafter(math.pi, math.inf)


# --- outward rounding helpers -------------------------------------------------
# _dn1/_up1 move a round-to-nearest result at least one ulp outward and at
# most two; _dn4/_up4 at least four. The module docstring has the argument.

_ULP_SCALE = 2.0 ** -52  # |x| * 2^-52 >= ulp(x) for every normal x
_ETA = 2.0 ** -1074      # smallest subnormal: the ulp of zero and subnormals


def _offset(x, ulps):
    # max(|x| * ulps 2^-52, ulps 2^-1074); ulps is a power of two, so both
    # constants are exact
    return np.maximum(np.abs(x) * (ulps * _ULP_SCALE), ulps * _ETA)


def _dn1(x):
    return x - _offset(x, 1.0)


def _up1(x):
    return x + _offset(x, 1.0)


def _dn4(x):
    return x - _offset(x, 4.0)


def _up4(x):
    return x + _offset(x, 4.0)


# --- elementwise interval kernel ---------------------------------------------
# An interval batch is a pair (lo, hi) of equal-shaped float64 arrays (or
# python/numpy scalars). Soundness contract: for inputs x in [xlo, xhi] the
# exact real result lies in the returned [lo, hi].

def v_point(x):
    """Degenerate interval around an exact binary64 value."""
    return x, x


def v_add(a, b):
    return _dn1(a[0] + b[0]), _up1(a[1] + b[1])


def v_sub(a, b):
    return _dn1(a[0] - b[1]), _up1(a[1] - b[0])


def v_neg(a):
    return -a[1], -a[0]


def _hull4(p1, p2, p3, p4):
    """Enclosure of a product or quotient from its four endpoint results
    (each rounded to nearest): their min and max, moved outward by
    _dn1/_up1."""
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _dn1(lo), _up1(hi)


def v_mul(a, b):
    return _hull4(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])


def v_div(a, b):
    """Quotient; the divisor must not contain zero (callers guarantee it)."""
    return _hull4(a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])


def v_sqr(a):
    """Elementwise square; tighter than v_mul(a, a) for sign-straddling
    inputs since x*x never goes negative."""
    alo_abs = np.abs(a[0])
    ahi_abs = np.abs(a[1])
    m = np.minimum(alo_abs, ahi_abs)
    M = np.maximum(alo_abs, ahi_abs)
    straddles = (a[0] < 0.0) & (a[1] > 0.0)
    lo = np.where(straddles, 0.0, np.maximum(0.0, _dn1(m * m)))
    return lo, _up1(M * M)


def v_sqrt(a):
    """Elementwise sqrt; the radicand's lower end is clamped at 0."""
    lo_in = np.maximum(a[0], 0.0)
    hi_in = np.maximum(a[1], 0.0)
    return np.maximum(0.0, _dn4(np.sqrt(lo_in))), _up4(np.sqrt(hi_in))


def v_log(a):
    # increasing; domain a[0] > 0 is the caller's responsibility in the
    # masked kernels (lanes violating it are discarded via fallbacks)
    return _dn4(np.log(a[0])), _up4(np.log(a[1]))


def v_arccos(a):
    # decreasing; inputs clamped to [-1, 1]
    lo_in = np.clip(a[0], -1.0, 1.0)
    hi_in = np.clip(a[1], -1.0, 1.0)
    return _dn4(np.arccos(hi_in)), _up4(np.arccos(lo_in))


def v_arcsin(a):
    # increasing; inputs clamped to [-1, 1]
    lo_in = np.clip(a[0], -1.0, 1.0)
    hi_in = np.clip(a[1], -1.0, 1.0)
    return _dn4(np.arcsin(lo_in)), _up4(np.arcsin(hi_in))


def v_ratio(p: int, q: int) -> tuple[float, float]:
    """Enclosure of the exact rational p/q: degenerate when p/q is a binary64
    value, else its two binary64 neighbours."""
    c = p / q
    if Fraction(c) == Fraction(p, q):
        return c, c
    return math.nextafter(c, -math.inf), math.nextafter(c, math.inf)


V_PI = (PI_LO, PI_HI)
V_HALF_PI = (PI_LO / 2.0, PI_HI / 2.0)  # division by 2 is exact
_V_HALF = v_ratio(1, 2)
_V_THIRD = v_ratio(1, 3)
_V_SIXTH = v_ratio(1, 6)
_V_TWO_THIRDS = v_ratio(2, 3)
_V_THREE_QUARTERS = v_ratio(3, 4)
_V_ONE = (1.0, 1.0)
_V_ZERO = (np.float64(0.0), np.float64(0.0))
_V_TWO_THIRDS_PI = (_dn1(PI_LO * _V_TWO_THIRDS[0]), _up1(PI_HI * _V_TWO_THIRDS[1]))


def _piecewise(shape, cases):
    """Lane-wise hull of the branches whose guard holds: start from the empty
    interval (inf, -inf) and merge each (guard, branch) case in order."""
    lo = np.full(shape, np.inf)
    hi = np.full(shape, -np.inf)
    for guard, branch in cases:
        lo = np.where(guard, np.minimum(lo, branch[0]), lo)
        hi = np.where(guard, np.maximum(hi, branch[1]), hi)
    return lo, hi


# --- closed-form kernels -------------------------------------------------------

def _va_crude(a, b, hyp_hi):
    """Fallback enclosure for the triangle integral: |A1| <= area * max
    radius = (|a| |b| / 2) * hyp. Used where the log form is unusable
    (intervals straddling a = 0, or inflation pushing the log argument
    nonpositive)."""
    amax = np.maximum(np.abs(a[0]), np.abs(a[1]))
    bmax = np.maximum(np.abs(b[0]), np.abs(b[1]))
    w = _up1(_up1(amax * bmax) * 0.5)
    w = _up1(w * hyp_hi)
    return -w, w


def v_A1(a, b):
    """Triangle integral of sqrt(x^2+y^2) over (0,0),(a,0),(a,b):
    a^3/6 * log(b/|a| + sqrt(1+b^2/a^2)) + ab/6 * sqrt(a^2+b^2),
    odd in a, with exact zero at a = 0."""
    hyp = v_sqrt(v_add(v_sqr(a), v_sqr(b)))
    # reduce to a > 0 via oddness; sign-straddling lanes use the fallback
    negate = a[1] <= 0.0
    ap = (np.where(negate, -a[1], a[0]), np.where(negate, -a[0], a[1]))
    with np.errstate(all="ignore"):
        # log((b + hyp) / a); the cubic factor tames the cancellation for
        # very negative b
        num = v_add(b, hyp)
        larg = v_div(num, ap)
        lg = v_log(larg)
        cube = v_mul(v_sqr(ap), ap)
        t1 = v_mul(v_mul(cube, _V_SIXTH), lg)
        t2 = v_mul(v_mul(v_mul(ap, b), _V_SIXTH), hyp)
        val = v_add(t1, t2)
    good = (ap[0] > 0.0) & (larg[0] > 0.0) & np.isfinite(val[0]) & np.isfinite(val[1])
    crude = _va_crude(a, b, hyp[1])
    lo = np.where(good, np.where(negate, -val[1], val[0]), crude[0])
    hi = np.where(good, np.where(negate, -val[0], val[1]), crude[1])
    return lo, hi


def v_A1_unit(h, root):
    """v_A1 specialized to the disk pattern (h, sqrt(1-h^2)), where the
    hypotenuse is exactly 1: h^3/6 * log((1+root)/|h|) + h*root/6."""
    negate = h[1] <= 0.0
    hp = (np.where(negate, -h[1], h[0]), np.where(negate, -h[0], h[1]))
    with np.errstate(all="ignore"):
        larg = v_div(v_add(_V_ONE, root), hp)
        lg = v_log(larg)
        cube = v_mul(v_sqr(hp), hp)
        t1 = v_mul(v_mul(cube, _V_SIXTH), lg)
        t2 = v_mul(v_mul(hp, root), _V_SIXTH)
        val = v_add(t1, t2)
    good = (hp[0] > 0.0) & (larg[0] > 0.0) & np.isfinite(val[0]) & np.isfinite(val[1])
    crude = _va_crude(h, root, _V_ONE[1])
    lo = np.where(good, np.where(negate, -val[1], val[0]), crude[0])
    hi = np.where(good, np.where(negate, -val[0], val[1]), crude[1])
    return lo, hi


class _Axis(NamedTuple):
    """The terms of one corner coordinate h that every corner integral over
    h shares, computed once per batch."""

    h: tuple
    sq: tuple      # h^2
    c: tuple       # h clamped to [-1, 1]
    asin: tuple    # arcsin c
    c_root: tuple  # c * sqrt(1 - c^2)
    a1: tuple      # A1(c, sqrt(1 - c^2))
    b0: tuple      # disk-segment integrals over {x <= h}
    b1: tuple


def _axis(h) -> _Axis:
    """Per-axis terms, including the disk-segment integrals (B0, B1) over
    {x <= h}: 0 below h = -1, (pi, 2pi/3) above h = 1, the sector +
    triangles formula between, each combined by _piecewise."""
    has_low = h[0] < -1.0
    has_high = h[1] >= 1.0
    has_mid = (h[1] >= -1.0) & (h[0] < 1.0)

    c = (np.clip(h[0], -1.0, 1.0), np.clip(h[1], -1.0, 1.0))
    root = v_sqrt(v_sub(_V_ONE, v_sqr(c)))
    c_root = v_mul(c, root)
    pma = v_sub(V_PI, v_arccos(c))  # pi - arccos h
    a0 = v_mul(c_root, _V_HALF)
    a1 = v_A1_unit(c, root)
    b0_mid = v_add(pma, v_add(a0, a0))
    b1_mid = v_add(v_mul(_V_TWO_THIRDS, pma), v_add(a1, a1))

    shape = np.broadcast(h[0], h[1]).shape
    b0 = _piecewise(shape, ((has_low, _V_ZERO), (has_mid, b0_mid),
                            (has_high, V_PI)))
    b1 = _piecewise(shape, ((has_low, _V_ZERO), (has_mid, b1_mid),
                            (has_high, _V_TWO_THIRDS_PI)))
    return _Axis(h=h, sq=v_sqr(h), c=c, asin=v_arcsin(c),
                 c_root=c_root, a1=a1, b0=b0, b1=b1)


def _corner(p: _Axis, q: _Axis):
    """Disk-corner integrals (C0, C1) over {x <= p.h, y <= q.h}: _piecewise
    over the five cases (outside-disk sign cases via B, the inside case via
    the sector plus four triangles)."""
    h1, h2 = p.h, q.h
    s = v_add(p.sq, q.sq)
    outside = s[1] > 1.0
    m_empty = outside & (h1[0] <= 0.0) & (h2[0] <= 0.0)
    m_seg2 = outside & (h1[1] > 0.0) & (h2[0] <= 0.0)
    m_seg1 = outside & (h1[0] <= 0.0) & (h2[1] > 0.0)
    m_both = outside & (h1[1] > 0.0) & (h2[1] > 0.0)
    m_in = s[0] <= 1.0

    # inside-disk formula on arguments clamped to [-1, 1]
    ang = v_add(V_HALF_PI, v_add(p.asin, q.asin))
    # A0(c1,root1) + A0(c2,root2) + A0(c1,c2) + A0(c2,c1); the last two
    # collapse to c1*c2
    a0_sum = v_add(v_mul(v_add(p.c_root, q.c_root), _V_HALF), v_mul(p.c, q.c))
    c0_in = v_add(v_mul(ang, _V_HALF), a0_sum)
    a1_sum = v_add(v_add(p.a1, q.a1), v_add(v_A1(p.c, q.c), v_A1(q.c, p.c)))
    c1_in = v_add(v_mul(ang, _V_THIRD), a1_sum)

    shape = np.broadcast(h1[0], h2[0]).shape
    C0 = _piecewise(shape, (
        (m_empty, _V_ZERO), (m_seg2, q.b0), (m_seg1, p.b0),
        (m_both, v_sub(v_add(p.b0, q.b0), V_PI)), (m_in, c0_in)))
    C1 = _piecewise(shape, (
        (m_empty, _V_ZERO), (m_seg2, q.b1), (m_seg1, p.b1),
        (m_both, v_sub(v_add(p.b1, q.b1), _V_TWO_THIRDS_PI)), (m_in, c1_in)))
    return C0, C1


def v_D_pair(a, b, R):
    """Normalized square-cap integrals (D0, D1): inclusion-exclusion of the
    four corner terms, each coordinate's terms computed once. R must be a
    positive interval."""
    x1 = _axis(v_div(v_sub(_V_ONE, a), R))
    x2 = _axis(v_div(v_neg(a), R))
    y1 = _axis(v_div(v_sub(_V_ONE, b), R))
    y2 = _axis(v_div(v_neg(b), R))
    c0_11, c1_11 = _corner(x1, y1)
    c0_12, c1_12 = _corner(x1, y2)
    c0_21, c1_21 = _corner(x2, y1)
    c0_22, c1_22 = _corner(x2, y2)
    d0 = v_add(v_sub(c0_11, c0_12), v_sub(c0_22, c0_21))
    d1 = v_add(v_sub(c1_11, c1_12), v_sub(c1_22, c1_21))
    return d0, d1


def v_g1(a, b):
    """Expected depot-to-uniform-point distance: eight triangle terms."""
    one_m_a = v_sub(_V_ONE, a)
    one_m_b = v_sub(_V_ONE, b)
    total = v_A1(a, b)
    for (p, q) in (
        (b, a), (b, one_m_a), (one_m_a, b), (one_m_a, one_m_b),
        (one_m_b, one_m_a), (one_m_b, a), (a, one_m_b),
    ):
        total = v_add(total, v_A1(p, q))
    return total


def v_g_all(a, b):
    """(g1, g2, g3) enclosures; R = (3/4) g1 is threaded through as an
    interval."""
    g1 = v_g1(a, b)
    R = v_mul(g1, _V_THREE_QUARTERS)
    d0, d1 = v_D_pair(a, b, R)
    r2 = v_sqr(R)
    r3 = v_mul(r2, R)
    g2 = v_add(v_sub(R, v_mul(r3, d0)), v_mul(r3, d1))
    g3 = v_sub(_V_ONE, v_mul(r2, d0))
    return g1, g2, g3


# --- scalar result type --------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed enclosure [lo, hi] of a real number."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def iv_g(j: int, a: float, b: float) -> Interval:
    """Enclosure of g_j at the depot (a, b), j in {1, 2, 3}."""
    if j not in (1, 2, 3):
        raise ValueError(f"j must be 1, 2 or 3, got {j}")
    g = v_g_all(v_point(np.float64(a)), v_point(np.float64(b)))[j - 1]
    return Interval(float(g[0]), float(g[1]))
