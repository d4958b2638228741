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
ulp(z), so each bound moves at most two ulps. v_sqrt, v_log, v_arccos and
v_arcsin move their results by _outward(lo, hi, 4.0), four times the offset
(at least four ulps, at most eight), since their libm results are assumed
faithfully rounded (error below 1 ulp), a 4x margin. An upward move that
crosses a power of two is rounded on the coarser grid above it, which may
add one ulp of z to the 4-ulp step's eight.

Non-finite values never become finite: inf - inf is NaN, so _dn1(+inf) and
_up1(-inf) are NaN (an infinite z stays infinite on its outward side). NaN
propagates through every later operation; v_A1's isfinite test sends such
lanes to its crude fallback, and the net verifier counts any non-finite
margin as a failure, so a NaN can never read as a pass.

The working representation is a pair (lo, hi) of float64 arrays of one shape;
a constant, such as _V_SIXTH or V_PI, is a pair of Python floats that
broadcasts against them. The `v_*` functions, which operate elementwise on
such pairs, do all of the arithmetic, so the same code evaluates one depot
position (a one-lane pair) or the net verifier's vectorized batches of
millions. Every operation takes at least one array pair, so each of its
endpoint results (sums, products, function values) is a fresh array of the
operands' common shape. That gives each helper one body, which allocates
little: a step writes into an array that it, or the v_* function that called
it, has just made, and never into an argument; v_point hands one array to
both ends, and the net scan passes exactly that. The outward step computes
|z| 2^-52, the max with 2^-1074 and the final -/+ in the array np.abs
allocated, _hull4 reduces v_mul's and v_div's four endpoint results into two
of them, and v_sqr, v_sqrt, v_log, v_arccos and v_arcsin reuse their own
temporaries. An in-place step is the same IEEE operation as its plain
expression, so the argument above holds for it as stated.

`Interval` is only the result type handed to callers (of `iv_g`,
`netverify.verify_point` and `netverify.lipschitz_slacks`): a checked scalar
pair with lo <= hi. Each is built from a one-lane kernel pair by `enclosure`,
which turns a pair with a NaN end into the whole real line, a valid if
useless enclosure.

The triangle integral A1 has one kernel, v_A1. Its callers compute each
hypotenuse once (v_hyp) and share it between a mirrored pair A1(p, q),
A1(q, p), or pass None on the unit circle, where it is exactly 1.

Piecewise formulas (the disk-segment and disk-corner integrals) combine
their branches by one rule, `_piecewise`: each branch comes with a guard
that holds on every lane whose input box meets that branch's region, and
each lane's result is the hull of the branches whose guard holds there. So
an enclosure stays valid when the box straddles a branch boundary.

A computed branch is evaluated lazily: only on the lanes where its guard
holds (compressed, evaluated, scattered back), and not at all when it holds
on none. Its value on any other lane could not enter the hull, and the
kernel is elementwise, so the result equals evaluating every branch on
every lane bit for bit (the tests pin this against the eager composition;
soundness does not rest on it, as every evaluation is an enclosure). Each
lane set is the guard of the branch that reads the terms, never an
inequality derived by hand. That is why a corner's inside-disk branch
computes its chord terms (c sqrt(1 - c^2) and the unit-circle A1) itself,
on its own lanes, instead of reading them from the axis's segment branch:
its guard s[0] <= 1 can hold where the axis's guard -1 <= h < 1 does not
(h = 1 + 2^-52 with the other coordinate 0 rounds s[0] down to exactly 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import check_coordinates, check_int

__all__ = ["Interval", "iv_g"]

# two binary64 neighbors of pi (math.pi rounds down from the true value)
PI_LO = math.pi
PI_HI = math.nextafter(math.pi, math.inf)


# --- outward rounding helpers -------------------------------------------------
# _dn1/_up1 move a round-to-nearest result at least one ulp outward and at
# most two; _dn/_up with ulps = 4.0 at least four. The module docstring has
# the argument.

_ULP_SCALE = 2.0 ** -52  # |x| * 2^-52 >= ulp(x) for every normal x
_ETA = 2.0 ** -1074      # smallest subnormal: the ulp of zero and subnormals


def _offset(x, ulps, out=None):
    """max(|x| ulps 2^-52, ulps 2^-1074); ulps is a power of two, so both
    constants are exact. The three steps run in `out` (a float64 array of
    x's shape that is not x) or in the array np.abs allocates."""
    out = np.abs(x, out=out)
    np.multiply(out, ulps * _ULP_SCALE, out=out)
    return np.maximum(out, ulps * _ETA, out=out)


def _dn(x, ulps, out=None):
    # the offset is this call's own array (or the caller's `out`), so the
    # result may go into it
    off = _offset(x, ulps, out)
    return np.subtract(x, off, out=off)


def _up(x, ulps, out=None):
    off = _offset(x, ulps, out)
    return np.add(x, off, out=off)


def _dn1(x, out=None):
    return _dn(x, 1.0, out)


def _up1(x, out=None):
    return _up(x, 1.0, out)


def _outward(lo, hi, ulps):
    """(_dn(lo, ulps), _up(hi, ulps)) for a lo and hi that the caller has
    just made; _up works in lo's array once _dn has read it."""
    down = _dn(lo, ulps)
    return down, _up(hi, ulps, lo)


# --- elementwise interval kernel ---------------------------------------------
# An interval is a pair (lo, hi) of float64 arrays of one shape, or a
# constant pair of Python floats that broadcasts against them (an operation
# takes at least one array). Soundness contract: for inputs x in [xlo, xhi]
# the exact real result lies in the returned [lo, hi].

def v_point(x):
    """Degenerate interval around an exact binary64 value."""
    return x, x


def v_add(a, b):
    return _outward(a[0] + b[0], a[1] + b[1], 1.0)


def v_sub(a, b):
    return _outward(a[0] - b[1], a[1] - b[0], 1.0)


def v_neg(a):
    return -a[1], -a[0]


def _hull4(p1, p2, p3, p4):
    """Enclosure of a product or quotient from its four endpoint results
    (each rounded to nearest): their min and max, moved outward by
    _dn1/_up1. The results are v_mul's or v_div's own arrays, and the min
    and max are reduced into them, with one array more."""
    lo = np.minimum(p1, p2)
    hi = np.maximum(p1, p2, out=p1)
    np.minimum(lo, np.minimum(p3, p4, out=p2), out=lo)
    np.maximum(hi, np.maximum(p3, p4, out=p3), out=hi)
    return _dn1(lo, out=p2), _up1(hi, out=p3)


def v_mul(a, b):
    return _hull4(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])


def v_div(a, b):
    """Quotient; the divisor must not contain zero (callers guarantee it)."""
    return _hull4(a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])


def v_sqr(a):
    """Elementwise square; tighter than v_mul(a, a) for sign-straddling
    inputs since x*x never goes negative."""
    straddles = (a[0] < 0.0) & (a[1] > 0.0)
    t = np.abs(a[0])
    M = np.abs(a[1])
    m = np.minimum(t, M)
    np.maximum(t, M, out=M)
    lo = np.maximum(0.0, _dn1(np.multiply(m, m, out=m), out=t), out=t)
    np.copyto(lo, 0.0, where=straddles)
    return lo, _up1(np.multiply(M, M, out=M), out=m)


def v_sqrt(a):
    """Elementwise sqrt; the radicand's lower end is clamped at 0."""
    lo_in = np.maximum(a[0], 0.0)
    hi_in = np.maximum(a[1], 0.0)
    lo, hi = _outward(np.sqrt(lo_in, out=lo_in), np.sqrt(hi_in, out=hi_in), 4.0)
    return np.maximum(0.0, lo, out=lo), hi


def v_log(a):
    # increasing; domain a[0] > 0 is the caller's responsibility in the
    # masked kernels (lanes violating it are discarded via fallbacks)
    return _outward(np.log(a[0]), np.log(a[1]), 4.0)


def v_arccos(a):
    # decreasing; inputs clamped to [-1, 1]
    lo_in = np.clip(a[0], -1.0, 1.0)
    hi_in = np.clip(a[1], -1.0, 1.0)
    return _outward(np.arccos(hi_in, out=hi_in), np.arccos(lo_in, out=lo_in), 4.0)


def v_arcsin(a):
    # increasing; inputs clamped to [-1, 1]
    lo_in = np.clip(a[0], -1.0, 1.0)
    hi_in = np.clip(a[1], -1.0, 1.0)
    return _outward(np.arcsin(lo_in, out=lo_in), np.arcsin(hi_in, out=hi_in), 4.0)


def v_ratio(p: int, q: int) -> tuple[float, float]:
    """Enclosure of the exact rational p/q: degenerate when p/q is a binary64
    value, else its two binary64 neighbours. c = p/q is exact iff its own
    ratio num/den (den > 0) has num * q == p * den."""
    c = p / q
    num, den = c.as_integer_ratio()
    if num * q == p * den:
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
_V_ZERO = (0.0, 0.0)
_V_TWO_THIRDS_PI = (_dn1(np.array([PI_LO * _V_TWO_THIRDS[0]])).item(),
                    _up1(np.array([PI_HI * _V_TWO_THIRDS[1]])).item())


def _piecewise(shape, outputs, cases):
    """Lane-wise hull of the branches whose guard holds, for `outputs`
    intervals at once. Each case is (guard, branch), the guard a boolean array
    of the batch's shape. A branch is either a tuple of intervals, one per
    output (constants, or lanes computed already), or a function that
    computes that tuple on the guard's lanes only: it is called with `take`,
    which maps an interval of the batch's shape to those lanes (a constant
    passes unchanged and still broadcasts), and it is not called at all
    when the guard holds on no lane. Every output starts as the empty
    interval (inf, -inf), and each case is merged into it in order."""
    size = math.prod(shape)
    outs = [(np.full(size, np.inf), np.full(size, -np.inf)) for _ in range(outputs)]
    for guard, branch in cases:
        lanes = np.flatnonzero(np.broadcast_to(guard, shape))
        if lanes.size == 0:
            continue

        def take(iv, lanes=lanes):
            return tuple(x if np.ndim(x) == 0 else x.reshape(-1)[lanes] for x in iv)

        values = branch(take) if callable(branch) else tuple(map(take, branch))
        for (lo, hi), (v_lo, v_hi) in zip(outs, values):
            lo[lanes] = np.minimum(lo[lanes], v_lo)
            hi[lanes] = np.maximum(hi[lanes], v_hi)
    return tuple((lo.reshape(shape), hi.reshape(shape)) for lo, hi in outs)


# --- closed-form kernels -------------------------------------------------------

def v_hyp(a, b):
    """Enclosure of sqrt(a^2 + b^2), the hypotenuse that v_A1 takes."""
    return v_sqrt(v_add(v_sqr(a), v_sqr(b)))


def v_A1(a, b, hyp):
    """Triangle integral of sqrt(x^2+y^2) over (0,0),(a,0),(a,b):
    a^3/6 * log((b + hyp)/|a|) + ab/6 * hyp, hyp = sqrt(a^2+b^2), odd in a,
    with exact zero at a = 0. `hyp` is the caller's v_hyp(a, b), which a
    mirrored pair A1(a, b), A1(b, a) shares; on the disk pattern
    (h, sqrt(1-h^2)) it is exactly 1, and the caller passes None."""
    unit = hyp is None
    # reduce to a > 0 via oddness; sign-straddling lanes use the fallback
    negate = a[1] <= 0.0
    ap = (np.where(negate, -a[1], a[0]), np.where(negate, -a[0], a[1]))
    with np.errstate(all="ignore"):
        # log((b + hyp) / a); the cubic factor tames the cancellation for
        # very negative b
        larg = v_div(v_add(b, _V_ONE if unit else hyp), ap)
        lg = v_log(larg)
        cube = v_mul(v_sqr(ap), ap)
        t1 = v_mul(v_mul(cube, _V_SIXTH), lg)
        t2 = v_mul(v_mul(ap, b), _V_SIXTH)
        val = v_add(t1, t2 if unit else v_mul(t2, hyp))
    good = (ap[0] > 0.0) & (larg[0] > 0.0) & np.isfinite(val[0]) & np.isfinite(val[1])
    # fallback where the log form is unusable (a straddles 0, or inflation
    # pushes the log argument nonpositive): |A1| <= area * max radius
    amax = np.maximum(np.abs(a[0]), np.abs(a[1]))
    bmax = np.maximum(np.abs(b[0]), np.abs(b[1]))
    w = _up1(_up1(amax * bmax) * 0.5)
    w = _up1(w * (1.0 if unit else hyp[1]))
    lo = np.where(good, np.where(negate, -val[1], val[0]), -w)
    hi = np.where(good, np.where(negate, -val[0], val[1]), w)
    return lo, hi


def _chord(c):
    """Terms of the chord x = c of the unit circle, c in [-1, 1]:
    (c sqrt(1 - c^2), A1(c, sqrt(1 - c^2)))."""
    root = v_sqrt(v_sub(_V_ONE, v_sqr(c)))
    return v_mul(c, root), v_A1(c, root, None)


class _Axis(NamedTuple):
    """The terms of one corner coordinate h that every corner integral over
    h shares, computed once per batch."""

    h: tuple
    sq: tuple      # h^2
    c: tuple       # h clamped to [-1, 1]
    b0: tuple      # disk-segment integrals over {x <= h}
    b1: tuple


def _axis(h) -> _Axis:
    """Per-axis terms, including the disk-segment integrals (B0, B1) over
    {x <= h}: 0 below h = -1, (pi, 2pi/3) above h = 1, the sector +
    triangles formula between, combined by _piecewise."""
    has_low = h[0] < -1.0
    has_high = h[1] >= 1.0
    has_mid = (h[1] >= -1.0) & (h[0] < 1.0)
    c = (np.clip(h[0], -1.0, 1.0), np.clip(h[1], -1.0, 1.0))

    def mid(take):
        cm = take(c)
        c_root, a1 = _chord(cm)
        pma = v_sub(V_PI, v_arccos(cm))  # pi - arccos h
        a0 = v_mul(c_root, _V_HALF)
        return (v_add(pma, v_add(a0, a0)),
                v_add(v_mul(_V_TWO_THIRDS, pma), v_add(a1, a1)))

    b0, b1 = _piecewise(h[0].shape, 2, ((has_low, (_V_ZERO, _V_ZERO)), (has_mid, mid),
                                        (has_high, (V_PI, _V_TWO_THIRDS_PI))))
    return _Axis(h=h, sq=v_sqr(h), c=c, b0=b0, b1=b1)


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

    def both(take):
        return (v_sub(v_add(take(p.b0), take(q.b0)), V_PI),
                v_sub(v_add(take(p.b1), take(q.b1)), _V_TWO_THIRDS_PI))

    def inside(take):
        # on arguments clamped to [-1, 1]; the chord terms are computed on
        # this branch's own lanes (the module docstring says why)
        c1, c2 = take(p.c), take(q.c)
        (c_root1, a1_1), (c_root2, a1_2) = _chord(c1), _chord(c2)
        ang = v_add(V_HALF_PI, v_add(v_arcsin(c1), v_arcsin(c2)))
        # A0(c1,root1) + A0(c2,root2) + A0(c1,c2) + A0(c2,c1); the last two
        # collapse to c1*c2
        a0_sum = v_add(v_mul(v_add(c_root1, c_root2), _V_HALF), v_mul(c1, c2))
        hyp = v_hyp(c1, c2)
        a1_sum = v_add(v_add(a1_1, a1_2), v_add(v_A1(c1, c2, hyp), v_A1(c2, c1, hyp)))
        return (v_add(v_mul(ang, _V_HALF), a0_sum),
                v_add(v_mul(ang, _V_THIRD), a1_sum))

    shape = np.broadcast(h1[0], h2[0]).shape
    return _piecewise(shape, 2, (
        (m_empty, (_V_ZERO, _V_ZERO)), (m_seg2, (q.b0, q.b1)),
        (m_seg1, (p.b0, p.b1)), (m_both, both), (m_in, inside)))


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
    """Expected depot-to-uniform-point distance: eight triangle terms, in
    four mirrored pairs that each share a hypotenuse."""
    one_m_a = v_sub(_V_ONE, a)
    one_m_b = v_sub(_V_ONE, b)
    terms = []
    for p, q in ((a, b), (b, one_m_a), (one_m_a, one_m_b), (one_m_b, a)):
        hyp = v_hyp(p, q)
        terms += [v_A1(p, q, hyp), v_A1(q, p, hyp)]
    return functools.reduce(v_add, terms)


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
    """Enclosure of g_j at the depot (a, b), j in {1, 2, 3}. A j that fails
    geometry.check_int or lies outside 1..3, and a depot that fails
    check_coordinates, raise ValueError.

    The enclosure is tight near the unit square, where the net lies. Far
    from it the cubic triangle terms cancel, and it widens with the distance
    until it overflows to the whole real line: at distance 1e10 the g1
    enclosure is about 1e20 wide, and the g2 one is infinite from about
    1e40. For far depots use netverify.verify_far_field, which needs no
    numeric check, and the closedform values."""
    j = check_int(j, "j", 1)
    if j > 3:
        raise ValueError(f"j must be 1, 2 or 3, got {j}")
    x, y = check_coordinates([(a, b)], "depot").T  # one lane each
    with np.errstate(over="ignore", invalid="ignore"):
        g = v_g_all(v_point(x), v_point(y))[j - 1]
    return enclosure(g)


def enclosure(v) -> Interval:
    """The Interval of a one-lane enclosure v = (lo, hi). An end that
    overflow made NaN (inf - inf, 0 * inf) carries no bound, so the
    enclosure widens to the whole real line."""
    lo, hi = v[0].item(), v[1].item()
    if math.isnan(lo) or math.isnan(hi):
        return Interval(-math.inf, math.inf)
    return Interval(lo, hi)
