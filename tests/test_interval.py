import inspect
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from sweepcvrp import closedform, interval
from sweepcvrp.interval import (
    _ETA,
    _ULP_SCALE,
    V_HALF_PI,
    V_PI,
    Interval,
    _V_HALF,
    _V_ONE,
    _V_SIXTH,
    _V_THIRD,
    _V_TWO_THIRDS,
    _V_THREE_QUARTERS,
    _V_TWO_THIRDS_PI,
    _Axis,
    _corner,
    _dn,
    _dn1,
    _hull4,
    _leg,
    _segment,
    _up,
    _up1,
    iv_g,
    v_A1,
    v_add,
    v_arccos,
    v_arcsin,
    v_D_pair,
    v_div,
    v_g1,
    v_g_all,
    v_log,
    v_mul,
    v_neg,
    v_point,
    v_ratio,
    v_sqr,
    v_sqrt,
    v_sub,
)

mp.mp.prec = 120  # well beyond the 80-bit reference requirement


# --- high-precision twin of the closed forms (test oracle) --------------------

def mp_A(i, a, b):
    a, b = mp.mpf(a), mp.mpf(b)
    if a == 0:
        return mp.mpf(0)
    if i == 0:
        return a * b / 2
    return (a ** 3 / 6 * mp.log(b / abs(a) + mp.sqrt(1 + b ** 2 / a ** 2))
            + a * b / 6 * mp.sqrt(a ** 2 + b ** 2))


def mp_B(i, h):
    h = mp.mpf(h)
    if h < -1:
        return mp.mpf(0)
    if h >= 1:
        return mp.mpf(3 - i) / 3 * mp.pi
    return (mp.mpf(3 - i) / 3 * (mp.pi - mp.acos(h))
            + 2 * mp_A(i, h, mp.sqrt(1 - h ** 2)))


def mp_C(i, h1, h2):
    h1, h2 = mp.mpf(h1), mp.mpf(h2)
    if h1 ** 2 + h2 ** 2 <= 1:
        return (mp.mpf(3 - i) / 6 * (mp.pi / 2 + mp.asin(h1) + mp.asin(h2))
                + mp_A(i, h1, mp.sqrt(1 - h1 ** 2))
                + mp_A(i, h2, mp.sqrt(1 - h2 ** 2))
                + mp_A(i, h1, h2) + mp_A(i, h2, h1))
    if h1 > 0 and h2 > 0:
        return mp_B(i, h1) + mp_B(i, h2) - mp.mpf(3 - i) / 3 * mp.pi
    if h1 > 0:
        return mp_B(i, h2)
    if h2 > 0:
        return mp_B(i, h1)
    return mp.mpf(0)


def mp_g(a, b):
    a, b = mp.mpf(a), mp.mpf(b)
    one = mp.mpf(1)
    pairs = [(a, b), (b, a), (b, one - a), (one - a, b), (one - a, one - b),
             (one - b, one - a), (one - b, a), (a, one - b)]
    v1 = mp.fsum(mp_A(1, p, q) for p, q in pairs)
    R = mp.mpf(3) / 4 * v1

    def D(i):
        return (mp_C(i, (one - a) / R, (one - b) / R)
                - mp_C(i, (one - a) / R, -b / R)
                - mp_C(i, -a / R, (one - b) / R)
                + mp_C(i, -a / R, -b / R))

    v2 = R - R ** 3 * D(0) + R ** 3 * D(1)
    v3 = one - R ** 2 * D(0)
    return v1, v2, v3


def _contains_mp(iv, value) -> bool:
    """iv is an Interval, a constant pair (lo, hi) or a one-lane kernel pair."""
    if isinstance(iv, Interval):
        lo, hi = iv.lo, iv.hi
    else:
        lo, hi = (np.asarray(end).item() for end in iv)
    return mp.mpf(float(lo)) <= value <= mp.mpf(float(hi))


def _lane(*values):
    """One-lane float64 arrays: the kernel's form of single values."""
    return tuple(np.array([v], dtype=np.float64) for v in values)


def _on_lane(f, x):
    """f on the one-lane array of x, read back as a Python float."""
    return f(np.array([x], dtype=np.float64)).item()


class TestIntervalType:
    def test_invalid(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_accessors(self):
        iv = Interval(1.0, 3.0)
        assert iv.width == 2.0
        assert iv.mid == 2.0
        assert iv.contains(2.5) and not iv.contains(3.5)


class TestArithmetic:
    def test_add_example(self):
        (lo,), (hi,) = v_add(_lane(1.0, 2.0), _lane(3.0, 4.0))
        assert lo <= 4.0 and hi >= 6.0

    def test_mul_example(self):
        (lo,), (hi,) = v_mul(_lane(-1.0, 2.0), _lane(3.0, 3.0))
        assert lo <= -3.0 and hi >= 6.0

    def test_neg(self):
        assert v_neg((-2.0, 1.0)) == (-1.0, 2.0)

    def test_ratio(self):
        lo, hi = v_ratio(31, 48)
        assert _contains_mp((lo, hi), mp.mpf(31) / 48)
        assert hi - lo <= 2 * math.ulp(31 / 48)
        assert v_ratio(3, 4) == (0.75, 0.75)

    def test_ratio_against_fraction(self):
        # exact p/q gives a degenerate enclosure, any other its two neighbours
        exact = 0
        for p in range(-40, 41):
            for q in (*range(-40, 0), *range(1, 41)):
                lo, hi = v_ratio(p, q)
                c = p / q
                if Fraction(c) == Fraction(p, q):
                    exact += 1
                    assert (lo, hi) == (c, c), (p, q)
                else:
                    assert (lo, hi) == (math.nextafter(c, -math.inf),
                                        math.nextafter(c, math.inf)), (p, q)
                    assert Fraction(lo) < Fraction(p, q) < Fraction(hi), (p, q)
        assert 0 < exact < 81 * 80
        big = 2**60 + 1  # not a binary64 value, so big/1 is inexact
        assert v_ratio(big, 1)[0] < v_ratio(big, 1)[1]
        assert v_ratio(2**60, 2) == (2.0**59, 2.0**59)


class TestTranscendentals:
    def test_sqrt_tight(self):
        (lo,), (hi,) = v_sqrt(_lane(4.0, 4.0))
        assert lo <= 2.0 <= hi
        assert hi - lo <= 8 * math.ulp(2.0)

    def test_arccos_contains(self):
        assert _contains_mp(v_arccos(_lane(0.0, 0.0)), mp.pi / 2)

    def test_log_contains_zero(self):
        (lo,), (hi,) = v_log(_lane(1.0, 1.0))
        assert lo <= 0.0 <= hi

    def test_pi_enclosure(self):
        assert _contains_mp(V_PI, mp.pi)
        assert V_PI[1] - V_PI[0] <= 2 * math.ulp(math.pi)


def _ulp_error(got: float, exact) -> float:
    """|got - exact| in ulps of the exact value: 2^(e-52) for |exact| in
    [2^e, 2^(e+1)), and 2^-1074 below the normal range."""
    if exact == 0:
        return 0.0 if got == 0.0 else math.inf
    e = mp.frexp(exact)[1] - 1
    return float(abs(mp.mpf(got) - exact) / mp.ldexp(1, max(e - 52, -1074)))


def _libm_arguments(rng, n, unit):
    """n arguments of a libm function. Positive ones (unit False): every
    binade from the subnormals to the largest, a quarter in the binades
    around 1, and values within 1e-6 of 1. On [-1, 1] (unit True): uniform,
    tiny magnitudes down to the subnormals, values within 1e-6 of +-1 and
    within a few ulps of it, and the ends."""
    q = n // 4
    if not unit:
        x = np.ldexp(rng.uniform(1, 2, n), rng.integers(-1074, 1024, n))
        x[:q] = np.ldexp(rng.uniform(1, 2, q), rng.integers(-3, 3, q))
        x[q:q + 64] = 1 + rng.uniform(-1e-6, 1e-6, 64)
        x[q + 64:q + 70] = [1.0, 2.0, 2.0 ** -1074, 2.0 ** -1022, DBL_MAX, 0.0]
        return x
    sign = rng.choice([-1.0, 1.0], n)
    x = rng.uniform(-1, 1, n)
    x[:q] = sign[:q] * np.ldexp(rng.uniform(0.5, 1, q), rng.integers(-1074, 1, q))
    x[q:2 * q] = sign[q:2 * q] * (1 - rng.uniform(0, 1e-6, q))
    near = slice(2 * q, 2 * q + 64)
    x[near] = sign[near] * (1 - rng.integers(0, 16, 64) * 2.0 ** -53)
    x[2 * q + 64:2 * q + 67] = [-1.0, 0.0, 1.0]
    return x


class TestLibmFaithful:
    """The assumption under the 4-ulp step of v_sqrt, v_log, v_arccos and
    v_arcsin: numpy's sqrt, log, arccos and arcsin err below 1 ulp, on an
    array of the net scan's chunk length (which runs the SIMD loops) and on
    one-lane arrays (the depot entry points). The containment tests would
    pass with errors up to 4 ulps, so this is the test that shows a libm
    worse than faithful. numpy 2.4.6 on an AVX-512 x86-64 host gave worst
    errors of 0.50, 0.54, 0.78 and 0.76 ulp on these arguments."""

    @pytest.mark.parametrize("f, ref, unit", [
        (np.sqrt, mp.sqrt, False), (np.log, mp.log, False),
        (np.arccos, mp.acos, True), (np.arcsin, mp.asin, True)],
        ids=["sqrt", "log", "arccos", "arcsin"])
    def test_error_below_one_ulp(self, f, ref, unit):
        from sweepcvrp.netverify import _BATCH_POINTS

        rng = np.random.default_rng(337)
        x = _libm_arguments(rng, _BATCH_POINTS, unit)
        with np.errstate(divide="ignore"):  # log(0) = -inf, exactly
            batch = f(x).tolist()
        for k, arg in enumerate(x.tolist()):
            exact = ref(mp.mpf(arg))
            if mp.isinf(exact):
                assert batch[k] == exact, arg
                continue
            lane = f(np.array([arg])).item()
            assert _ulp_error(batch[k], exact) < 1.0, (f.__name__, arg)
            assert _ulp_error(lane, exact) < 1.0, (f.__name__, arg)


class TestContainmentFuzz:
    """Reference values always fall inside the returned enclosures."""

    N = 100_000

    def _samples(self, rng, n):
        # mixture of scales, including negatives and near-zero values
        raw = rng.uniform(-10, 10, size=n)
        raw[:: 7] *= 1e-6
        raw[1:: 11] *= 1e3
        return raw

    def test_arithmetic_exact_rational_reference(self):
        rng = np.random.default_rng(179)
        xs = self._samples(rng, self.N)
        ys = self._samples(rng, self.N)
        ys[ys == 0.0] = 1.0
        from sweepcvrp.interval import v_add, v_div, v_mul, v_sqr, v_sub

        results = {
            "add": v_add((xs, xs), (ys, ys)),
            "sub": v_sub((xs, xs), (ys, ys)),
            "mul": v_mul((xs, xs), (ys, ys)),
            "div": v_div((xs, xs), (ys, ys)),
            "sqr": v_sqr((xs, xs)),
        }
        step = 9  # exact Fraction reference on a strided subset, arrays are checked above
        for name, (lo, hi) in results.items():
            assert np.all(lo <= hi)
        for i in range(0, self.N, step):
            fx, fy = Fraction(float(xs[i])), Fraction(float(ys[i]))
            refs = {
                "add": fx + fy, "sub": fx - fy, "mul": fx * fy,
                "div": fx / fy, "sqr": fx * fx,
            }
            for name, ref in refs.items():
                lo, hi = results[name]
                assert Fraction(float(lo[i])) <= ref <= Fraction(float(hi[i])), (
                    name, xs[i], ys[i]
                )

    def test_transcendental_mpmath_reference(self):
        rng = np.random.default_rng(181)
        n = 4000
        from sweepcvrp.interval import v_arccos, v_arcsin, v_log, v_sqrt

        pos = np.abs(self._samples(rng, n)) + 1e-12
        unit = rng.uniform(-1, 1, size=n)
        cases = [
            (v_sqrt, pos, mp.sqrt),
            (v_log, pos, mp.log),
            (v_arccos, unit, mp.acos),
            (v_arcsin, unit, mp.asin),
        ]
        for fn, data, ref in cases:
            lo, hi = fn((data, data))
            for i in range(n):
                value = ref(mp.mpf(float(data[i])))
                assert mp.mpf(float(lo[i])) <= value <= mp.mpf(float(hi[i])), (
                    fn.__name__, data[i]
                )


class TestIvG:
    def test_center_constant(self):
        target = (mp.sqrt(2) + mp.log(1 + mp.sqrt(2))) / 6
        r = iv_g(1, 0.5, 0.5)
        assert _contains_mp(r, target)
        assert r.width <= 1e-10

    def test_far_field_g3_contains_one(self):
        for a, b in [(10.0, 10.0), (-4.5, -4.5), (0.5, 6.0)]:
            assert iv_g(3, a, b).contains(1.0)

    def test_invalid_j(self):
        # j is read by the integer rule (a float or a string: the "iv_g j"
        # row of tests/test_int_rule.py), then checked against 1..3; a numpy
        # integer and True are ints
        for bad in (0, 4):
            with pytest.raises(ValueError, match=f"j must be .*, got {bad}$"):
                iv_g(bad, 0.5, 0.5)
        assert iv_g(np.int64(2), 0.5, 0.5) == iv_g(2, 0.5, 0.5)
        assert iv_g(True, 0.25, 0.75) == iv_g(1, 0.25, 0.75)

    def test_far_depot_encloses_closedform(self):
        # wide (about 1e20 at distance 1e10), but an enclosure
        for a, b in ((1e10, 0.5), (0.5, -1e10)):
            assert iv_g(1, a, b).contains(closedform.g1(a, b))

    @pytest.mark.parametrize("a, b", [(1e150, 0.5), (-1e150, 0.5), (0.5, 1e150),
                                      (1e103, 1e103), (-1e150, -1e150)])
    def test_far_depot_without_warning(self, a, b):
        # overflow inside v_g_all may neither warn nor leave a NaN end
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in (1, 2, 3):
                g = iv_g(j, a, b)
                assert g.lo <= g.hi
        assert iv_g(2, a, b) == Interval(-math.inf, math.inf)

    @pytest.mark.parametrize("bad", [1e160, -1e160, math.nan, math.inf])
    def test_out_of_range_depot_raises(self, bad):
        for a, b in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ValueError, match="depot.*finite with"):
                iv_g(2, a, b)

    def test_contains_high_precision_reference(self):
        rng = np.random.default_rng(191)
        points = [tuple(rng.uniform(-1, 2, size=2)) for _ in range(60)]
        points += [(0.5, 0.5), (1.0, 1.0), (0.998, 1.002), (0.5, 5.242),
                   (4.0, 4.0), (0.0, 0.0), (0.75, 0.75), (0.5, 1.5)]
        for a, b in points:
            ref = mp_g(a, b)
            for j in (1, 2, 3):
                iv = iv_g(j, a, b)
                assert _contains_mp(iv, ref[j - 1]), (a, b, j)

    def test_midpoint_agrees_with_closedform(self):
        rng = np.random.default_rng(193)
        for _ in range(40):
            a, b = rng.uniform(-1, 2, size=2)
            v1, v2, v3, _ = closedform.g_all(a, b)
            for j, v in ((1, v1), (2, v2), (3, v3)):
                iv = iv_g(j, a, b)
                assert abs(iv.mid - v) <= max(iv.width, 1e-13)

    def test_widths_on_net_points(self):
        idx = np.arange(0, 2372, 100, dtype=np.float64)
        a = 0.5 + 0.002 * idx
        grid_a, grid_b = np.meshgrid(a, a)
        keep = grid_a <= grid_b
        aa, bb = grid_a[keep], grid_b[keep]
        G1, G2, G3 = v_g_all((aa, aa), (bb, bb))
        for lo, hi in (G1, G2, G3):
            assert np.all(hi - lo <= 1e-8)
            assert np.all(lo <= hi)

    def test_branch_hull_straddles_segment_boundary(self):
        eps = 1e-10
        h = _lane(1.0 - eps, 1.0 + eps)
        (b0_lo, b0_hi), (b1_lo, b1_hi) = _segment(h)
        assert b0_lo <= closedform.fn_B(0, 1.0 - eps) <= b0_hi
        assert b0_lo <= math.pi <= b0_hi
        assert b1_lo <= closedform.fn_B(1, 1.0 - eps) <= b1_hi
        assert b1_lo <= 2 * math.pi / 3 <= b1_hi
        h = _lane(-1.0 - eps, -1.0 + eps)
        b0_lo, b0_hi = _segment(h)[0]
        assert b0_lo <= 0.0 <= b0_hi
        assert b0_lo <= closedform.fn_B(0, -1.0 + eps) <= b0_hi

    def test_wide_input_intervals_still_contain(self):
        # nondegenerate rectangles: sample interior points, all must be inside
        rng = np.random.default_rng(197)
        for _ in range(15):
            a0 = rng.uniform(-0.5, 1.5)
            b0 = rng.uniform(-0.5, 1.5)
            wa, wb = rng.uniform(0, 0.05, size=2)
            A = _lane(a0, a0 + wa)
            B = _lane(b0, b0 + wb)
            G1, G2, G3 = v_g_all(A, B)
            for t in np.linspace(0, 1, 5):
                aa, bb = a0 + t * wa, b0 + t * wb
                ref = mp_g(aa, bb)
                for ((lo,), (hi,)), val in zip((G1, G2, G3), ref):
                    assert mp.mpf(float(lo)) <= val <= mp.mpf(float(hi))


# --- outward rounding helpers ---------------------------------------------------

DBL_MAX = np.finfo(np.float64).max
SMALLEST_NORMAL = 2.0 ** -1022
MIN_SUBNORMAL = 2.0 ** -1074


# the 4-ulp outward step that v_sqrt, v_log, v_arccos and v_arcsin take
def _dn4(x, out=None):
    return _dn(x, 4.0, out)


def _up4(x, out=None):
    return _up(x, 4.0, out)


def _rounding_cases() -> list[float]:
    vals = [0.0, MIN_SUBNORMAL, 2 * MIN_SUBNORMAL, SMALLEST_NORMAL - MIN_SUBNORMAL,
            DBL_MAX, math.nextafter(DBL_MAX, 0.0)]
    # powers of two and their neighbours on both sides of the binade boundary,
    # from the lowest normal binades (where |x| 2^-52 underflows) to the top
    for e in (-1074, -1073, -1022, -1021, -1020, -1000, -971, -970, -969,
              -52, -1, 0, 1, 52, 1000, 1023):
        p = 2.0 ** e
        vals += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
        vals += [math.nextafter(math.nextafter(p, 0.0), 0.0), 1.9 * p, 1.5 * p]
    rng = np.random.default_rng(223)
    vals += (rng.uniform(1, 2, 400) * 2.0 ** rng.integers(-1074, 1024, 400)).tolist()
    vals += rng.uniform(-10, 10, 200).tolist()
    vals = [v for v in vals if math.isfinite(v)]
    return vals + [-v for v in vals]


ROUNDING_CASES = _rounding_cases()


class TestOutwardRounding:
    """_dn1/_up1 move a value at least one binary64 step outward and at most
    two ulps; _dn4/_up4 at least four ulps and at most eight. The ulp in the
    upper limit is that of the larger of |x| and |result|: an upward move that
    crosses a power of two is rounded on the coarser side's grid."""

    @staticmethod
    def _check(x, r, k, direction):
        r = float(r)
        if math.isinf(r):
            # an infinite bound is sound; it appears only within 2k ulps of
            # the largest finite value
            assert r == direction * math.inf
            assert Fraction(abs(x)) + 2 * k * Fraction(math.ulp(x)) > Fraction(DBL_MAX)
            return
        step = math.nextafter(x, direction * math.inf)
        moved = (Fraction(r) - Fraction(x)) * direction
        assert (Fraction(r) - Fraction(step)) * direction >= 0, (x, r)
        assert moved >= k * Fraction(math.ulp(x)), (x, r)
        assert moved <= 2 * k * Fraction(max(math.ulp(x), math.ulp(r))), (x, r)

    @pytest.mark.parametrize("k, dn, up", [(1, _dn1, _up1), (4, _dn4, _up4)])
    def test_bounds_on_special_and_random_values(self, k, dn, up):
        xs = np.array(ROUNDING_CASES)
        with np.errstate(over="ignore"):  # outward from +-DBL_MAX
            lo, hi = dn(xs), up(xs)
            lanes = [(_on_lane(dn, x), _on_lane(up, x)) for x in ROUNDING_CASES]
        for i, x in enumerate(ROUNDING_CASES):
            self._check(x, lo[i], k, -1)
            self._check(x, hi[i], k, 1)
            # a one-lane array gives the batch's bits
            assert lanes[i] == (lo[i], hi[i])

    def test_at_most_two_ulps_in_lowest_binades(self):
        # here |x| 2^-52 underflows: the offset must still not pass 2 ulps
        for x in (1.9 * SMALLEST_NORMAL, 2 * SMALLEST_NORMAL - MIN_SUBNORMAL,
                  1.9 * 2 * SMALLEST_NORMAL):
            assert Fraction(x) - Fraction(_on_lane(_dn1, x)) <= 2 * Fraction(math.ulp(x))
            assert Fraction(_on_lane(_up1, x)) - Fraction(x) <= 2 * Fraction(math.ulp(x))

    @np.errstate(invalid="ignore")  # inf - inf
    def test_non_finite_never_becomes_finite(self):
        for dn, up in ((_dn1, _up1), (_dn4, _up4)):
            for x in (math.inf, -math.inf, math.nan):
                assert not math.isfinite(_on_lane(dn, x))
                assert not math.isfinite(_on_lane(up, x))
            assert math.isnan(_on_lane(dn, math.inf))
            assert math.isnan(_on_lane(up, -math.inf))
            assert _on_lane(dn, -math.inf) == -math.inf
            assert _on_lane(up, math.inf) == math.inf


# --- the helpers before they computed in buffers of their own -------------------
# Kept verbatim as the reference: the helpers, and every v_* built on them,
# must give the same bits on batches, on one-lane arrays, beside constants and
# on broadcasting shapes.

def _offset_reference(x, ulps):
    # max(|x| * ulps 2^-52, ulps 2^-1074); ulps is a power of two, so both
    # constants are exact
    return np.maximum(np.abs(x) * (ulps * _ULP_SCALE), ulps * _ETA)


def _dn1_reference(x):
    return x - _offset_reference(x, 1.0)


def _up1_reference(x):
    return x + _offset_reference(x, 1.0)


def _dn4_reference(x):
    return x - _offset_reference(x, 4.0)


def _up4_reference(x):
    return x + _offset_reference(x, 4.0)


def _v_add_reference(a, b):
    return _dn1_reference(a[0] + b[0]), _up1_reference(a[1] + b[1])


def _v_sub_reference(a, b):
    return _dn1_reference(a[0] - b[1]), _up1_reference(a[1] - b[0])


def _hull4_reference(p1, p2, p3, p4):
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _dn1_reference(lo), _up1_reference(hi)


def _v_mul_reference(a, b):
    return _hull4_reference(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])


def _v_div_reference(a, b):
    return _hull4_reference(a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])


def _v_sqr_reference(a):
    alo_abs = np.abs(a[0])
    ahi_abs = np.abs(a[1])
    m = np.minimum(alo_abs, ahi_abs)
    M = np.maximum(alo_abs, ahi_abs)
    straddles = (a[0] < 0.0) & (a[1] > 0.0)
    lo = np.where(straddles, 0.0, np.maximum(0.0, _dn1_reference(m * m)))
    return lo, _up1_reference(M * M)


def _v_sqrt_reference(a):
    lo_in = np.maximum(a[0], 0.0)
    hi_in = np.maximum(a[1], 0.0)
    return (np.maximum(0.0, _dn4_reference(np.sqrt(lo_in))),
            _up4_reference(np.sqrt(hi_in)))


def _v_log_reference(a):
    return _dn4_reference(np.log(a[0])), _up4_reference(np.log(a[1]))


def _v_arccos_reference(a):
    lo_in = np.clip(a[0], -1.0, 1.0)
    hi_in = np.clip(a[1], -1.0, 1.0)
    return _dn4_reference(np.arccos(hi_in)), _up4_reference(np.arccos(lo_in))


def _v_arcsin_reference(a):
    lo_in = np.clip(a[0], -1.0, 1.0)
    hi_in = np.clip(a[1], -1.0, 1.0)
    return _dn4_reference(np.arcsin(lo_in)), _up4_reference(np.arcsin(hi_in))


HELPERS = [(_dn1, _dn1_reference), (_up1, _up1_reference),
           (_dn4, _dn4_reference), (_up4, _up4_reference)]
UNARY = [(v_sqr, _v_sqr_reference), (v_sqrt, _v_sqrt_reference),
         (v_log, _v_log_reference), (v_arccos, _v_arccos_reference),
         (v_arcsin, _v_arcsin_reference)]
BINARY = [(v_add, _v_add_reference), (v_sub, _v_sub_reference),
          (v_mul, _v_mul_reference), (v_div, _v_div_reference)]


def _bits(value):
    """Type, shape and binary64 bits of a result: NaN payloads, signed
    zeros and the scalar-or-array kind all count."""
    return (type(value), np.shape(value),
            np.asarray(value, dtype=np.float64).view(np.uint64).tolist())


def _assert_bits(got, ref):
    assert [_bits(v) for v in got] == [_bits(v) for v in ref]


def _ends(result):
    """The arrays and scalars of a nested tuple of intervals."""
    if isinstance(result, (tuple, list)):
        for part in result:
            yield from _ends(part)
    else:
        yield result


SPECIAL_CASES = np.array(ROUNDING_CASES + [math.inf, -math.inf, math.nan])


def _case_intervals(seed):
    """Pairs of special and random values, in both orders, NaN included:
    the helpers are elementwise, so every pairing must keep its bits."""
    rng = np.random.default_rng(seed)
    return tuple((rng.permutation(SPECIAL_CASES), rng.permutation(SPECIAL_CASES))
                 for _ in range(2))


class TestInPlaceHelpers:
    """The helpers compute in buffers of their own and never write into an
    argument; bit for bit they equal the out-of-place reference above."""

    def test_one_path_through_the_kernel(self):
        # every helper has one body, on float64 arrays: no predicate picks a
        # plain-expression path, no helper tests the type of an argument, and
        # every Interval made from a kernel pair in the package is made by
        # enclosure
        from sweepcvrp import interval

        assert not hasattr(interval, "_batch") and not hasattr(interval, "_mine")
        assert not re.search(r"\b(type|isinstance)\(", inspect.getsource(interval))
        package = Path(interval.__file__).parent
        built = {path.name: path.read_text().count("Interval(")
                 for path in package.glob("*.py")}
        enclosure = inspect.getsource(interval.enclosure)
        assert {name: n for name, n in built.items() if n} == {
            "interval.py": enclosure.count("Interval(")}

    @np.errstate(all="ignore")
    def test_helpers_bit_identical(self):
        xs = SPECIAL_CASES
        for fast, ref in HELPERS:
            _assert_bits([fast(xs)], [ref(xs)])
            out = np.empty_like(xs)
            assert fast(xs, out=out) is out
            _assert_bits([out], [ref(xs)])
            for x in xs.tolist():
                lane = np.array([x])
                _assert_bits([fast(lane)], [ref(lane)])

    @np.errstate(all="ignore")
    def test_hull_bit_identical(self):
        rng = np.random.default_rng(269)
        ps = [rng.permutation(SPECIAL_CASES) for _ in range(4)]
        ref = _hull4_reference(*ps)
        _assert_bits(_hull4(*(p.copy() for p in ps)), ref)
        _assert_bits(_hull4(*(p[:, None].copy() for p in ps)),
                     [r[:, None] for r in ref])

    @np.errstate(all="ignore")
    def test_kernel_bit_identical_on_special_values(self):
        a, b = _case_intervals(271)
        for fast, ref in UNARY:
            _assert_bits(fast(a), ref(a))
        for iv in (a, b):
            # the square a leg shares with its reflection |a|
            leg = _leg(iv)
            _assert_bits(leg.sq, v_sqr(leg.ap))
        for fast, ref in BINARY:
            _assert_bits(fast(a, b), ref(a, b))

    @np.errstate(all="ignore")
    def test_kernel_bit_identical_on_scalars(self):
        a, b = _case_intervals(277)
        lanes = np.random.default_rng(281).choice(SPECIAL_CASES.size, 150, replace=False)
        for k in lanes.tolist():
            a_k = tuple(np.array([x[k]]) for x in a)
            b_k = tuple(np.array([x[k]]) for x in b)
            for fast, ref in UNARY:
                _assert_bits(fast(a_k), ref(a_k))
            for fast, ref in BINARY:
                _assert_bits(fast(a_k, b_k), ref(a_k, b_k))

    @np.errstate(all="ignore")
    def test_kernel_bit_identical_on_mixed_shapes(self):
        rng = np.random.default_rng(283)
        lo = rng.uniform(-2.0, 2.0, 500)
        arr = (lo, lo + rng.uniform(0.0, 1.0, 500))
        col = (arr[0][:20, None], arr[1][:20, None])
        row = (arr[0][None, :30], arr[1][None, :30])
        # an array times Python-float constants, as in v_mul(cube, _V_SIXTH);
        # a constant of numpy scalars; broadcasting shapes
        others = [_V_SIXTH, _V_ONE, V_PI, (np.float64(0.5), np.float64(0.75))]
        pairs = [(arr, o) for o in others] + [(o, arr) for o in others]
        for x, y in pairs + [(col, row), (row, col)]:
            for fast, ref in BINARY:
                _assert_bits(fast(x, y), ref(x, y))
        for fast, ref in UNARY:
            _assert_bits(fast(col), ref(col))

    @np.errstate(all="ignore")
    def test_no_input_is_written(self):
        rng = np.random.default_rng(293)
        n = 3000
        x = rng.uniform(-2.0, 3.0, n)
        a = _boxes(rng, rng.uniform(-1.5, 2.5, n), n, 0.5)
        b = _boxes(rng, rng.uniform(0.2, 2.5, n), n, 0.5)
        pairs = [v_point(x), a, b]
        before = [[end.copy() for end in iv] for iv in pairs]
        calls = [(f, (iv,)) for f, _ in UNARY for iv in pairs]
        calls += [(f, (p, q)) for f, _ in BINARY for p in pairs for q in pairs]
        hyp = v_sqrt(v_add(v_sqr(a), v_sqr(b)))  # as v_g1 builds it
        calls += [(v_neg, (a,)), (v_A1, (_leg(a), b, hyp)),
                  (v_A1, (_leg(v_point(x)), b, None)), (v_D_pair, (a, b, b)),
                  (v_g1, (a, b)), (v_g_all, (v_point(x), b))]
        for f, args in calls:
            result = f(*args)
            for iv, saved in zip(pairs, before):
                for end, copy in zip(iv, saved):
                    np.testing.assert_array_equal(end.view(np.uint64), copy.view(np.uint64))
            for out_end in _ends(result):
                for end in _ends(pairs):
                    assert not np.shares_memory(out_end, end), f.__name__

    @pytest.mark.parametrize("f, args, arrays", [
        (v_mul, 2, 5), (v_div, 2, 5), (v_add, 2, 3), (v_sub, 2, 3), (v_sqr, 1, 3),
        (v_sqrt, 1, 3), (v_log, 1, 3), (v_arccos, 1, 3), (v_arcsin, 1, 3)])
    def test_allocations_per_call(self, f, args, arrays):
        # the out-of-place helpers held 9 arrays at once in v_mul and v_div,
        # 8 in v_sqr and 4 to 6 in the others
        rng = np.random.default_rng(307)
        n = 100_000
        iv = (rng.uniform(0.1, 0.5, n), rng.uniform(0.5, 0.9, n))
        tracemalloc.start()
        try:
            result = f(*(iv,) * args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
        # v_sqr's three boolean masks add 3/8 of an array
        assert peak <= (arrays + 0.5) * iv[0].nbytes


# --- the triangle kernels before they shared a hypotenuse ------------------------

def _va_crude(a, b, hyp_hi):
    """Their common fallback: |A1| <= (|a| |b| / 2) * hyp."""
    amax = np.maximum(np.abs(a[0]), np.abs(a[1]))
    bmax = np.maximum(np.abs(b[0]), np.abs(b[1]))
    w = _up1(_up1(amax * bmax) * 0.5)
    w = _up1(w * hyp_hi)
    return -w, w


def _v_A1_reference(a, b):
    """The general triangle kernel as it was, computing its own hypotenuse."""
    hyp = v_sqrt(v_add(v_sqr(a), v_sqr(b)))
    negate = a[1] <= 0.0
    ap = (np.where(negate, -a[1], a[0]), np.where(negate, -a[0], a[1]))
    with np.errstate(all="ignore"):
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


def _v_A1_unit_reference(h, root):
    """The disk-pattern kernel as it was: h^3/6 log((1+root)/|h|) + h root/6."""
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


def _v_g1_reference(a, b):
    """g1 as the sum of eight independent triangle calls, in the same order."""
    one_m_a = v_sub(_V_ONE, a)
    one_m_b = v_sub(_V_ONE, b)
    total = _v_A1_reference(a, b)
    for (p, q) in (
        (b, a), (b, one_m_a), (one_m_a, b), (one_m_a, one_m_b),
        (one_m_b, one_m_a), (one_m_b, a), (a, one_m_b),
    ):
        total = v_add(total, _v_A1_reference(p, q))
    return total


# --- per-axis terms: the corner composition before they were shared -------------

def _hull_into(out, mask, cand):
    """Merge candidate intervals into the running hull where mask holds (the
    branch-merging step of the compositions below, kept here as written)."""
    out_lo = np.where(mask, np.minimum(out[0], cand[0]), out[0])
    out_hi = np.where(mask, np.maximum(out[1], cand[1]), out[1])
    return out_lo, out_hi


def _v_B_pair_reference(h):
    has_low = h[0] < -1.0
    has_high = h[1] >= 1.0
    has_mid = (h[1] >= -1.0) & (h[0] < 1.0)
    c = (np.clip(h[0], -1.0, 1.0), np.clip(h[1], -1.0, 1.0))
    root = v_sqrt(v_sub(_V_ONE, v_sqr(c)))
    pma = v_sub(V_PI, v_arccos(c))
    a0 = v_mul(v_mul(c, root), _V_HALF)
    a1 = _v_A1_unit_reference(c, root)
    b0_mid = v_add(pma, v_add(a0, a0))
    b1_mid = v_add(v_mul(_V_TWO_THIRDS, pma), v_add(a1, a1))
    shape = np.broadcast(h[0], h[1]).shape
    b0 = (np.full(shape, np.inf), np.full(shape, -np.inf))
    b1 = (np.full(shape, np.inf), np.full(shape, -np.inf))
    zero = (np.float64(0.0), np.float64(0.0))
    b0 = _hull_into(b0, has_low, zero)
    b1 = _hull_into(b1, has_low, zero)
    b0 = _hull_into(b0, has_mid, b0_mid)
    b1 = _hull_into(b1, has_mid, b1_mid)
    b0 = _hull_into(b0, has_high, V_PI)
    b1 = _hull_into(b1, has_high, _V_TWO_THIRDS_PI)
    return b0, b1


def _corner_guards_reference(h1, h2):
    """The five case guards of the corner {x <= h1, y <= h2}, by name."""
    s = v_add(v_sqr(h1), v_sqr(h2))
    outside = s[1] > 1.0
    return {"empty": outside & (h1[0] <= 0.0) & (h2[0] <= 0.0),
            "seg2": outside & (h1[1] > 0.0) & (h2[0] <= 0.0),
            "seg1": outside & (h1[0] <= 0.0) & (h2[1] > 0.0),
            "both": outside & (h1[1] > 0.0) & (h2[1] > 0.0),
            "inside": s[0] <= 1.0}


def _v_C_pair_reference(h1, h2):
    m_empty, m_seg2, m_seg1, m_both, m_in = _corner_guards_reference(h1, h2).values()
    b0_h1, b1_h1 = _v_B_pair_reference(h1)
    b0_h2, b1_h2 = _v_B_pair_reference(h2)
    c1 = (np.clip(h1[0], -1.0, 1.0), np.clip(h1[1], -1.0, 1.0))
    c2 = (np.clip(h2[0], -1.0, 1.0), np.clip(h2[1], -1.0, 1.0))
    root1 = v_sqrt(v_sub(_V_ONE, v_sqr(c1)))
    root2 = v_sqrt(v_sub(_V_ONE, v_sqr(c2)))
    ang = v_add(V_HALF_PI, v_add(v_arcsin(c1), v_arcsin(c2)))
    a0_sum = v_add(
        v_mul(v_add(v_mul(c1, root1), v_mul(c2, root2)), _V_HALF),
        v_mul(c1, c2),
    )
    c0_in = v_add(v_mul(ang, _V_HALF), a0_sum)
    a1_sum = v_add(
        v_add(_v_A1_unit_reference(c1, root1), _v_A1_unit_reference(c2, root2)),
        v_add(_v_A1_reference(c1, c2), _v_A1_reference(c2, c1)),
    )
    c1_in = v_add(v_mul(ang, _V_THIRD), a1_sum)
    shape = np.broadcast(h1[0], h2[0]).shape
    C0 = (np.full(shape, np.inf), np.full(shape, -np.inf))
    C1 = (np.full(shape, np.inf), np.full(shape, -np.inf))
    zero = (np.float64(0.0), np.float64(0.0))
    C0 = _hull_into(C0, m_empty, zero)
    C1 = _hull_into(C1, m_empty, zero)
    C0 = _hull_into(C0, m_seg2, b0_h2)
    C1 = _hull_into(C1, m_seg2, b1_h2)
    C0 = _hull_into(C0, m_seg1, b0_h1)
    C1 = _hull_into(C1, m_seg1, b1_h1)
    C0 = _hull_into(C0, m_both, v_sub(v_add(b0_h1, b0_h2), V_PI))
    C1 = _hull_into(C1, m_both, v_sub(v_add(b1_h1, b1_h2), _V_TWO_THIRDS_PI))
    C0 = _hull_into(C0, m_in, c0_in)
    C1 = _hull_into(C1, m_in, c1_in)
    return C0, C1


def _v_D_pair_reference(a, b, R):
    x1 = v_div(v_sub(_V_ONE, a), R)
    x2 = v_div(v_neg(a), R)
    y1 = v_div(v_sub(_V_ONE, b), R)
    y2 = v_div(v_neg(b), R)
    c0_11, c1_11 = _v_C_pair_reference(x1, y1)
    c0_12, c1_12 = _v_C_pair_reference(x1, y2)
    c0_21, c1_21 = _v_C_pair_reference(x2, y1)
    c0_22, c1_22 = _v_C_pair_reference(x2, y2)
    d0 = v_add(v_sub(c0_11, c0_12), v_sub(c0_22, c0_21))
    d1 = v_add(v_sub(c1_11, c1_12), v_sub(c1_22, c1_21))
    return d0, d1


def _boxes(rng, lo, n, width):
    """n intervals from lo with widths 0 (degenerate) or up to `width`."""
    w = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0, width, n))
    return lo, lo + w


def _assert_same_bits(got, ref):
    for g, r in zip(got, ref):
        for g_end, r_end in zip(g, r):
            np.testing.assert_array_equal(g_end, r_end)


class TestSharedAxisTerms:
    """v_D_pair computes each coordinate's terms once; bit for bit it equals
    the composition that recomputed them per corner."""

    def _inputs(self):
        rng = np.random.default_rng(227)
        n = 3000
        R = _boxes(rng, rng.uniform(0.2, 2.0, n), n, 0.05)
        a = rng.uniform(-1.5, 2.5, n)
        b = rng.uniform(-1.5, 2.5, n)
        # h = (1 - a) / R or -a / R near -1 and 1: straddle the segment
        # boundaries of B
        m = n // 4
        t = rng.choice([-1.0, 1.0], m) * (1 + rng.uniform(-1e-9, 1e-9, m))
        a[:m] = np.where(rng.random(m) < 0.5, 1 - t * R[0][:m], -t * R[0][:m])
        # (h1, h2) near the unit circle: straddle the inside-disk boundary
        theta = rng.uniform(0, 2 * np.pi, m)
        sl = slice(m, 2 * m)
        a[sl] = 1 - np.cos(theta) * R[0][sl]
        b[sl] = -np.sin(theta) * R[0][sl]
        return _boxes(rng, a, n, 1e-3), _boxes(rng, b, n, 1e-3), R

    def test_d_pair_bit_identical(self):
        a, b, R = self._inputs()
        _assert_same_bits(v_D_pair(a, b, R), _v_D_pair_reference(a, b, R))

    def test_wrappers_bit_identical(self):
        rng = np.random.default_rng(229)
        n = 2000
        h1 = _boxes(rng, rng.uniform(-1.6, 1.6, n), n, 0.2)
        h2 = _boxes(rng, rng.uniform(-1.6, 1.6, n), n, 0.2)
        _assert_same_bits(_segment(h1), _v_B_pair_reference(h1))
        _assert_same_bits(_corner(_Axis(h1, v_sqr(h1)), _Axis(h2, v_sqr(h2))),
                          _v_C_pair_reference(h1, h2))

    def test_net_points_bit_identical(self):
        idx = np.arange(0, 2372, 37, dtype=np.float64)
        a = 0.5 + 0.002 * idx
        grid_a, grid_b = np.meshgrid(a, a)
        aa, bb = grid_a.ravel(), grid_b.ravel()
        R = v_mul(v_g_all((aa, aa), (bb, bb))[0], (0.75, 0.75))
        _assert_same_bits(v_D_pair((aa, aa), (bb, bb), R),
                          _v_D_pair_reference((aa, aa), (bb, bb), R))


class TestOneTriangleKernel:
    """v_A1 with a caller's leg terms and hypotenuse, or None on the disk
    pattern, equals bit for bit the two kernels it replaced, each of which
    computed its own."""

    @staticmethod
    def _mixed_boxes(rng, n, lo, hi):
        """Degenerate, narrow, wide and sign-straddling boxes, and boxes
        around 0."""
        start = rng.uniform(lo, hi, n)
        width = rng.choice([0.0, 1e-12, 1e-3, 0.5, 3.0], n)
        start[: n // 8] = -width[: n // 8] * rng.random(n // 8)  # straddle 0
        start[n // 8 : n // 4] = 0.0
        return start, start + width

    def test_general_kernel_bit_identical(self):
        rng = np.random.default_rng(233)
        n = 20000
        a = self._mixed_boxes(rng, n, -3.0, 4.0)
        b = self._mixed_boxes(rng, n, -3.0, 4.0)
        perm = rng.permutation(n)  # special lanes of b apart from a's
        b = (b[0][perm], b[1][perm])
        leg_a, leg_b = _leg(a), _leg(b)
        hyp = v_sqrt(v_add(leg_a.sq, leg_b.sq))  # as v_g1 and the corner build it
        _assert_same_bits((v_A1(leg_a, b, hyp), v_A1(leg_b, a, hyp)),
                          (_v_A1_reference(a, b), _v_A1_reference(b, a)))
        # and through v_g1, which shares the legs between pairs
        _assert_same_bits((v_g1(a, b),), (_v_g1_reference(a, b),))

    def test_unit_kernel_bit_identical(self):
        rng = np.random.default_rng(239)
        n = 20000
        h = self._mixed_boxes(rng, n, -1.2, 1.2)
        # |h| within a few ulps of 1, and boxes straddling +-1
        m = n // 4
        sign = rng.choice([-1.0, 1.0], m)
        near = sign * (1.0 - rng.integers(0, 8, m) * 2.0 ** -53)
        wide = rng.choice([0.0, 2.0 ** -52, 1e-9], m)
        h = (np.concatenate([h[0][m:], near - wide]),
             np.concatenate([h[1][m:], near + wide]))
        c = (np.clip(h[0], -1.0, 1.0), np.clip(h[1], -1.0, 1.0))
        root = v_sqrt(v_sub(_V_ONE, v_sqr(c)))
        _assert_same_bits((v_A1(_leg(c), root, None),), (_v_A1_unit_reference(c, root),))

    def test_g1_bit_identical(self):
        rng = np.random.default_rng(241)
        n = 20000
        a = self._mixed_boxes(rng, n, -3.0, 4.0)
        b = self._mixed_boxes(rng, n, -3.0, 4.0)
        perm = rng.permutation(n)  # special lanes of b apart from a's
        b = (b[0][perm], b[1][perm])
        _assert_same_bits((v_g1(a, b),), (_v_g1_reference(a, b),))


def _has_mid(h):
    return (h[1] >= -1.0) & (h[0] < 1.0)


def _inside(h1, h2):
    return v_add(v_sqr(h1), v_sqr(h2))[0] <= 1.0


class TestLazyBranches:
    """_piecewise evaluates a branch only on the lanes where its guard holds,
    and each corner branch that reads a segment integral calls _segment on
    exactly its own lanes; bit for bit, _segment, _corner and v_D_pair equal
    the eager compositions, on batches where a branch has no lane, every
    lane, or lanes that only one of two guards selects, and on one-lane
    inputs."""

    @staticmethod
    def _assert_segments_and_corner(h1, h2):
        guards = _corner_guards_reference(h1, h2)
        # in case order: seg2 reads B(h2), seg1 B(h1), both B(h1) and B(h2)
        want = [(h[0][guards[name]], h[1][guards[name]])
                for name, hs in (("seg2", (h2,)), ("seg1", (h1,)), ("both", (h1, h2)))
                if guards[name].any() for h in hs]
        segment, calls = interval._segment, []

        def spy(h):
            calls.append(h)
            return segment(h)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(interval, "_segment", spy)
            got = _corner(_Axis(h1, v_sqr(h1)), _Axis(h2, v_sqr(h2)))
        _assert_same_bits(got, _v_C_pair_reference(h1, h2))
        # each call gets the guard lanes of its branch, taken out of the
        # batch, and never the batch itself
        assert len(calls) == len(want)
        _assert_same_bits(calls, want)
        for h in calls:
            assert not any(np.shares_memory(end, whole) for end in h for whole in (*h1, *h2))
        for h in (h1, h2):
            _assert_same_bits(_segment(h), _v_B_pair_reference(h))

    def test_no_lane_inside_the_disk(self):
        rng = np.random.default_rng(251)
        n = 2000
        sign = rng.choice([-1.0, 1.0], (2, n))
        h1 = _boxes(rng, sign[0] * rng.uniform(1.2, 3.0, n), n, 0.1)
        h2 = _boxes(rng, sign[1] * rng.uniform(-1.5, 3.0, n), n, 0.1)
        assert not _inside(h1, h2).any()
        self._assert_segments_and_corner(h1, h2)

    def test_every_lane_inside_the_disk(self):
        rng = np.random.default_rng(257)
        n = 2000
        h1 = _boxes(rng, rng.uniform(-0.6, 0.5, n), n, 0.1)
        h2 = _boxes(rng, rng.uniform(-0.6, 0.5, n), n, 0.1)
        assert _inside(h1, h2).all() and _has_mid(h1).all() and _has_mid(h2).all()
        self._assert_segments_and_corner(h1, h2)

    def test_inside_lanes_without_a_mid_segment(self):
        # h lo = 1 + 2^-52 rounds s[0] down to exactly 1.0: the corner's
        # inside guard holds where the axis's has_mid does not
        one_up = math.nextafter(1.0, 2.0)
        h1 = (np.array([one_up, one_up, 0.3]), np.array([one_up, 1.5, 0.4]))
        h2 = (np.array([0.0, -1e-20, 0.2]), np.array([0.0, 1e-20, 0.2]))
        assert list(_inside(h1, h2) & ~_has_mid(h1)) == [True, True, False]
        self._assert_segments_and_corner(h1, h2)
        # the same lanes reached through v_D_pair: x1 = (1 - a) / R with
        # a = -k 2^-52, y1 = 0
        k = np.arange(-4.0, 5.0)
        a = (-k * 2.0 ** -52,) * 2
        b = (np.ones_like(k),) * 2
        R = (np.ones_like(k),) * 2
        x1 = v_div(v_sub(_V_ONE, a), R)
        y1 = v_div(v_sub(_V_ONE, b), R)
        assert (_inside(x1, y1) & ~_has_mid(x1)).any()
        _assert_same_bits(v_D_pair(a, b, R), _v_D_pair_reference(a, b, R))

    def test_scalar_inputs(self):
        rng = np.random.default_rng(263)
        n = 64
        a = _boxes(rng, rng.uniform(-1.5, 2.5, n), n, 1e-3)
        b = _boxes(rng, rng.uniform(-1.5, 2.5, n), n, 1e-3)
        R = _boxes(rng, rng.uniform(0.2, 2.0, n), n, 0.05)
        batch = v_D_pair(a, b, R)
        h1 = v_div(v_sub(_V_ONE, a), R)
        h2 = v_div(v_neg(b), R)
        for k in range(n):
            lane = slice(k, k + 1)
            a_k, b_k, R_k = ((iv[0][lane], iv[1][lane]) for iv in (a, b, R))
            got = v_D_pair(a_k, b_k, R_k)
            _assert_same_bits(got, _v_D_pair_reference(a_k, b_k, R_k))
            _assert_same_bits(got, [(d[0][lane], d[1][lane]) for d in batch])
            self._assert_segments_and_corner((h1[0][lane], h1[1][lane]),
                                             (h2[0][lane], h2[1][lane]))

    def test_v_A1_sees_only_the_lanes_that_need_it(self, monkeypatch):
        # one stride-5 chunk of the net: v_g1 needs all lanes 8 times, each
        # _segment call (seg1 and both read B(h1), seg2 and both B(h2)) once
        # on the has_mid lanes it gets, and each corner's inside branch its
        # inside lanes 4 times; the sector formula on every has_mid lane
        # would be more, and every branch on every lane 8 + 4 + 16 = 28
        # times all lanes
        from sweepcvrp import netverify

        i, j = netverify._scan_pairs(5, 0, netverify._BATCH_POINTS)
        a = (netverify.grid_coord(i),) * 2
        b = (netverify.grid_coord(j),) * 2
        R = v_mul(v_g1(a, b), (0.75, 0.75))
        xs = (v_div(v_sub(_V_ONE, a), R), v_div(v_neg(a), R))
        ys = (v_div(v_sub(_V_ONE, b), R), v_div(v_neg(b), R))
        mid_calls = inside = 0
        for x in xs:
            for y in ys:
                guards = _corner_guards_reference(x, y)
                for name, h in (("seg2", y), ("seg1", x), ("both", x), ("both", y)):
                    mid_calls += int((guards[name] & _has_mid(h)).sum())
                inside += int(guards["inside"].sum())
        mid = sum(int(_has_mid(h).sum()) for h in xs + ys)
        assert 0 < mid_calls < mid and inside > 0
        need = 8 * i.size + mid_calls + 4 * inside

        real = interval.v_A1
        lanes = []

        def counting(p, q, hyp):
            lanes.append(np.broadcast(*p.a, *q).size)
            return real(p, q, hyp)

        monkeypatch.setattr(interval, "v_A1", counting)
        v_g_all(a, b)
        assert sum(lanes) == need < 28 * i.size


# --- the whole kernel against the eager composition --------------------------------

def _v_g_all_reference(a, b):
    """v_g_all as the eager composition: every branch of every corner on
    every lane, and every triangle term with its own legs and hypotenuse."""
    g1 = _v_g1_reference(a, b)
    R = v_mul(g1, _V_THREE_QUARTERS)
    d0, d1 = _v_D_pair_reference(a, b, R)
    r2 = v_sqr(R)
    r3 = v_mul(r2, R)
    return g1, v_add(v_sub(R, v_mul(r3, d0)), v_mul(r3, d1)), v_sub(_V_ONE, v_mul(r2, d0))


def _assert_lane_bits(got, ref):
    """Both ends of g1, g2 and g3 equal the reference's lane for lane, bit
    for bit (NaN payloads and signed zeros included)."""
    for k, (g, r) in enumerate(zip(got, ref), start=1):
        for end, g_end, r_end in zip(("lo", "hi"), g, r):
            assert np.shape(g_end) == np.shape(r_end), (k, end)
            g_bits = np.asarray(g_end, dtype=np.float64).view(np.uint64)
            r_bits = np.asarray(r_end, dtype=np.float64).view(np.uint64)
            lanes = np.flatnonzero(g_bits != r_bits)
            assert lanes.size == 0, (f"g{k} {end}: {lanes.size} lanes differ, first "
                                     f"{lanes[0]}: {g_end.flat[lanes[0]]!r} != {r_end.flat[lanes[0]]!r}")


@np.errstate(all="ignore")
def _check_against_eager(a, b):
    ref = _v_g_all_reference(a, b)
    _assert_lane_bits(v_g_all(a, b), ref)
    return ref


class TestSameBitsAsEager:
    """v_g_all computes only what its results read (segment integrals on the
    lanes a corner reads, each leg's terms once, v_A1's fallback on its
    failing lanes), and still equals the eager composition bit for bit."""

    def test_one_stride_5_chunk(self):
        from sweepcvrp import netverify

        i, j = netverify._scan_pairs(5, 0, netverify._BATCH_POINTS)
        assert i.size == netverify._BATCH_POINTS
        _check_against_eager((netverify.grid_coord(i),) * 2, (netverify.grid_coord(j),) * 2)

    def test_straddling_far_and_nan_boxes(self):
        rng = np.random.default_rng(311)
        n = 4000
        # boxes across 0 and 1 (sign-straddling h and triangle legs), narrow
        # and wide, and far boxes whose cubic terms overflow
        a = _boxes(rng, rng.uniform(-1.5, 2.5, n), n, 1.5)
        b = _boxes(rng, rng.uniform(-1.5, 2.5, n), n, 1.5)
        special = np.array([1e6, -1e6, 1e103, 1e150, -1e150, math.inf, -math.inf,
                            math.nan, 0.5, 0.0, -0.0, 1.0, 5e-324])
        sa, sb = (x.ravel() for x in np.meshgrid(special, special))
        a = (np.concatenate([a[0], sa, np.minimum(sa, sb)]),
             np.concatenate([a[1], sa, np.maximum(sa, sb)]))
        b = (np.concatenate([b[0], sb, -np.abs(sa)]), np.concatenate([b[1], sb, np.abs(sb)]))
        ref = _check_against_eager(a, b)
        ends = np.concatenate([end for g in ref for end in g])
        assert np.isnan(ends).any() and np.isinf(ends).any()

    @np.errstate(all="ignore")
    def test_one_lane_inputs(self):
        rng = np.random.default_rng(313)
        n = 24
        a = _boxes(rng, rng.uniform(-1.5, 2.5, n), n, 0.5)
        b = _boxes(rng, rng.uniform(-1.5, 2.5, n), n, 0.5)
        batch = v_g_all(a, b)
        for k in range(n):
            lane = slice(k, k + 1)
            a_k, b_k = ((iv[0][lane], iv[1][lane]) for iv in (a, b))
            _check_against_eager(a_k, b_k)
            _assert_lane_bits(v_g_all(a_k, b_k), [(g[0][lane], g[1][lane]) for g in batch])

    def test_every_corner_meets_every_case(self):
        # depots in and around the square, as points and as boxes up to 2
        # wide: each corner meets each of its five cases, lanes where
        # several cases hold, and the sector formula read through seg1,
        # seg2 and both
        points = np.array([-3.0, -1.0, -0.2, 0.0, 0.1, 0.5, 0.8, 0.9, 1.0, 1.2, 2.0, 4.0])
        lo_a, lo_b, width = (x.ravel() for x in np.meshgrid(
            points, points, [0.0, 1e-3, 0.3, 2.0], indexing="ij"))
        a, b = (lo_a, lo_a + width), (lo_b, lo_b + width)
        g1 = _check_against_eager(a, b)[0]
        R = v_mul(g1, _V_THREE_QUARTERS)
        for x in (v_div(v_sub(_V_ONE, a), R), v_div(v_neg(a), R)):
            for y in (v_div(v_sub(_V_ONE, b), R), v_div(v_neg(b), R)):
                guards = _corner_guards_reference(x, y)
                assert all(mask.any() for mask in guards.values())
                assert (sum(mask.astype(int) for mask in guards.values()) >= 2).any()
                assert (guards["seg1"] & _has_mid(x)).any() and (guards["seg2"] & _has_mid(y)).any()
                assert (guards["both"] & _has_mid(x)).any() and (guards["both"] & _has_mid(y)).any()
