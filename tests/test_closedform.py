import math

import mpmath as mp
import numpy as np
import pytest
from test_interval import mp_g

from sweepcvrp.closedform import (
    choose_radius,
    fn_A,
    fn_B,
    fn_C,
    fn_D,
    g1,
    g2,
    g3,
    g_all,
)

CENTER_G1 = (math.sqrt(2) + math.log(1 + math.sqrt(2))) / 6


class TestFnA:
    def test_zero_a(self):
        assert fn_A(1, 0.0, 5.0) == 0.0

    def test_unit_triangle_matches_quadrature(self):
        # independent oracle: integrate sqrt(x^2+y^2) over 0 <= y <= x <= 1
        mp.mp.dps = 30
        quad = mp.quad(
            lambda x: mp.quad(lambda y: mp.sqrt(x * x + y * y), [0, x]), [0, 1]
        )
        assert fn_A(1, 1.0, 1.0) == pytest.approx(float(quad), abs=1e-12)
        assert fn_A(1, 1.0, 1.0) == pytest.approx(CENTER_G1, abs=1e-15)

    def test_area_case(self):
        assert fn_A(0, 2.0, 3.0) == 3.0

    def test_odd_symmetry(self):
        rng = np.random.default_rng(151)
        for _ in range(50):
            a, b = rng.uniform(-3, 3, size=2)
            assert fn_A(1, -a, b) == pytest.approx(-fn_A(1, a, b), rel=1e-12)
            assert fn_A(1, a, -b) == pytest.approx(-fn_A(1, a, b), rel=1e-12)


class TestFnB:
    def test_half_disk(self):
        assert fn_B(0, 0.0) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_full_disk_radius_moment(self):
        assert fn_B(1, 1.0) == pytest.approx(2 * math.pi / 3, abs=1e-14)

    def test_empty_segment(self):
        assert fn_B(0, -1.0) == pytest.approx(0.0, abs=1e-14)
        assert fn_B(0, -1.0000001) == 0.0

    def test_matches_segment_area(self):
        # area of {x <= h} in the unit disk by the classical formula
        for h in (-0.9, -0.5, -0.1, 0.2, 0.7, 0.95):
            area = math.pi - (math.acos(h) - h * math.sqrt(1 - h * h))
            assert fn_B(0, h) == pytest.approx(area, abs=1e-12)


class TestFnC:
    def test_whole_disk(self):
        assert fn_C(0, 2.0, 2.0) == pytest.approx(math.pi, abs=1e-14)

    def test_quarter_disk(self):
        assert fn_C(0, 0.0, 0.0) == pytest.approx(math.pi / 4, abs=1e-14)

    def test_empty(self):
        assert fn_C(0, -2.0, -2.0) == 0.0

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(157)
        pts = rng.uniform(-1, 1, size=(400_000, 2))
        inside = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 1.0]
        for h1, h2 in [(-0.4, 0.9), (0.3, 0.5), (0.8, 0.8), (-0.2, -0.3), (1.5, -0.7)]:
            mask = (inside[:, 0] <= h1) & (inside[:, 1] <= h2)
            mc_area = 4.0 * mask.sum() / len(pts)
            se = 4.0 * math.sqrt(mask.mean() * (1 - mask.mean()) / len(pts))
            assert abs(fn_C(0, h1, h2) - mc_area) <= 5 * se + 1e-6


class TestFnD:
    def test_interior_disk_area(self):
        assert fn_D(0, 0.5, 0.5, 0.5) == pytest.approx(math.pi, abs=1e-12)

    def test_interior_disk_radius_moment(self):
        # integral of d over a radius-R disk is 2 pi R^3 / 3, so D1 = 2 pi / 3
        assert fn_D(1, 0.5, 0.5, 0.5) == pytest.approx(2 * math.pi / 3, abs=1e-12)

    def test_disjoint_disk(self):
        assert fn_D(0, 8.0, -3.0, 1.5) == 0.0
        assert fn_D(1, -2.0, 0.5, 0.25) == 0.0

    def test_r_validation(self):
        with pytest.raises(ValueError):
            fn_D(0, 0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            fn_D(0, 0.5, 0.5, -1.0)


class TestG:
    def test_center_constant(self):
        assert abs(g1(0.5, 0.5) - CENTER_G1) <= 1e-12

    def test_corner_constant(self):
        assert abs(g1(0.0, 0.0) - 2 * CENTER_G1) <= 1e-12

    def test_center_g2_g3_analytic(self):
        R = 0.75 * CENTER_G1
        assert g2(0.5, 0.5) == pytest.approx(R - math.pi * R ** 3 / 3, abs=1e-12)
        assert g3(0.5, 0.5) == pytest.approx(1 - math.pi * R * R, abs=1e-12)

    def test_choose_radius_examples(self):
        assert choose_radius(0.5, 0.5) == pytest.approx(0.2869483936740798, abs=1e-12)
        assert choose_radius(0.0, 0.0) == pytest.approx(0.5738967873481595, abs=1e-12)

    def test_far_field_identities(self):
        far = [(10.0, 10.0), (-5.0, 0.5), (0.5, -8.0), (1 + 3 * math.sqrt(2), 0.5),
               (-4.0, -4.0), (0.2, 7.0)]
        for a, b in far:
            v1, v2, v3, R = g_all(a, b)
            assert abs(v2 - 0.75 * v1) <= 1e-12
            assert v3 == 1.0
            assert R == 0.75 * v1

    def test_square_symmetries(self):
        rng = np.random.default_rng(163)
        for _ in range(40):
            a, b = rng.uniform(-1, 2, size=2)
            base = (g1(a, b), g2(a, b), g3(a, b))
            images = [
                (b, a), (1 - a, b), (a, 1 - b), (1 - a, 1 - b),
                (1 - b, 1 - a), (b, 1 - a), (1 - b, a),
            ]
            for aa, bb in images:
                assert g1(aa, bb) == pytest.approx(base[0], abs=1e-12)
                assert g2(aa, bb) == pytest.approx(base[1], abs=1e-12)
                assert g3(aa, bb) == pytest.approx(base[2], abs=1e-12)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(167)
        n = 1_000_000
        for _ in range(8):
            a, b = rng.uniform(-1, 2, size=2)
            v = rng.random((n, 2))
            d = np.hypot(v[:, 0] - a, v[:, 1] - b)
            v1, v2, v3, R = g_all(a, b)
            se1 = d.std() / math.sqrt(n)
            assert abs(v1 - d.mean()) <= 4 * se1
            clipped = np.minimum(d, R)
            se2 = clipped.std() / math.sqrt(n)
            assert abs(v2 - clipped.mean()) <= 4 * se2
            p = float((d > R).mean())
            se3 = max(math.sqrt(p * (1 - p) / n), 1.0 / n)
            assert abs(v3 - p) <= 4 * se3

    def test_lambda_identity_axis_aligned(self):
        # g3 = 1 - disk measure for configurations with known geometry
        v1, v2, v3, R = g_all(0.5, 0.5)
        assert 1 - v3 == pytest.approx(math.pi * R * R, abs=1e-12)  # interior
        v1, v2, v3, R = g_all(0.0, 0.5)  # centered on the left edge
        assert 1 - v3 == pytest.approx(math.pi * R * R / 2, abs=1e-12)
        v1, v2, v3, R = g_all(0.0, 0.0)  # corner: quarter disk
        assert 1 - v3 == pytest.approx(math.pi * R * R / 4, abs=1e-12)

    def test_lipschitz_bounds(self):
        rng = np.random.default_rng(173)
        lip3 = 3 + math.sqrt(2)
        for _ in range(300):
            a, b = rng.uniform(-2, 3, size=2)
            angle = rng.uniform(0, 2 * math.pi)
            step = rng.uniform(0, 0.1)
            a2 = a + step * math.cos(angle)
            b2 = b + step * math.sin(angle)
            d = math.hypot(a2 - a, b2 - b)
            assert abs(g1(a2, b2) - g1(a, b)) <= d + 1e-9
            assert abs(g2(a2, b2) - g2(a, b)) <= d + 1e-9
            assert abs(g3(a2, b2) - g3(a, b)) <= lip3 * d + 1e-9


class TestFarDepots:
    """Far from the square the eight cubic triangle terms of g1 cancel; g1
    stays accurate to 1e-12 relative up to the 1e150 coordinate bound."""

    @pytest.mark.parametrize("a, b", [
        (1e3, 0.5), (1e10, 0.5), (1e100, 0.5), (1e149, 0.5),
        (-1e10, 1e10), (0.5, -1e149), (-1e149, 1e149), (9.0, 0.5), (-7.0, -0.5),
    ])
    def test_matches_high_precision_reference(self, a, b):
        # the reference cancels too, so it needs 2 log10|O| digits more
        digits = 30 + 2 * max(0, round(math.log10(max(abs(a), abs(b)))))
        with mp.workdps(digits):
            ref = mp_g(a, b)
        v1, v2, v3, R = g_all(a, b)
        assert abs(v1 - ref[0]) <= 1e-12 * ref[0]
        assert abs(v2 - ref[1]) <= 1e-12 * ref[1]
        assert v3 == 1.0 and R == 0.75 * v1 > 0.0

    def test_net_points_keep_the_closed_form(self):
        # every net point lies within distance 6 of the square, so g1 there
        # is still the sum of the eight triangle terms, bit for bit
        grid = [0.5 + 0.002 * i for i in range(0, 2372, 79)] + [5.242]
        for a in grid:
            for b in grid:
                terms = (fn_A(1, a, b), fn_A(1, b, a), fn_A(1, b, 1.0 - a),
                         fn_A(1, 1.0 - a, b), fn_A(1, 1.0 - a, 1.0 - b),
                         fn_A(1, 1.0 - b, 1.0 - a), fn_A(1, 1.0 - b, a),
                         fn_A(1, a, 1.0 - b))
                assert g1(a, b) == math.fsum(terms)
