import math

import numpy as np
import pytest

from sweepcvrp.bruteforce import tsp_brute_force
from sweepcvrp.geometry import Point, dist
from sweepcvrp.tsp import (
    _IMPROVE_EPS,
    _nearest_neighbor,
    _two_opt,
    cycle_length,
    tsp_dispatch,
    tsp_exact,
    tsp_heuristic,
)

from helpers import random_points

SQUARE = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]


class TestExact:
    def test_single_point(self):
        res = tsp_exact([Point(2, 3)])
        assert res.length == 0.0
        assert res.certified_optimal

    def test_out_and_back(self):
        res = tsp_exact([Point(0, 0), Point(0, 3)])
        assert res.length == pytest.approx(6.0, abs=1e-12)

    def test_unit_square(self):
        res = tsp_exact(SQUARE)
        assert res.length == pytest.approx(4.0, abs=1e-9)
        assert res.length == pytest.approx(tsp_brute_force(SQUARE), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = int(rng.integers(0, 9))
            pts = random_points(rng, n)
            res = tsp_exact(pts)
            assert res.length == pytest.approx(tsp_brute_force(pts), abs=1e-9)
            assert res.certified_optimal
            assert res.length == pytest.approx(cycle_length(pts, res.order),
                                               rel=1e-9, abs=1e-9)
            assert sorted(res.order) == list(range(n))

    def test_rejects_oversize(self):
        pts = random_points(np.random.default_rng(0), 15)
        with pytest.raises(ValueError, match="exceeds exact threshold"):
            tsp_exact(pts)


class TestHeuristic:
    def test_unit_square_reaches_optimum(self):
        res = tsp_heuristic(SQUARE, seed=0)
        assert res.length == pytest.approx(4.0, abs=1e-9)
        assert not res.certified_optimal

    def test_tiny_inputs_equal_exact(self):
        rng = np.random.default_rng(29)
        for n in (0, 1, 2, 3):
            pts = random_points(rng, n)
            h = tsp_heuristic(pts, seed=5)
            e = tsp_exact(pts)
            assert h.length == pytest.approx(e.length, abs=1e-12)

    def test_within_factor_of_exact(self):
        rng = np.random.default_rng(31)
        pts = random_points(rng, 10)
        h = tsp_heuristic(pts, seed=42)
        e = tsp_exact(pts)
        assert h.length <= 1.25 * e.length + 1e-9

    def test_never_below_exact(self):
        rng = np.random.default_rng(37)
        for trial in range(25):
            n = int(rng.integers(4, 12))
            pts = random_points(rng, n)
            h = tsp_heuristic(pts, seed=trial)
            e = tsp_exact(pts)
            assert h.length >= e.length - 1e-9

    def test_two_opt_local_optimum(self):
        rng = np.random.default_rng(41)
        pts = random_points(rng, 30)
        res = tsp_heuristic(pts, seed=3)
        order = list(res.order)
        n = len(order)
        # full scan: no 2-opt move may strictly improve
        for i in range(n - 1):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                a, b = pts[order[i]], pts[order[i + 1]]
                c, d = pts[order[j]], pts[order[(j + 1) % n]]
                delta = dist(a, c) + dist(b, d) - dist(a, b) - dist(c, d)
                assert delta >= -1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        pts = random_points(rng, 60)
        r1 = tsp_heuristic(pts, seed=9)
        r2 = tsp_heuristic(pts, seed=9)
        assert r1.order == r2.order
        assert r1.length == r2.length


class TestInvariance:
    @staticmethod
    def _transform(pts, angle, dx, dy):
        c, s = math.cos(angle), math.sin(angle)
        return [Point(c * p.x - s * p.y + dx, s * p.x + c * p.y + dy) for p in pts]

    def test_exact_rigid_motion(self):
        rng = np.random.default_rng(47)
        pts = random_points(rng, 9)
        base = tsp_exact(pts).length
        for angle, dx, dy in [(0.7, 2, -1), (2.1, -5, 0.3), (math.pi, 0, 0)]:
            moved = self._transform(pts, angle, dx, dy)
            assert tsp_exact(moved).length == pytest.approx(base, abs=1e-9)

    def test_heuristic_translation(self):
        rng = np.random.default_rng(53)
        pts = random_points(rng, 25)
        base = tsp_heuristic(pts, seed=1).length
        moved = [Point(p.x + 10, p.y - 4) for p in pts]
        assert tsp_heuristic(moved, seed=1).length == pytest.approx(base, abs=1e-9)

    def test_heuristic_rotation(self):
        rng = np.random.default_rng(57)
        pts = random_points(rng, 25)
        base = tsp_heuristic(pts, seed=2).length
        for angle in (0.35, 1.9):
            rotated = self._transform(pts, angle, 0, 0)
            assert tsp_heuristic(rotated, seed=2).length == pytest.approx(base, abs=1e-9)


class TestDispatch:
    def test_auto_small_certified(self):
        pts = random_points(np.random.default_rng(59), 5)
        assert tsp_dispatch(pts, "auto").certified_optimal

    def test_auto_large_not_certified(self):
        pts = random_points(np.random.default_rng(61), 100)
        assert not tsp_dispatch(pts, "auto").certified_optimal

    def test_exact_oversize_errors(self):
        pts = random_points(np.random.default_rng(67), 100)
        with pytest.raises(ValueError, match="exceeds exact threshold"):
            tsp_dispatch(pts, "exact")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown tsp mode"):
            tsp_dispatch([], "fastest")


def _two_opt_reference(pts: np.ndarray, tour: np.ndarray) -> np.ndarray:
    """The 2-opt kernel that rebuilds the tour coordinates and evaluates all
    four edge lengths at every step; _two_opt must take the same moves."""
    n = len(tour)
    if n < 4:
        return tour
    improved = True
    while improved:
        improved = False
        i = 0
        while i < n - 2:
            tx = pts[tour, 0]
            ty = pts[tour, 1]
            a_x, a_y = tx[i], ty[i]
            b_x, b_y = tx[i + 1], ty[i + 1]
            d_ab = np.hypot(a_x - b_x, a_y - b_y)
            jmax = n - 1 if i > 0 else n - 2
            js = np.arange(i + 2, jmax + 1)
            c_x, c_y = tx[js], ty[js]
            nx = np.where(js + 1 < n, js + 1, 0)
            dn_x, dn_y = tx[nx], ty[nx]
            delta = (
                np.hypot(a_x - c_x, a_y - c_y)
                + np.hypot(b_x - dn_x, b_y - dn_y)
                - d_ab
                - np.hypot(c_x - dn_x, c_y - dn_y)
            )
            hits = np.nonzero(delta < -_IMPROVE_EPS)[0]
            if hits.size:
                j = int(js[hits[0]])
                tour[i + 1 : j + 1] = tour[i + 1 : j + 1][::-1]
                improved = True
            else:
                i += 1
    return tour


def _kernel_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(71)
    cases = {f"random-{n}": rng.random((n, 2)) for n in (4, 5, 17, 64, 300)}
    base = rng.random((12, 2))
    cases["duplicates"] = np.vstack([base, base[:7], base[3:5]])
    t = rng.permutation(25) / 24.0
    cases["collinear"] = np.column_stack([0.2 + 0.5 * t, 0.1 + 0.3 * t])
    cases["all-equal"] = np.full((9, 2), 0.375)
    # Collinear at coordinate scale 1e4: the rounding noise of an edge length
    # is near _IMPROVE_EPS, so which moves are taken depends on the last bit
    # of every delta.
    far = np.random.default_rng(1)
    u = far.normal(size=2)
    u /= np.hypot(*u)
    cases["collinear-far"] = np.outer(far.random(30) * 1e4, u)
    return cases


KERNEL_CASES = _kernel_cases()


class TestTwoOptKernel:
    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_same_tours_as_reference(self, name):
        pts = KERNEL_CASES[name]
        n = len(pts)
        moved = False
        for start in sorted({0, 1, n // 2, n - 1}):
            nn = _nearest_neighbor(pts, start)
            expected = _two_opt_reference(pts, nn.copy())
            got = _two_opt(pts, nn.copy())
            assert np.array_equal(got, expected), start
            moved |= not np.array_equal(expected, nn)
        if n >= 17 and name.startswith("random"):
            assert moved  # the comparison covers tours that 2-opt changed
