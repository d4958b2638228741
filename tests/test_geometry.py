import ast
import io
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import sweepcvrp.geometry
from sweepcvrp.geometry import (
    MAX_COORD,
    Instance,
    Point,
    Solution,
    Tour,
    as_xy,
    check_coordinates,
    check_feasible,
    diameter,
    dist,
    load_instance,
    output_file,
    polar_angle,
    read_instance,
    save_instance,
    sweep_sort,
    tour_length,
    unit_scale,
    write_instance,
)
from sweepcvrp.bounds import choose_R, compute_bounds
from sweepcvrp.bruteforce import cvrp_brute_force, tsp_brute_force
from sweepcvrp.experiments import ExperimentConfig, gen_instance, run_ratio_experiment, solve
from sweepcvrp.group_cvrp import (SolveConfig, cvrp_group_heuristic, solve_group,
                                  split_tour_sequence)
from sweepcvrp.tsp import tsp_heuristic

from helpers import SCALE_EXPONENTS, random_points, scaled_instance, shuffled_edge_sum


def _points(xy):
    return [Point(float(x), float(y)) for x, y in xy]


def _all_pairs_diameter(pts):
    """sqrt of the largest dx*dx + dy*dy over all pairs, one row at a time."""
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    best = 0.0
    for i in range(len(pts) - 1):
        dx = xs[i] - xs[i + 1 :]
        dy = ys[i] - ys[i + 1 :]
        best = max(best, float((dx * dx + dy * dy).max()))
    return math.sqrt(best)


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[Point]:
    """Convex hull in counterclockwise order (Andrew's monotone chain).

    Collinear points on the hull boundary are dropped. Degenerate inputs
    (all points equal or collinear) yield hulls of size 1 or 2. The hull
    lists the points, in any pair form, as float Points; a coordinate that
    fails check_coordinates raises ValueError (NaN has no order to sort by).
    The orientation tests run on the points at unit scale (unit_scale),
    where their products neither underflow nor overflow.
    """
    pts = sorted(set(map(Point._make, check_coordinates(points).tolist())))
    if len(pts) <= 2:
        return pts
    at = unit_scale(as_xy(pts))[0].tolist()
    lower: list[int] = []
    upper: list[int] = []
    for chain, ids in ((lower, range(len(pts))), (upper, range(len(pts) - 1, -1, -1))):
        for i in ids:
            while len(chain) >= 2 and _cross(at[chain[-2]], at[chain[-1]], at[i]) <= 0:
                chain.pop()
            chain.append(i)
    return [pts[i] for i in lower[:-1] + upper[:-1]]


def _hull_diameter(points):
    """diameter before the extreme-point prefilter: the same maximum over
    the pairs of convex_hull's vertices, at the hull's unit scale."""
    hull, e = unit_scale(as_xy(convex_hull(points)))
    xs, ys = hull[:, 0], hull[:, 1]
    best = 0.0
    for i in range(len(hull) - 1):
        dx = xs[i + 1 :] - xs[i]
        dy = ys[i + 1 :] - ys[i]
        best = max(best, float(np.max(dx * dx + dy * dy)))
    return math.ldexp(math.sqrt(best), e)


def _kept(pts):
    """The points diameter's prefilter keeps, at unit scale."""
    xy = unit_scale(as_xy(pts))[0]
    return xy[~sweepcvrp.geometry._inside(xy)]


class TestPolarAngle:
    def test_positive_x_axis(self):
        assert polar_angle(Point(1, 0), Point(0, 0)) == 0.0

    def test_positive_y_axis(self):
        assert polar_angle(Point(0, 1), Point(0, 0)) == pytest.approx(math.pi / 2)

    def test_third_quadrant(self):
        assert polar_angle(Point(-1, -1), Point(0, 0)) == pytest.approx(5 * math.pi / 4)

    def test_degenerate_terminal_at_depot(self):
        assert polar_angle(Point(2, 3), Point(2, 3)) == 0.0

    def test_range(self):
        rng = np.random.default_rng(7)
        depot = Point(0.3, -0.2)
        for _ in range(500):
            p = Point(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            a = polar_angle(p, depot)
            assert 0.0 <= a < 2 * math.pi


class TestSweepSort:
    def test_basic_order(self):
        inst = Instance(
            terminals=(Point(0, 1), Point(1, 0), Point(-1, 0)),
            depot=Point(0, 0), capacity=1,
        )
        order = sweep_sort(inst)
        assert [inst.terminals[i] for i in order] == [
            Point(1, 0), Point(0, 1), Point(-1, 0)
        ]

    def test_tie_broken_by_radius(self):
        inst = Instance(
            terminals=(Point(2, 2), Point(1, 1)), depot=Point(0, 0), capacity=1
        )
        assert sweep_sort(inst) == [1, 0]

    def test_empty(self):
        inst = Instance(terminals=(), depot=Point(0, 0), capacity=1)
        assert sweep_sort(inst) == []

    def test_permutation_and_monotone_angles(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pts = tuple(Point(float(x), float(y))
                        for x, y in rng.uniform(-1, 1, size=(n, 2)))
            inst = Instance(terminals=pts, depot=Point(0.1, 0.1), capacity=1)
            order = sweep_sort(inst)
            assert sorted(order) == list(range(n))
            angles = [polar_angle(pts[i], inst.depot) for i in order]
            assert all(a <= b for a, b in zip(angles, angles[1:]))


def _old_sweep_sort(instance):
    """sweep_sort as it was before Instance.depot_distances, verbatim: the
    reference order."""
    depot = instance.depot
    return sorted(
        range(instance.n),
        key=lambda i: (
            polar_angle(instance.terminals[i], depot),
            dist(depot, instance.terminals[i]),
            i,
        ),
    )


class TestDepotDistances:
    """Instance.depot_distances is the one home of a terminal's depot distance."""

    def test_bits_in_every_form_and_scale(self):
        base = gen_instance(40, 4, Point(0.4, 0.55), 3)
        for e in SCALE_EXPONENTS:
            inst = scaled_instance(base, e)
            xy = np.array(inst.terminals)
            forms = {"Point": (inst.terminals, inst.depot),
                     "tuple": (tuple(map(tuple, inst.terminals)), tuple(inst.depot)),
                     "ndarray": (xy, np.array(inst.depot))}
            for name, (terminals, depot) in forms.items():
                built = Instance(terminals=terminals, depot=depot, capacity=4)
                got = built.depot_distances
                assert type(got) is tuple and len(got) == 40, name
                assert all(type(d) is float for d in got), name
                assert [d.hex() for d in got] == \
                    [dist(depot, v).hex() for v in terminals], (name, e)
                assert [d.hex() for d in got] == \
                    [dist(built.depot, v).hex() for v in built.terminals], (name, e)
                assert built.depot_distances is got  # computed once

    def test_empty(self):
        assert Instance(terminals=(), depot=Point(0, 0), capacity=1).depot_distances == ()

    def test_sweep_sort_keeps_the_old_order(self):
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(30):
            n = int(rng.integers(1, 60))
            cases.append((_points(rng.uniform(-1, 1, size=(n, 2))),
                          Point(*map(float, rng.uniform(-0.5, 0.5, size=2)))))
        # co-located terminals, and terminals on one ray at several radii
        places = _points(rng.random((4, 2)))
        cases.append(([places[i % 4] for i in range(30)], Point(0.5, 0.5)))
        cases.append(([Point(0.1 * i, 0.1 * i) for i in (3, 1, 2, 1, 3)], Point(0, 0)))
        # the depot on a terminal, alone and among copies
        pts = _points(rng.random((20, 2)))
        cases.append((pts, pts[7]))
        cases.append(([pts[0], *pts[:5], pts[0]], pts[0]))
        for terminals, depot in cases:
            inst = Instance(terminals=tuple(terminals), depot=depot, capacity=1)
            assert sweep_sort(inst) == _old_sweep_sort(inst)

    def test_one_home(self):
        """bounds does not import dist, and geometry computes a depot
        distance only in Instance.depot_distances."""
        src = Path(sweepcvrp.geometry.__file__).resolve().parent
        tree = ast.parse((src / "bounds.py").read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert "dist" not in imported
        geometry = (src / "geometry.py").read_text(encoding="utf-8")
        assert geometry.count("dist(self.depot") == 1
        home = re.search(r"\n    def depot_distances\(.*?\n(?=\n)", geometry, re.S)
        assert "dist(self.depot" in home.group(0)
        rest = geometry.replace(home.group(0), "")
        assert not re.search(r"dist\((self\.|instance\.)?depot", rest)


class TestDiameter:
    def test_empty_is_zero(self):
        assert diameter([]) == 0.0

    def test_singleton_is_zero(self):
        assert diameter([Point(3, 4)]) == 0.0

    def test_unit_square_corners(self):
        corners = [Point(0, 0), Point(0, 1), Point(1, 0), Point(1, 1)]
        assert diameter(corners) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_345_triangle(self):
        assert diameter([Point(0, 0), Point(3, 4)]) == 5.0

    def test_matches_all_pairs_scan_exactly(self):
        rng = np.random.default_rng(3)
        sets = [[Point(float(x), float(y))
                 for x, y in rng.uniform(-2, 2, size=(int(n), 2))]
                for n in rng.integers(2, 121, size=40)]
        # both sides of the old 64 and 4096 size switches
        sets += [[Point(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(n, 2))]
                 for n in (64, 65, 4100)]
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(25, 2))]
        sets.append(pts * 3)  # duplicates
        t = rng.uniform(0, 1, size=50)
        sets.append([Point(0.1 + 0.3 * float(v), 0.7 - 0.9 * float(v)) for v in t])
        sets.append([Point(0.3, float(v)) for v in t])  # vertical line
        sets.append([Point(float(v), 0.3) for v in t] * 2)
        sets.append([Point(0.25, 0.75)] * 7)
        # squaring with `**2` (libm pow) put this one 1 ulp off the scan
        inst = gen_instance(14, 6, Point(0.5, 0.5), 1283)
        sets.append([*inst.terminals, inst.depot])
        for pts in sets:
            assert diameter(pts) == _all_pairs_diameter(pts)

    def test_exact_at_every_scale(self):
        # products of raw coordinates underflow: 1e-200 gave 0, 1e-160 lost
        # bits, and at 2**-900 the hull lost vertices
        assert diameter([Point(0, 0), Point(1e-200, 0)]) == 1e-200
        assert diameter([Point(0, 0), Point(0, 1e-160)]) == 1e-160
        rng = np.random.default_rng(7)
        xy = rng.uniform(-2, 2, size=(30, 2))
        d = diameter(_points(xy))
        for e in (-900, -560, -200, 30, 400):
            assert diameter(_points(np.ldexp(xy, e))) == math.ldexp(d, e)

    def test_prefilter_keeps_every_point_on_a_circle(self):
        t = np.linspace(0.0, 2 * math.pi, 97)[:-1]
        pts = _points(np.column_stack([0.5 + 0.25 * np.cos(t), 0.5 + 0.25 * np.sin(t)]))
        assert len(_kept(pts)) == 96
        assert diameter(pts) == _hull_diameter(pts) == _all_pairs_diameter(pts)

    def test_prefilter_margin(self):
        # the polygon is the square of the four axis points; a point drops
        # only when the rounded test puts it 2**-47 inside every edge
        square = [Point(0.5, 0.0), Point(0.0, 0.5), Point(-0.5, 0.0), Point(0.0, -0.5)]
        step = 2.0**-48  # moves the orientation test by 2**-48 per unit edge
        near = [Point(0.25 - step, 0.25 - step), Point(-0.25, -0.25),
                Point(0.25 - 3 * step, -0.25 + 3 * step), Point(0.0, 0.0)]
        kept = {tuple(p) for p in _kept(square + near).tolist()}
        assert kept == {*map(tuple, square), (0.25 - step, 0.25 - step), (-0.25, -0.25)}
        pts = square + near
        assert diameter(pts) == _hull_diameter(pts) == _all_pairs_diameter(pts) == 1.0

    def test_duplicated_extreme_points(self):
        rng = np.random.default_rng(11)
        inner = _points(rng.uniform(-0.3, 0.3, size=(200, 2)))
        corners = [Point(1.0, 0.0), Point(0.0, 1.0), Point(-1.0, 0.0), Point(0.0, -1.0)]
        pts = corners * 3 + inner + corners
        assert len(_kept(pts)) == 16  # the repeated vertices only
        assert diameter(pts) == _hull_diameter(pts) == _all_pairs_diameter(pts) == 2.0

    def test_lattice_with_tied_farthest_pairs(self):
        # both diagonals are farthest pairs, and every point of the
        # boundary is kept
        pts = [Point(float(i), float(j)) for i in range(9) for j in range(9)]
        assert len(_kept(pts)) == 32
        assert diameter(pts) == _hull_diameter(pts) == _all_pairs_diameter(pts) == math.sqrt(128)

    def test_prefilter_at_every_scale(self):
        xy = np.random.default_rng(13).uniform(-1, 1, size=(300, 2))
        d, kept = diameter(_points(xy)), _kept(_points(xy))
        for e in SCALE_EXPONENTS:
            pts = _points(np.ldexp(xy, e))
            assert diameter(pts) == _hull_diameter(pts) == math.ldexp(d, e), e
            assert np.array_equal(_kept(pts), kept), e

    def test_same_as_hull_diameter_on_benchmark_instances(self):
        # the instances of the benchmark's ratio_n1000 and exact_small
        for n, k, seeds in ((1000, 32, range(16)), (14, 6, range(20))):
            for seed in seeds:
                inst = gen_instance(n, k, Point(0.5, 0.5), seed)
                pts = [*inst.terminals, inst.depot]
                assert diameter(pts) == _hull_diameter(pts), (n, seed)

    def test_translation_and_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(30, 2))]
        d = diameter(pts)
        shuffled = [pts[i] for i in rng.permutation(30)]
        assert diameter(shuffled) == d
        moved = [Point(p.x + 3.5, p.y - 1.25) for p in pts]
        assert diameter(moved) == pytest.approx(d, abs=1e-9)

    def test_duplicates_and_collinear(self):
        assert diameter([Point(1, 1)] * 5) == 0.0
        line = [Point(float(i), float(2 * i)) for i in range(6)]
        assert diameter(line) == pytest.approx(5 * math.sqrt(5), abs=1e-12)


class TestConvexHull:
    def test_same_vertices_at_every_scale(self):
        # orientation products of raw coordinates underflow: at 1e-200 and
        # 2**-600 the hull kept 2 of its 8 vertices
        xy = np.random.default_rng(7).random((30, 2))
        hull = convex_hull(_points(xy))
        index = {p: i for i, p in enumerate(_points(xy))}
        assert len(hull) == 8
        for scale in (1e-200, 2.0 ** -600, 2.0 ** 400):
            pts = _points(xy * scale)
            scaled = convex_hull(pts)
            assert [pts.index(p) for p in scaled] == [index[p] for p in hull]
            assert all(type(p) is Point for p in scaled)

    def test_tiny_triangle_keeps_its_corners(self):
        pts = [Point(1e-300, 0.0), Point(0.0, 1e-300), Point(0.0, 0.0), Point(2e-301, 3e-301)]
        assert convex_hull(pts) == [Point(0.0, 0.0), Point(1e-300, 0.0), Point(0.0, 1e-300)]


class TestInstanceValidation:
    def test_capacity_lower(self):
        with pytest.raises(ValueError):
            Instance(terminals=(Point(0, 0),), depot=Point(1, 1), capacity=0)

    def test_capacity_upper(self):
        with pytest.raises(ValueError):
            Instance(terminals=(Point(0, 0),), depot=Point(1, 1), capacity=2)
        # n = 0 still allows k = 1
        Instance(terminals=(), depot=Point(1, 1), capacity=1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Instance(terminals=(Point(math.nan, 0),), depot=Point(0, 0), capacity=1)

    def test_capacity_is_an_integer(self):
        terminals = tuple(_points(np.random.default_rng(3).random((6, 2))))
        for bad in (4.5, 4.0, np.float64(4.0), "4", None):
            with pytest.raises(ValueError, match="capacity must be an int"):
                Instance(terminals=terminals, depot=Point(0.5, 0.5), capacity=bad)
        for k in (np.int64(4), np.int8(4), 4):
            inst = Instance(terminals=terminals, depot=Point(0.5, 0.5), capacity=k)
            assert type(inst.capacity) is int and inst.capacity == 4

    def test_coordinate_bound(self):
        # beyond MAX_COORD a squared coordinate difference can overflow
        Instance(terminals=(Point(MAX_COORD, -MAX_COORD),), depot=Point(0, 0), capacity=1)
        for bad in (math.nextafter(MAX_COORD, math.inf), -1e160, math.inf, math.nan):
            kind = "non-finite" if not math.isfinite(bad) else "too large"
            with pytest.raises(ValueError, match=f"{kind} coordinate: Point"):
                Instance(terminals=(Point(0, bad),), depot=Point(0, 0), capacity=1)
            with pytest.raises(ValueError, match=f"{kind} depot: Point"):
                Instance(terminals=(), depot=Point(bad, 0), capacity=1)


class TestPointForms:
    """Every point set is read through geometry.as_xy: (x, y) pairs only."""

    NON_PAIRS = {
        "one number": [(0.0, 1.0), (2.0,)],
        "three numbers": [(0.0, 0.0, 1.0), (3.0, 4.0, 0.0)],
        "four numbers": [(0.0, 1.0, 2.0, 3.0)],
        "ragged": [(0.0, 1.0), (2.0, 3.0, 4.0), (5.0,)],
        "bare numbers": [0.0, 1.0],
    }

    @pytest.mark.parametrize("name", list(NON_PAIRS))
    def test_non_pairs_raise(self, name):
        points = self.NON_PAIRS[name]
        for check in (as_xy, check_coordinates, diameter, tsp_heuristic):
            with pytest.raises(ValueError, match=r"\(x, y\) pairs"):
                check(points)
        with pytest.raises(ValueError, match=r"\(x, y\) pairs"):
            Instance(terminals=tuple(points), depot=Point(0.5, 0.5), capacity=1)

    def test_pair_forms_agree(self):
        xy = np.random.default_rng(7).random((9, 2))
        forms = (xy, xy.tolist(), [tuple(p) for p in xy.tolist()], _points(xy), list(xy))
        for form in forms:
            got = as_xy(form)
            assert got.dtype == np.float64 and got.shape == (9, 2)
            assert np.array_equal(got, xy)
        assert as_xy([]).shape == as_xy(np.empty(0)).shape == (0, 2)

    def test_values_as_asarray_gives_them(self):
        for points in ([("1.5", "2")], [(None, 1.0)], [(True, False)], [(1, 2**60 + 1)]):
            assert np.array_equal(as_xy(points), np.asarray(points, dtype=float),
                                  equal_nan=True)

    def test_ndarray_keeps_its_reshape(self):
        assert np.array_equal(as_xy(np.arange(4)), [[0.0, 1.0], [2.0, 3.0]])

    @staticmethod
    def _forms(points):
        """`points` (a list of float Points) in every pair form, by name."""
        xy = np.array(points)
        return {
            "tuples": [tuple(p) for p in points],
            "lists": [list(p) for p in points],
            "ndarray": xy,
            "ndarray rows": list(xy),
            "np.float64 Points": [Point(np.float64(x), np.float64(y)) for x, y in points],
            "strings": [(repr(x), repr(y)) for x, y in points],
        }

    @staticmethod
    def _text(instance):
        buf = io.StringIO()
        write_instance(instance, buf)
        return buf.getvalue()

    def test_instance_holds_float_points_of_any_pair_form(self):
        # k = 7: groups of 7 (M = 1) take the exact group path, of 14 (M = 2)
        # the tour split; ITP tours all 31 points heuristically
        base = gen_instance(30, 7, Point(0.4, 0.55), 3)
        R = choose_R(base.depot)
        want = {M: solve(base, "sweep", M) for M in (1, 2)}
        want_itp = solve(base, "itp", 1)
        want_bounds = repr(compute_bounds(base, R, 2))
        terminals = self._forms(list(base.terminals))
        depots = self._forms([base.depot])
        for name in terminals:
            inst = Instance(terminals=terminals[name], depot=depots[name][0], capacity=7)
            assert inst == base, name
            assert all(type(p) is Point and type(p.x) is type(p.y) is float
                       for p in (inst.depot, *inst.terminals)), name
            for M in (1, 2):
                got = solve(inst, "sweep", M)
                assert got == want[M] and got.total_cost.hex() == want[M].total_cost.hex()
                check_feasible(inst, got)
            assert solve(inst, "itp", 1) == want_itp, name
            assert repr(compute_bounds(inst, choose_R(inst.depot), 2)) == want_bounds
            assert sweep_sort(inst) == sweep_sort(base), name
            assert self._text(inst) == self._text(base), name
            assert read_instance(io.StringIO(self._text(inst))) == base, name

    def test_experiment_config_holds_a_float_depot(self):
        def rows(depot):
            config = ExperimentConfig(n=20, depot=depot, M=2, seeds=(0, 1), k_fixed=4)
            assert type(config.depot) is Point and type(config.depot.x) is float
            return [row.to_csv() for row in run_ratio_experiment(config).rows]

        want = rows(Point(0.5, 0.5))
        for depot in ((0.5, 0.5), [0.5, 0.5], np.array([0.5, 0.5]),
                      Point(np.float64(0.5), np.float64(0.5)), ("0.5", "0.5")):
            assert rows(depot) == want, depot

    def test_single_points_are_pairs(self):
        rng = np.random.default_rng(29)
        depot = Point(0.3, 0.7)
        for n in (5, 8, 16):  # solve_group's exact path up to 12 terminals
            U = _points(rng.random((n, 2)))
            tuples, tdepot = [tuple(p) for p in U], tuple(depot)
            seq = list(rng.permutation(n))
            assert tour_length(tdepot, tuples).hex() == tour_length(depot, U).hex()
            assert split_tour_sequence(tuples, tdepot, seq, 3) == \
                split_tour_sequence(U, depot, seq, 3)
            assert cvrp_group_heuristic(tuples, tdepot, 3) == \
                cvrp_group_heuristic(U, depot, 3)
            assert solve_group(tuples, tdepot, 3, SolveConfig()) == \
                solve_group(U, depot, 3, SolveConfig())
            assert [polar_angle(p, tdepot) for p in tuples] == \
                [polar_angle(p, depot) for p in U]
            assert [dist(tdepot, p) for p in tuples] == [dist(depot, p) for p in U]
        U = _points(rng.random((6, 2)))
        tuples = [tuple(p) for p in U]
        assert tsp_brute_force(tuples) == tsp_brute_force(U)
        assert cvrp_brute_force(tuples, tuple(depot), 2) == cvrp_brute_force(U, depot, 2)
        assert choose_R((0.3, 0.7)) == choose_R([0.3, 0.7]) == choose_R(depot)


class TestTours:
    def test_tour_length_empty(self):
        assert tour_length(Point(0, 0), []) == 0.0

    def test_tour_length_matches_definition(self):
        rng = np.random.default_rng(13)
        depot = Point(0.5, 0.5)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(6, 2))]
        length = tour_length(depot, [pts[2], pts[0], pts[5]])
        expected = (dist(depot, pts[2]) + dist(pts[2], pts[0])
                    + dist(pts[0], pts[5]) + dist(pts[5], depot))
        assert length == pytest.approx(expected, rel=1e-12)
        assert length >= 2 * max(dist(depot, pts[i]) for i in (2, 0, 5)) - 1e-9


    def test_tour_length_is_the_same_either_way(self):
        # the fsum of the route's edges: a left-to-right sum from the depot
        # differed from the same route reversed
        rng = np.random.default_rng(131)
        t = rng.random(12)
        routes = [random_points(rng, int(rng.integers(2, 15))) for _ in range(40)]
        routes.append(_points(np.column_stack([0.1 + 0.7 * t, 0.2 + 0.3 * t])))
        routes.append(_points(rng.random((4, 2))) * 3)  # duplicates
        for r in routes:
            for e in SCALE_EXPONENTS:
                inst = scaled_instance(Instance(terminals=r, depot=(0.5, 0.5), capacity=1), e)
                route = list(inst.terminals)
                assert tour_length(inst.depot, route) == tour_length(inst.depot, route[::-1])
                assert tour_length(inst.depot, route) == shuffled_edge_sum(
                    rng, [inst.depot, *route])


class TestInstanceIO:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(17)
        pts = tuple(Point(float(x), float(y))
                    for x, y in rng.uniform(-1, 2, size=(9, 2)))
        inst = Instance(terminals=pts, depot=Point(1 / 3, 2 / 7), capacity=4)
        buf = io.StringIO()
        write_instance(inst, buf)
        buf.seek(0)
        back = read_instance(buf)
        assert back == inst

    def test_file_form_reads_back_and_each_fault_raises(self):
        # each coordinate is converted once, by Instance, from its token
        inst = gen_instance(50, 5, Point(0.25, 1 / 3), seed=3)
        buf = io.StringIO()
        write_instance(inst, buf)
        text = buf.getvalue()
        assert read_instance(io.StringIO(text)) == inst
        lines = text.splitlines(keepends=True)
        faults = [
            (0, "50 5 0.5 abc\n", "could not convert string to float: 'abc'"),
            (4, "0.1 abc\n", "could not convert string to float: 'abc'"),
            (7, "nan 0.5\n", r"non-finite coordinate: Point\(x=nan, y=0.5\)"),
            (9, "0.1 0.2 0.3\n", "terminal line 10: expected `x y`"),
        ]
        for at, line, message in faults:
            bad = "".join(lines[:at] + [line] + lines[at + 1 :])
            with pytest.raises(ValueError, match=message):
                read_instance(io.StringIO(bad))

    def test_bad_header(self):
        with pytest.raises(ValueError):
            read_instance(io.StringIO("1 2 3\n"))
        # each raised `invalid literal for int() with base 10: ...`, naming
        # neither the line nor the field
        for header, name, token in (("2.5 1 0.5 0.5", "n", "2.5"),
                                    ("1 x 0.5 0.5", "k", "x"),
                                    ("1 1.0 0.5 0.5", "k", "1.0")):
            message = f"line 1: instance header {name} must be an int, got {token!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                read_instance(io.StringIO(header + "\n0.1 0.2\n"))

    def test_bad_terminal_line(self):
        with pytest.raises(ValueError):
            read_instance(io.StringIO("1 1 0.0 0.0\n1.0\n"))

    def test_negative_n(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            read_instance(io.StringIO("-5 1 0.5 0.5\n0.1 0.2\n"))

    def test_extra_terminal_line(self):
        with pytest.raises(ValueError, match="line 3"):
            read_instance(io.StringIO("1 1 0.5 0.5\n0.1 0.2\n0.3 0.4\n"))
        # blank lines after the terminals are fine
        inst = read_instance(io.StringIO("1 1 0.5 0.5\n0.1 0.2\n\n  \n"))
        assert inst.terminals == (Point(0.1, 0.2),)

    def test_save_load_round_trip(self, tmp_path):
        # save_instance then load_instance gives the Instance back, bit for
        # bit: coordinates that need 17 significant digits, -0.0, a depot
        # outside the unit square, and no terminals at all
        long = [0.1 + 0.2, math.nextafter(1 / 3, 1.0), -(1 + 2**-52), 5e-324]
        assert all(float(f"{x:.16g}") != x for x in long[:3])
        cases = [
            Instance(terminals=((long[0], long[1]), (long[2], -0.0), (0.5, long[3])),
                     depot=Point(3.0, -math.nextafter(2.0, 3.0)), capacity=2),
            Instance(terminals=(), depot=Point(-1.5, long[0]), capacity=1),
        ]
        for i, inst in enumerate(cases):
            path = str(tmp_path / f"instance-{i}.txt")
            save_instance(inst, path)
            back = load_instance(path)
            assert back == inst
            assert [float(v).hex() for p in (back.depot, *back.terminals) for v in p] == \
                [float(v).hex() for p in (inst.depot, *inst.terminals) for v in p]



class TestOutputFile:
    OLD = b"old results\n\x00\xff kept byte for byte\n"

    def test_unopenable_path_raises_before_the_block(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with output_file(str(tmp_path / "missing" / "out.txt")):
                pytest.fail("the block ran before the path was checked")

    def test_success_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(self.OLD)
        with output_file(str(path)) as fp:
            assert path.read_bytes() == self.OLD  # opening changes nothing
            fp.write("new\n")
        assert path.read_text() == "new\n"

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_failure_keeps_existing_file(self, tmp_path, exc):
        path = tmp_path / "out.txt"
        path.write_bytes(self.OLD)
        with pytest.raises(exc):
            with output_file(str(path)) as fp:
                fp.write("partial")
                raise exc()
        assert path.read_bytes() == self.OLD

    def test_failure_keeps_symlink_and_target(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_bytes(self.OLD)
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        with pytest.raises(ValueError):
            with output_file(str(link)):
                raise ValueError
        assert link.is_symlink() and target.read_bytes() == self.OLD

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_failure_removes_created_file(self, tmp_path, exc):
        path = tmp_path / "out.txt"
        with pytest.raises(exc):
            with output_file(str(path)) as fp:
                assert path.exists()
                fp.write("partial")
                raise exc()
        assert not path.exists()

    def test_device_is_written_without_truncation(self):
        with output_file(os.devnull) as fp:
            fp.write("discarded\n")
        assert os.path.exists(os.devnull)

    def test_none_path(self):
        with output_file(None) as fp:
            assert fp is None


class TestCheckFeasible:
    INST = gen_instance(12, 4, Point(0.3, 0.6), seed=2)

    @staticmethod
    def _solution(inst, *index_lists):
        return Solution(tours=tuple(
            Tour(indices=tuple(ix), length=tour_length(inst.depot,
                                                       [inst.terminals[i] for i in ix]))
            for ix in index_lists))

    def test_feasible_passes(self):
        for e in SCALE_EXPONENTS:
            inst = scaled_instance(self.INST, e)
            check_feasible(inst, self._solution(inst, range(0, 4), range(4, 8), range(8, 12)))
        check_feasible(Instance(terminals=(), depot=Point(0, 0), capacity=1), Solution(()))

    @pytest.mark.parametrize("corrupt", [
        "missing", "repeated", "out of range", "over capacity", "empty tour",
        "tour length", "zero length",
    ])
    def test_corrupted_raises(self, corrupt):
        # at every scale in SCALE_EXPONENTS: the check compares tour lengths
        # exactly, where an absolute tolerance let a x1.001 length and a zero
        # length pass at 2**-600 and 2**-40
        parts = {
            "missing": [range(0, 4), range(4, 8), range(8, 11)],
            "repeated": [range(0, 4), range(4, 8), range(7, 12)],
            "over capacity": [range(0, 5), range(5, 8), range(8, 12)],
            "empty tour": [range(0, 4), range(4, 8), range(8, 12), []],
        }.get(corrupt, [range(0, 4), range(4, 8), range(8, 12)])
        for e in SCALE_EXPONENTS:
            inst = scaled_instance(self.INST, e)
            tours = self._solution(inst, *parts).tours
            first = tours[0]
            if corrupt == "out of range":  # terminal 11 renamed 12
                tours = (*tours[:-1], Tour(indices=(8, 9, 10, 12), length=tours[-1].length))
            if corrupt == "tour length":
                tours = (Tour(indices=first.indices, length=first.length * 1.001), *tours[1:])
            if corrupt == "zero length":
                tours = (Tour(indices=first.indices, length=0.0), *tours[1:])
            with pytest.raises(ValueError, match="infeasible solution"):
                check_feasible(inst, Solution(tours))
