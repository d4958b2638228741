import json
import math

import numpy as np
import pytest

from sweepcvrp.bounds import (
    BoundContext,
    BoundsReport,
    choose_R,
    compute_bounds,
    instance_diameter,
    local_cost,
    local_subset,
    lower_bound,
    radial_cost,
    upper_bound_formula,
)
from sweepcvrp.bruteforce import brute_force_opt
from sweepcvrp.experiments import gen_instance
from sweepcvrp.geometry import Instance, Point
from sweepcvrp.itp import itp_solve
from sweepcvrp.sweep import sweep_solve

from helpers import random_instance

CROSS = Instance(
    terminals=(Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)),
    depot=Point(0, 0),
    capacity=2,
)


def _single_terminal(distance=3.0, k=2):
    return Instance(terminals=(Point(distance, 0.0),), depot=Point(0, 0),
                    capacity=min(k, 1))


class TestRadialCost:
    def test_r_zero(self):
        assert radial_cost(CROSS, 0.0) == 0.0

    def test_unclipped_single(self):
        inst = Instance(terminals=(Point(3, 0),), depot=Point(0, 0), capacity=1)
        assert radial_cost(inst, math.inf) == pytest.approx(6.0, abs=1e-12)  # (2/1)*3

    def test_clipped(self):
        inst = Instance(terminals=(Point(3, 0),), depot=Point(0, 0), capacity=1)
        assert radial_cost(inst, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            radial_cost(CROSS, -0.5)

    @pytest.mark.parametrize("R", [math.nan, -1.0, -math.inf])
    def test_invalid_r_rejected_by_both_costs(self, R):
        with pytest.raises(ValueError, match="R must be >= 0 or inf"):
            radial_cost(CROSS, R)
        with pytest.raises(ValueError, match="R must be >= 0 or inf"):
            local_cost(CROSS, R)

    def test_monotone_and_lipschitz_in_r(self):
        rng = np.random.default_rng(223)
        for _ in range(20):
            inst = random_instance(rng, max_n=15, max_k=4)
            rs = sorted(rng.uniform(0, 2, size=6))
            values = [radial_cost(inst, r) for r in rs]
            slope = 2.0 * inst.n / inst.capacity
            for (r1, v1), (r2, v2) in zip(zip(rs, values), zip(rs[1:], values[1:])):
                assert v2 >= v1 - 1e-12
                assert v2 - v1 <= slope * (r2 - r1) + 1e-12


class TestLocalCost:
    def test_r_above_everything(self):
        value, certified = local_cost(CROSS, 10.0)
        assert value == 0.0 and certified

    def test_r_inf_empty(self):
        assert local_subset(CROSS, math.inf) == []
        value, certified = local_cost(CROSS, math.inf)
        assert value == 0.0 and certified

    def test_r_zero_full_tsp(self):
        value, certified = local_cost(CROSS, 0.0)
        assert value == pytest.approx(4 * math.sqrt(2), abs=1e-9)
        assert certified

    def test_two_survivors(self):
        inst = Instance(
            terminals=(Point(2, 0), Point(3, 0), Point(0.1, 0)),
            depot=Point(0, 0), capacity=1,
        )
        value, certified = local_cost(inst, 1.5)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert certified

    def test_subset_uses_geq(self):
        inst = Instance(terminals=(Point(1, 0),), depot=Point(0, 0), capacity=1)
        assert local_subset(inst, 1.0) == [0]  # d == R stays in

    def test_heuristic_mode_not_certified(self):
        rng = np.random.default_rng(227)
        inst = random_instance(rng, max_n=8, max_k=2, min_n=5)
        value, certified = local_cost(inst, 0.0, tsp_mode="heuristic")
        assert not certified
        exact_value, _ = local_cost(inst, 0.0, tsp_mode="exact")
        assert value >= exact_value - 1e-9


class TestLowerBound:
    def test_all_terminals_at_depot(self):
        inst = Instance(terminals=(Point(0, 0), Point(0, 0)), depot=Point(0, 0),
                        capacity=1)
        for R in (0.0, 0.5, math.inf):
            value, valid = lower_bound(inst, R)
            assert value == pytest.approx(0.0, abs=1e-12)
            assert valid

    def test_cross_r_zero(self):
        value, valid = lower_bound(CROSS, 0.0)
        assert value == pytest.approx(4 * math.sqrt(2) - 3 * math.pi, abs=1e-9)
        assert valid  # vacuous (negative) but still a valid bound

    def test_r_inf(self):
        value, valid = lower_bound(CROSS, math.inf)
        expected = radial_cost(CROSS, math.inf) - 1.5 * math.pi * 2.0
        assert value == pytest.approx(expected, abs=1e-9)
        assert valid

    def test_heuristic_flagged_invalid(self):
        rng = np.random.default_rng(229)
        inst = random_instance(rng, max_n=9, max_k=3, min_n=5)
        _, valid = lower_bound(inst, 0.0, tsp_mode="heuristic")
        assert not valid

    def test_sandwich_against_bruteforce(self):
        rng = np.random.default_rng(233)
        for _ in range(30):
            inst = random_instance(rng, max_n=8, max_k=3)
            opt = brute_force_opt(inst)
            rstar = choose_R(inst.depot)
            radii = [0.0, rstar, math.inf] + list(rng.uniform(0, 3, size=5))
            for R in radii:
                value, valid = lower_bound(inst, R, tsp_mode="exact")
                assert valid
                assert value <= opt + 1e-9


class TestUpperBound:
    def test_empty_instance(self):
        inst = Instance(terminals=(), depot=Point(0.3, 0.4), capacity=1)
        value, certified = upper_bound_formula(inst, 3)
        assert value == 0.0 and certified

    def test_single_terminal(self):
        inst = Instance(terminals=(Point(1, 0),), depot=Point(0, 0), capacity=1)
        # T*_0 over one point is 0; rad_inf = 2; D = 1
        value, _ = upper_bound_formula(inst, 1)
        assert value == pytest.approx(2.0 + 1.5 * math.pi, abs=1e-9)

    def test_cross_formula(self):
        value, certified = upper_bound_formula(CROSS, 1)
        expected = 4 * math.sqrt(2) + 4.0 + 6 * math.pi  # T*_0 + rad_inf + 3piD/2 * 2
        assert certified
        assert value == pytest.approx(expected, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            upper_bound_formula(CROSS, 0)


class TestChooseR:
    def test_center(self):
        assert choose_R(Point(0.5, 0.5)) == pytest.approx(0.2869483936740798,
                                                          abs=1e-12)

    def test_corner(self):
        assert choose_R(Point(0.0, 0.0)) == pytest.approx(0.5738967873481595,
                                                          abs=1e-12)

    def test_far_field(self):
        from sweepcvrp.closedform import g1, g2

        a, b = 9.0, -3.0
        R = choose_R(Point(a, b))
        assert R == pytest.approx(0.75 * g1(a, b), abs=1e-12)
        assert g2(a, b) == pytest.approx(R, abs=1e-12)  # far field: g2 = R


class TestReports:
    def test_report_fields_and_sandwich(self):
        report = compute_bounds(CROSS, 0.0, M=1)
        assert report.local_certified
        assert report.lower <= report.upper + 1e-9
        assert report.D == pytest.approx(2.0, abs=1e-12)
        assert report.M == 1

    def test_json_dict_inf(self):
        report = compute_bounds(CROSS, math.inf, M=2)
        d = report.to_dict()
        assert d["R"] == "inf"
        assert isinstance(d["lower"], float)

    def test_csv_row_parses(self):
        report = compute_bounds(CROSS, 0.75, M=2)
        row = report.to_csv_row()
        fields = row.split(",")
        assert len(fields) == len(BoundsReport.CSV_HEADER.split(","))
        assert float(fields[0]) == 0.75
        assert fields[3] == "true"

    # (R, to_dict JSON, to_csv_row) for gen_instance(9, 3, (0.5, 0.5), 7), M = 2,
    # recorded with the hand-written column lists that field_text replaced
    GOLDEN_TEXT = [
        (0.0,
         '{"R": 0.0, "rad_R": 0.0, "local_R": 2.4426854917134433, '
         '"local_certified": true, "D": 0.9887748748193407, '
         '"lower": -2.2168063324664686, "upper": 13.920053859500452, "M": 2}',
         "0.0,0.0,2.4426854917134433,true,0.9887748748193407,"
         "-2.2168063324664686,13.920053859500452,2"),
        (0.25,
         '{"R": 0.25, "rad_R": 1.4069928408283598, "local_R": 2.318190377063257, '
         '"local_certified": true, "D": 0.9887748748193407, '
         '"lower": -0.9343086062882948, "upper": 13.920053859500452, "M": 2}',
         "0.25,1.4069928408283598,2.318190377063257,true,0.9887748748193407,"
         "-0.9343086062882948,13.920053859500452,2"),
        (math.inf,
         '{"R": "inf", "rad_R": 2.158384719427186, "local_R": 0.0, '
         '"local_certified": true, "D": 0.9887748748193407, '
         '"lower": -2.501107104752726, "upper": 13.920053859500452, "M": 2}',
         "inf,2.158384719427186,0.0,true,0.9887748748193407,"
         "-2.501107104752726,13.920053859500452,2"),
        (0,
         '{"R": 0, "rad_R": 0.0, "local_R": 2.4426854917134433, '
         '"local_certified": true, "D": 0.9887748748193407, '
         '"lower": -2.2168063324664686, "upper": 13.920053859500452, "M": 2}',
         "0,0.0,2.4426854917134433,true,0.9887748748193407,"
         "-2.2168063324664686,13.920053859500452,2"),
    ]

    def test_golden_text(self):
        inst = gen_instance(9, 3, Point(0.5, 0.5), 7)
        assert BoundsReport.CSV_HEADER == "R,rad_R,local_R,local_certified,D,lower,upper,M"
        for R, want_json, want_csv in self.GOLDEN_TEXT:
            report = compute_bounds(inst, R, 2)
            assert json.dumps(report.to_dict()) == want_json
            assert report.to_csv_row() == want_csv

    def test_lower_le_upper_random(self):
        rng = np.random.default_rng(239)
        for _ in range(20):
            inst = random_instance(rng, max_n=10, max_k=3)
            R = float(rng.uniform(0, 2))
            report = compute_bounds(inst, R, M=int(rng.integers(1, 4)))
            assert report.local_certified
            assert report.lower <= report.upper + 1e-9


class TestTspModeChecked:
    # one terminal needs no TSP, so the mode is checked before the shortcut
    ONE = Instance(terminals=(Point(0.2, 0.9),), depot=Point(0.5, 0.5), capacity=1)

    def test_every_entry_point(self):
        calls = [
            lambda: compute_bounds(self.ONE, 0.0, 2, tsp_mode="bogus"),
            lambda: lower_bound(self.ONE, math.inf, "bogus"),
            lambda: upper_bound_formula(self.ONE, 2, "bogus"),
            lambda: local_cost(self.ONE, 0.0, "bogus"),
            lambda: BoundContext(self.ONE, "bogus").local(0.5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="unknown tsp mode: 'bogus'"):
                call()


class TestBoundContext:
    def test_compute_bounds_matches_one_shot_functions(self):
        # a 40-terminal instance (heuristic T*_R) and a 9-terminal one (exact)
        for n, k, seed in ((40, 4, 5), (9, 3, 6)):
            inst = gen_instance(n, k, Point(0.3, 0.6), seed)
            for R in (0.0, choose_R(inst.depot), math.inf):
                report = compute_bounds(inst, R, 2, "auto", seed)
                assert repr(report.local_R) == repr(local_cost(inst, R, "auto", seed)[0])
                assert repr(report.D) == repr(instance_diameter(inst))
                assert repr(report.lower) == repr(lower_bound(inst, R, "auto", seed)[0])
                assert repr(report.upper) == repr(
                    upper_bound_formula(inst, 2, "auto", seed)[0])

    def test_golden_report(self):
        # recorded with the three-pass bound code this context replaced
        inst = gen_instance(40, 4, Point(0.3, 0.6), 7)
        assert repr(compute_bounds(inst, 0.0, 2, "auto", 3)) == (
            "BoundsReport(R=0.0, rad_R=0.0, local_R=5.618239171836337, "
            "local_certified=False, D=1.1015416130881752, "
            "lower=0.42734661288444453, upper=39.125717301094944, M=2)"
        )

    @pytest.fixture
    def ingredient_calls(self, monkeypatch):
        """(name, R) of every local_cost, radial_cost and instance_diameter
        call made through the bounds module."""
        import sweepcvrp.bounds as bounds

        calls = []
        for name in ("local_cost", "radial_cost", "instance_diameter"):
            real = getattr(bounds, name)

            def counted(*args, _real=real, _name=name):
                calls.append((_name, args[1] if len(args) > 1 else None))
                return _real(*args)

            monkeypatch.setattr(bounds, name, counted)
        return calls

    def test_each_ingredient_computed_once(self, ingredient_calls):
        ctx = BoundContext(CROSS)
        for R in (0.0, 0.5, math.inf):
            ctx.lower(R)
        ctx.upper(1)
        ctx.upper(2)
        ctx.report(0.0, 2)
        assert sorted(ingredient_calls, key=repr) == sorted([
            ("local_cost", 0.0), ("local_cost", 0.5), ("local_cost", math.inf),
            ("radial_cost", 0.0), ("radial_cost", 0.5), ("radial_cost", math.inf),
            ("instance_diameter", None),
        ], key=repr)

    def test_compute_bounds_at_zero_tours_once(self, ingredient_calls):
        compute_bounds(CROSS, 0.0, 2)
        assert [c for c in ingredient_calls if c[0] == "local_cost"] == [
            ("local_cost", 0.0)]

    def test_validation_matches_one_shot(self):
        ctx = BoundContext(CROSS)
        with pytest.raises(ValueError, match="M must be"):
            ctx.upper(0)
        with pytest.raises(ValueError, match="R must be"):
            ctx.lower(-1.0)

    def test_invalid_r_rejected_before_any_tour(self, monkeypatch):
        import sweepcvrp.bounds as bounds

        tours = []
        monkeypatch.setattr(bounds, "tsp_dispatch", lambda *a, **kw: tours.append(a))
        with pytest.raises(ValueError, match="R must be"):
            BoundContext(CROSS).lower(-1.0)
        assert tours == []


class TestAlgorithmsAgainstBounds:
    def test_sweep_and_itp_within_upper(self):
        rng = np.random.default_rng(241)
        for _ in range(15):
            inst = random_instance(rng, max_n=10, max_k=3)
            for M in (1, 2):
                ub, certified = upper_bound_formula(inst, M)
                assert certified
                assert sweep_solve(inst, M).total_cost <= ub + 1e-9
            ub1, _ = upper_bound_formula(inst, 1)
            assert itp_solve(inst, tsp_mode="exact").total_cost <= ub1 + 1e-9

    def test_instance_diameter_includes_depot(self):
        inst = Instance(terminals=(Point(0, 0),), depot=Point(5, 0), capacity=1)
        assert instance_diameter(inst) == 5.0
