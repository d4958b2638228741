import inspect
import json
import math
from dataclasses import asdict
from collections import Counter
from fractions import Fraction

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
from sweepcvrp.experiments import ExperimentConfig, gen_instance, run_ratio_experiment
from sweepcvrp.geometry import Instance, Point, Solution
from sweepcvrp.itp import itp_solve
from sweepcvrp.sweep import sweep_solve
from sweepcvrp.tsp import cycle_length, tsp_dispatch, tsp_exact

from helpers import random_instance, scaled_instance

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
        exact_value, _ = local_cost(inst, 0.0)
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

    def test_heuristic_valid_on_three_terminals(self):
        # every tour over at most 3 points is optimal, whichever solver made it
        terminals = tuple(Point(x, y) for x, y in
                          [(0.5, 0.6), (0.55, 0.5), (0.9, 0.9), (0.1, 0.95), (0.95, 0.1)])
        inst = Instance(terminals=terminals, depot=Point(0.5, 0.5), capacity=2)
        assert local_subset(inst, 0.3) == [2, 3, 4]
        assert lower_bound(inst, 0.3, "heuristic", 0) == (-1.8094722639466454, True)
        assert lower_bound(inst, 0.3) == (-1.8094722639466454, True)

    def test_sandwich_against_bruteforce(self):
        rng = np.random.default_rng(233)
        for _ in range(30):
            inst = random_instance(rng, max_n=8, max_k=3)
            opt = brute_force_opt(inst)
            rstar = choose_R(inst.depot)
            radii = [0.0, rstar, math.inf] + list(rng.uniform(0, 3, size=5))
            for R in radii:
                value, valid = lower_bound(inst, R)
                assert valid
                assert value <= opt + 1e-9

    def test_sandwich_at_tiny_scale(self):
        # at 1e-200 the squared distances in D underflowed to 0, and 8 of
        # these 160 certified lower bounds exceeded the optimum
        rng = np.random.default_rng(987)
        for _ in range(40):
            inst = random_instance(rng, max_n=8, max_k=3, min_n=2)
            tiny = Instance(
                terminals=tuple(Point(p.x * 1e-200, p.y * 1e-200) for p in inst.terminals),
                depot=Point(inst.depot.x * 1e-200, inst.depot.y * 1e-200),
                capacity=inst.capacity)
            opt = brute_force_opt(tiny)
            for R in rng.uniform(0, 3, size=4) * 1e-200:
                value, valid = lower_bound(tiny, float(R))
                assert valid
                assert value <= opt * (1 + 1e-9)


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
    # recorded with the hand-written column lists that field_text replaced.
    # At R = 0.25 the exact T*_R (local_R) and so `lower` were re-recorded
    # when tsp_exact began to report the fsum of its cycle's edges instead of
    # its DP's left-to-right sum: 2.318190377063257 and -0.9343086062882948
    # before, the same tour. The R = int 0 row was re-recorded when every R
    # became a plain float ("R": 0 and a leading `0,` before, the same bits)
    GOLDEN_TEXT = [
        (0.0,
         '{"R": 0.0, "rad_R": 0.0, "local_R": 2.4426854917134433, '
         '"local_certified": true, "D": 0.9887748748193407, '
         '"lower": -2.2168063324664686, "upper": 13.920053859500452, "M": 2}',
         "0.0,0.0,2.4426854917134433,true,0.9887748748193407,"
         "-2.2168063324664686,13.920053859500452,2"),
        (0.25,
         '{"R": 0.25, "rad_R": 1.4069928408283598, "local_R": 2.3181903770632566, '
         '"local_certified": true, "D": 0.9887748748193407, '
         '"lower": -0.9343086062882957, "upper": 13.920053859500452, "M": 2}',
         "0.25,1.4069928408283598,2.3181903770632566,true,0.9887748748193407,"
         "-0.9343086062882957,13.920053859500452,2"),
        (math.inf,
         '{"R": "inf", "rad_R": 2.158384719427186, "local_R": 0.0, '
         '"local_certified": true, "D": 0.9887748748193407, '
         '"lower": -2.501107104752726, "upper": 13.920053859500452, "M": 2}',
         "inf,2.158384719427186,0.0,true,0.9887748748193407,"
         "-2.501107104752726,13.920053859500452,2"),
        (0,
         '{"R": 0.0, "rad_R": 0.0, "local_R": 2.4426854917134433, '
         '"local_certified": true, "D": 0.9887748748193407, '
         '"lower": -2.2168063324664686, "upper": 13.920053859500452, "M": 2}',
         "0.0,0.0,2.4426854917134433,true,0.9887748748193407,"
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


class TestRadiusRule:
    """Any numbers.Real R >= 0 is read as a plain float; anything else raises
    before any tour."""

    INST = gen_instance(9, 3, Point(0.5, 0.5), 7)

    @staticmethod
    def parse_row(row: str) -> BoundsReport:
        R, rad_R, local_R, certified, D, lower, upper, M = row.split(",")
        assert certified in ("true", "false")
        return BoundsReport(float(R), float(rad_R), float(local_R), certified == "true",
                            float(D), float(lower), float(upper), int(M))

    @pytest.mark.parametrize("R", [np.float64(0.3), np.float32(0.3), 1, True,
                                   Fraction(3, 10)], ids=repr)
    def test_real_r_is_a_plain_float(self, R):
        report = compute_bounds(self.INST, R, 2)
        assert type(report.R) is float and report.R == float(R)
        assert report == compute_bounds(self.INST, float(R), 2)
        assert self.parse_row(report.to_csv_row()) == report
        assert json.loads(json.dumps(report.to_dict())) == asdict(report)
        ctx = BoundContext(self.INST)
        assert ctx.lower(R) == ctx.lower(float(R))
        assert ctx.radial(R) == radial_cost(self.INST, float(R))
        assert local_subset(self.INST, R) == local_subset(self.INST, float(R))

    @pytest.mark.parametrize("R", ["0.5", None, 1 + 0j], ids=repr)
    def test_non_real_r_rejected_before_any_tour(self, monkeypatch, R):
        import sweepcvrp.bounds as bounds

        tours = []
        monkeypatch.setattr(bounds, "tsp_dispatch", lambda *a, **kw: tours.append(a))
        calls = [
            lambda: radial_cost(CROSS, R), lambda: local_subset(CROSS, R),
            lambda: local_cost(CROSS, R), lambda: lower_bound(CROSS, R),
            lambda: compute_bounds(CROSS, R, 2), lambda: BoundContext(CROSS).local(R),
            lambda: BoundContext(CROSS).radial(R), lambda: BoundContext(CROSS).lower(R),
            lambda: BoundContext(CROSS).report(R, 2),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="R must be a real number, got "):
                call()
        assert tours == []

    @pytest.mark.parametrize("R", [10**400, Fraction(10**400, 3)],
                             ids=["10**400", "Fraction(10**400, 3)"])
    def test_r_beyond_float_range_reads_as_inf(self, R):
        # it clips nothing and its >=R set is empty, as at R = inf
        inf = math.inf
        assert local_subset(self.INST, R) == local_subset(self.INST, inf) == []
        assert radial_cost(self.INST, R) == radial_cost(self.INST, inf)
        assert local_cost(self.INST, R) == local_cost(self.INST, inf)
        assert lower_bound(self.INST, R) == lower_bound(self.INST, inf)
        report = compute_bounds(self.INST, R, 2)
        assert report.R == inf and report == compute_bounds(self.INST, inf, 2)
        assert BoundContext(self.INST).local(R) == BoundContext(self.INST).local(inf)
        assert BoundContext(self.INST).radial(R) == BoundContext(self.INST).radial(inf)
        assert BoundContext(self.INST).lower(R) == BoundContext(self.INST).lower(inf)
        assert BoundContext(self.INST).report(R, 2) == report

    def test_negative_r_beyond_float_range_rejected_before_any_tour(self, monkeypatch):
        import sweepcvrp.bounds as bounds

        R = -10**400
        tours = []
        monkeypatch.setattr(bounds, "tsp_dispatch", lambda *a, **kw: tours.append(a))
        calls = [
            lambda: radial_cost(CROSS, R), lambda: local_subset(CROSS, R),
            lambda: local_cost(CROSS, R), lambda: lower_bound(CROSS, R),
            lambda: compute_bounds(CROSS, R, 2), lambda: BoundContext(CROSS).local(R),
            lambda: BoundContext(CROSS).radial(R), lambda: BoundContext(CROSS).lower(R),
            lambda: BoundContext(CROSS).report(R, 2),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="R must be >= 0 or inf"):
                call()
        assert tours == []

    @pytest.mark.parametrize("R", [math.nan, -1.0, np.float64(-0.5), -math.inf])
    def test_subset_checks_r(self, R):
        with pytest.raises(ValueError, match="R must be >= 0 or inf"):
            local_subset(CROSS, R)


class TestTspModeChecked:
    # tsp_dispatch checks the mode on every subset, the empty one included
    ONE = Instance(terminals=(Point(0.2, 0.9),), depot=Point(0.5, 0.5), capacity=1)
    THREE = Instance(terminals=((0.2, 0.9), (0.7, 0.1), (0.4, 0.4)), depot=Point(0.5, 0.5),
                     capacity=1)

    def test_every_entry_point(self):
        calls = [
            lambda: compute_bounds(self.ONE, 0.0, 2, tsp_mode="bogus"),
            lambda: lower_bound(self.ONE, math.inf, "bogus"),
            lambda: upper_bound_formula(self.ONE, 2, "bogus"),
            lambda: local_cost(self.ONE, 0.0, "bogus"),
            lambda: BoundContext(self.ONE, "bogus").local(0.5),
            # checked on construction, before any branch of T*_R
            lambda: BoundContext(self.ONE, "bogus"),
            lambda: BoundContext(self.THREE, "bogus"),
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
        # local_R is a 40-point heuristic tour, so it, lower and upper were
        # re-recorded with the neighbour-list local search (5.618239171836337,
        # 0.42734661288444453 and 39.125717301094944 before), and again when
        # the heuristic T*_0 became ITP's tour with the depot shortcut
        # (5.48287870752764, 0.2919861485757478 and 38.99035683678625 before,
        # a separate tour over the terminals); D kept its bits
        inst = gen_instance(40, 4, Point(0.3, 0.6), 7)
        assert repr(compute_bounds(inst, 0.0, 2, "auto", 3)) == (
            "BoundsReport(R=0.0, rad_R=0.0, local_R=5.399649709213074, "
            "local_certified=False, D=1.1015416130881752, "
            "lower=0.20875715026118158, upper=38.90712783847168, M=2)"
        )

    @pytest.fixture
    def ingredient_calls(self, monkeypatch):
        """Every tour, radial_cost and instance_diameter call made through
        the bounds module: ("tour", size of the toured set) for a
        tsp_dispatch, held_karp_tour or itp_solve, (name, R) otherwise."""
        import sweepcvrp.bounds as bounds

        calls = []
        sizes = {"tsp_dispatch": lambda points, *_, **__: len(points),
                 "held_karp_tour": lambda _terminals, _table, mask: 1 + mask.bit_count(),
                 "itp_solve": lambda instance, *_: instance.n}
        for name in (*sizes, "radial_cost", "instance_diameter"):
            real = getattr(bounds, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                if _name in sizes:
                    calls.append(("tour", sizes[_name](*args, **kwargs)))
                else:
                    calls.append((_name, args[1] if len(args) > 1 else None))
                return _real(*args, **kwargs)

            monkeypatch.setattr(bounds, name, counted)
        return calls

    def test_each_ingredient_computed_once(self, ingredient_calls):
        # T*_R once per point set: every CROSS terminal is at distance 1, so
        # R = 0 and R = 0.5 keep the same set (one tour of 4 for both; the
        # set {d >= inf} is empty)
        ctx = BoundContext(CROSS)
        for R in (0.0, 0.5, math.inf):
            ctx.lower(R)
        ctx.upper(1)
        ctx.upper(2)
        ctx.report(0.0, 2)
        assert sorted(ingredient_calls, key=repr) == sorted([
            ("tour", 4), ("tour", 0),
            ("radial_cost", 0.0), ("radial_cost", 0.5), ("radial_cost", math.inf),
            ("instance_diameter", None),
        ], key=repr)

    def test_compute_bounds_at_zero_tours_once(self, ingredient_calls):
        compute_bounds(CROSS, 0.0, 2)
        assert [c for c in ingredient_calls if c[0] == "tour"] == [("tour", 4)]

    def test_validation_matches_one_shot(self):
        ctx = BoundContext(CROSS)
        with pytest.raises(ValueError, match="M must be"):
            ctx.upper(0)
        with pytest.raises(ValueError, match="R must be"):
            ctx.lower(-1.0)

    def test_invalid_m_rejected_before_any_tour(self, ingredient_calls):
        inst = gen_instance(40, 4, Point(0.3, 0.6), 7)
        for R in (0.0, 0.25, math.inf):
            with pytest.raises(ValueError, match="M must be"):
                compute_bounds(inst, R, 0)
        with pytest.raises(ValueError, match="R must be"):
            compute_bounds(inst, -1.0, 2)
        assert [c for c in ingredient_calls if c[0] == "tour"] == []

    def test_invalid_r_rejected_before_any_tour(self, monkeypatch):
        import sweepcvrp.bounds as bounds

        tours = []
        monkeypatch.setattr(bounds, "tsp_dispatch", lambda *a, **kw: tours.append(a))
        with pytest.raises(ValueError, match="R must be"):
            BoundContext(CROSS).lower(-1.0)
        assert tours == []

    def test_one_t_star_rule(self):
        # BoundContext.local is the one implementation of T*_R: local_cost
        # takes no table or solution of its own, so a table of another
        # instance (which certified 4.85 where T*_0 is 3.05) cannot reach it
        import sweepcvrp.bounds as bounds

        assert list(inspect.signature(local_cost).parameters) == [
            "instance", "R", "tsp_mode", "seed"]
        source = inspect.getsource(bounds)
        local = inspect.getsource(BoundContext.local)
        for call in ("held_karp_tour(", "itp_solve(", "tsp_dispatch("):
            assert source.count(call) == local.count(call) >= 1, call
        assert source.count("check_tsp_mode(") == 1
        inst = gen_instance(10, 3, Point(0.5, 0.5), 1)
        foreign = BoundContext(gen_instance(10, 3, Point(0.5, 0.5), 2)).table
        with pytest.raises(TypeError):
            local_cost(inst, 0.0, table=foreign)

    def test_cached_sets_do_not_admit_an_invalid_r(self):
        ctx = BoundContext(CROSS)
        ctx.local(0.0)
        ctx.local(math.inf)
        for R in (math.nan, -1.0):
            with pytest.raises(ValueError, match="R must be >= 0 or inf"):
                ctx.local(R)


def _shared_table_instances():
    """Random, lattice and duplicate instances of 2 .. 14 terminals."""
    rng = np.random.default_rng(34)
    for n in range(2, 15):
        yield gen_instance(n, 1, Point(*map(float, rng.uniform(-0.5, 1.5, 2))), n)
        lattice = rng.integers(0, 4, (n, 2))
        yield Instance(terminals=tuple(Point(float(x), float(y)) for x, y in lattice),
                       depot=Point(1.0, 2.0), capacity=1)
        base = rng.random((max(1, n // 3), 2))
        yield Instance(terminals=tuple(Point(*map(float, base[i % len(base)]))
                                       for i in range(n)),
                       depot=Point(0.5, 0.5), capacity=1)


class TestSharedTable:
    """BoundContext reads every exact T*_R whose >=R set holds terminal 0
    from the one Held-Karp table of T*_0."""

    def test_every_set_is_tsp_dispatch(self):
        sets = Counter()
        for inst in _shared_table_instances():
            ctx = BoundContext(inst)
            for R in (0.0, *sorted(set(inst.depot_distances)), math.inf):
                subset = local_subset(inst, R)
                want = tsp_dispatch([inst.terminals[i] for i in subset])
                got = ctx.local(R)
                assert repr(got.value) == repr(want.length) and got.certified
                assert repr(local_cost(inst, R).value) == repr(want.length)
                sets[subset[:1] == [0], len(subset) >= 2] += 1
        # both kinds of set, and more than a trivial tour of each
        assert min(sets[True, True], sets[False, True]) >= 50

    @staticmethod
    def _spy(monkeypatch):
        import sweepcvrp.bounds as bounds
        import sweepcvrp.tsp as tsp

        calls = []

        def spy(points, size=None, _real=tsp.held_karp):
            calls.append(len(points) - 1)
            return _real(points, size)

        monkeypatch.setattr(bounds, "held_karp", spy)
        monkeypatch.setattr(tsp, "held_karp", spy)
        return calls

    @staticmethod
    def _every_bound(inst):
        ctx = BoundContext(inst)
        for R in (0.0, choose_R(inst.depot), *inst.depot_distances, math.inf):
            ctx.lower(R)
        ctx.upper(2)
        return ctx

    def test_one_table_where_every_set_holds_terminal_0(self, monkeypatch):
        calls = self._spy(monkeypatch)
        inst = gen_instance(12, 3, Point(0.5, 0.5), 4)
        far_first = sorted(range(12), key=lambda i: -inst.depot_distances[i])
        inst = Instance(terminals=tuple(inst.terminals[i] for i in far_first),
                        depot=inst.depot, capacity=3)
        ctx = self._every_bound(inst)
        assert calls == [11] and ctx.table is not None

    def test_other_sets_keep_their_own_table(self, monkeypatch):
        calls = self._spy(monkeypatch)
        inst = gen_instance(12, 3, Point(0.5, 0.5), 4)
        d = inst.depot_distances
        without_0 = {sum(e >= r for e in d) for r in d if r > d[0]}
        self._every_bound(inst)
        assert calls[0] == 11
        assert sorted(calls[1:]) == sorted(size - 1 for size in without_0 if size >= 2)

    def test_one_shot_tours_a_smaller_set_alone(self, monkeypatch):
        # a one-shot over a >=R set that holds terminal 0 but not every
        # terminal builds that set's own table, not T*_0's, with the value a
        # context reads from T*_0's table
        inst = gen_instance(14, 3, Point(0.5, 0.5), 4)
        R = inst.depot_distances[0]
        subset = local_subset(inst, R)
        assert subset[0] == 0 and 2 <= len(subset) < inst.n
        ctx = BoundContext(inst)
        ctx.local(0.0)
        shared, lower = ctx.local(R), ctx.lower(R)
        calls = self._spy(monkeypatch)
        assert local_cost(inst, R) == shared and lower_bound(inst, R) == lower
        assert calls == [len(subset) - 1] * 2

    @pytest.mark.parametrize("n, mode", [(0, "auto"), (1, "auto"), (15, "auto"),
                                         (5, "heuristic")])
    def test_no_table_off_the_exact_path(self, n, mode):
        assert BoundContext(gen_instance(n, 1, Point(0.5, 0.5), n), mode).table is None


def _itp_order(solution) -> list[int]:
    """ITP's routes concatenated in route order: its tour without the depot."""
    return [i for tour in solution.tours for i in tour.indices]


class TestShortcutT0:
    """Where tsp_dispatch over the terminals is uncertified, T*_0 is the
    cycle through ITP's routes; elsewhere it is tsp_dispatch's tour."""

    @staticmethod
    def cases():
        """(instance, mode, whether tsp_dispatch certifies the terminals)."""
        depot = Point(0.4, 0.55)
        for n in (0, 1, 2, 3, 4, 14, 15, 40):
            inst = gen_instance(n, min(3, max(n, 1)), depot, n)
            yield inst, "auto", n <= 14
            yield inst, "heuristic", n <= 3
        # co-located terminals: at most 3 locations are certified in
        # heuristic mode above the exact threshold too
        for places in ([(0.1, 0.2)], [(0.1, 0.2), (0.9, 0.3), (0.5, 1.0)],
                       [(0.1, 0.2), (0.9, 0.3), (0.5, 1.0), (0.2, 0.8)]):
            terminals = tuple(Point(*places[i % len(places)]) for i in range(20))
            inst = Instance(terminals=terminals, depot=depot, capacity=4)
            yield inst, "heuristic", len(places) <= 3
            yield inst, "auto", len(places) <= 3

    def test_rule(self):
        for inst, mode, certifies in self.cases():
            for e in (-40, 0, 40):
                scaled = scaled_instance(inst, e)
                for seed in (0, 5):
                    got = local_cost(scaled, 0.0, mode, seed)
                    want = tsp_dispatch(list(scaled.terminals), mode, seed)
                    assert want.certified_optimal == certifies
                    if certifies:
                        assert got == (want.length, True)
                    else:
                        order = _itp_order(itp_solve(scaled, mode, seed))
                        assert got == (cycle_length(scaled.terminals, order), False)
                    assert got[0] == math.ldexp(local_cost(inst, 0.0, mode, seed)[0], e)

    def test_decided_by_the_point_set(self):
        # at a far depot R* keeps every terminal, so R = 0, R* and the least
        # depot distance name one set and one T*_R: ITP's cycle above the
        # exact threshold (where tsp_dispatch's own tour is another length),
        # the exact tour over every terminal at or below it
        depot = Point(3.0, -2.0)
        inst = gen_instance(200, 14, depot, 0)
        radii = (0.0, choose_R(depot), min(inst.depot_distances))
        assert all(local_subset(inst, R) == list(range(200)) for R in radii)
        order = _itp_order(itp_solve(inst, "auto", 0))
        want = (cycle_length(inst.terminals, order), False)
        assert tsp_dispatch(list(inst.terminals), "auto", 0).length != want[0]
        for R in radii:
            assert local_cost(inst, R, "auto", 0) == want
        assert local_subset(inst, math.nextafter(radii[2], math.inf)) != list(range(200))
        small = gen_instance(12, 3, depot, 0)
        exact = tsp_exact(list(small.terminals))
        for R in (0.0, choose_R(depot), min(small.depot_distances)):
            assert local_cost(small, R, "auto", 0) == (exact.length, True)

    @pytest.mark.parametrize("n, k", [(200, 14), (12, 3)])
    def test_each_point_set_toured_once(self, monkeypatch, n, k):
        import sweepcvrp.tsp as tsp

        toured = Counter()
        for name in ("tsp_heuristic", "tsp_exact"):
            def spy(points, *args, _real=getattr(tsp, name), **kwargs):
                toured[frozenset(points)] += 1  # the set, as perfbench keys it
                return _real(points, *args, **kwargs)

            monkeypatch.setattr(tsp, name, spy)
        config = ExperimentConfig(n=n, depot=Point(3.0, -2.0), M=2, seeds=(0,),
                                  k_fixed=k)
        run_ratio_experiment(config)
        assert toured and {s: c for s, c in toured.items() if s and c > 1} == {}

    def test_given_itp_is_read(self, monkeypatch):
        import sweepcvrp.bounds as bounds

        inst = gen_instance(40, 4, Point(0.5, 0.5), 1)
        itp = itp_solve(inst, "auto", 1)
        solved = []
        monkeypatch.setattr(bounds, "itp_solve", lambda *a: solved.append(a) or itp)
        value = BoundContext(inst, "auto", 1, itp).local(0.0)
        assert solved == []
        assert value == local_cost(inst, 0.0, "auto", 1)
        assert solved == [(inst, "auto", 1)]

    def test_itp_must_cover_the_terminals(self):
        # geometry.check_feasible reads a given itp on construction: a
        # solution that leaves terminals out, one of a larger instance, and
        # one of another instance of the same n (its tour lengths are not
        # this instance's; it moved lb_r0 from -0.45 to 17.05) are refused
        inst = gen_instance(40, 4, Point(0.5, 0.5), 1)
        itp = itp_solve(inst)
        short = Solution(itp.tours[1:])
        foreign = itp_solve(gen_instance(40, 4, Point(0.5, 0.5), 2))
        for instance, solution in ((inst, short), (inst, foreign),
                                   (gen_instance(41, 4, Point(0.5, 0.5), 1), itp)):
            with pytest.raises(ValueError, match="itp must be a solution of this instance"):
                BoundContext(instance, itp=solution)
        assert BoundContext(inst, itp=itp).lower(0.0) == lower_bound(inst, 0.0)

    def test_context_with_and_without_itp_agree(self, monkeypatch):
        import sweepcvrp.bounds as bounds

        solved = []
        real = bounds.itp_solve
        monkeypatch.setattr(bounds, "itp_solve",
                            lambda *a: solved.append(a) or real(*a))
        for n, mode, seed in ((15, "auto", 0), (60, "auto", 3), (60, "heuristic", 4),
                              (200, "heuristic", 1), (9, "auto", 2)):
            inst = gen_instance(n, 5, Point(0.5, 0.5), seed)
            given = BoundContext(inst, mode, seed, itp_solve(inst, mode, seed))
            fresh = BoundContext(inst, mode, seed)
            for R in (0.0, choose_R(inst.depot), math.inf):
                assert repr(given.report(R, 2)) == repr(fresh.report(R, 2))
                assert given.lower(R) == fresh.lower(R)
            assert given.upper(1) == fresh.upper(1)
        # only the contexts without a solution solved ITP, once each, and
        # only where T*_0 is ITP's tour
        assert [a[1:] for a in solved] == [("auto", 0), ("auto", 3), ("heuristic", 4),
                                           ("heuristic", 1)]

    @pytest.mark.parametrize("n, k", [(60, 5), (200, 14)])
    @pytest.mark.parametrize("mode", ["auto", "heuristic"])
    def test_one_shot_functions_equal_experiment_rows(self, n, k, mode):
        config = ExperimentConfig(n=n, depot=Point(0.5, 0.5), M=2, seeds=(0, 1),
                                  k_fixed=k, tsp_mode=mode)
        rows = run_ratio_experiment(config).rows
        assert len(rows) == 4
        for row in rows:
            inst = gen_instance(n, k, config.depot, row.seed)
            assert repr(lower_bound(inst, 0.0, mode, row.seed)[0]) == repr(row.lb_r0)
            assert repr(upper_bound_formula(inst, row.M, mode, row.seed)[0]) == repr(row.ub)
            report = compute_bounds(inst, 0.0, row.M, mode, row.seed)
            assert repr((report.lower, report.upper)) == repr((row.lb_r0, row.ub))


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
            assert itp_solve(inst).total_cost <= ub1 + 1e-9

    def test_instance_diameter_includes_depot(self):
        inst = Instance(terminals=(Point(0, 0),), depot=Point(5, 0), capacity=1)
        assert instance_diameter(inst) == 5.0
