import dataclasses
import io
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sweepcvrp.bounds as bounds_module
import sweepcvrp.experiments as experiments
import sweepcvrp.tsp as tsp
from sweepcvrp.bounds import BoundContext, choose_R, instance_diameter
from sweepcvrp.bruteforce import brute_force_opt
from sweepcvrp.closedform import g1
from sweepcvrp.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    RatioRow,
    gen_instance,
    mean_certified_ratio,
    parse_csv_row,
    read_csv,
    resolve_k,
    run_ratio_experiment,
    solve,
    write_csv,
)
from sweepcvrp.geometry import Instance, Point, Solution, dist, tour_length
from sweepcvrp.group_cvrp import EXACT_GROUP_THRESHOLD, SolveConfig
from sweepcvrp.itp import itp_solve
from sweepcvrp.sweep import sweep_groups, sweep_solve

from helpers import SCALE_EXPONENTS, random_instance, scaled_instance


class TestSolve:
    INST = gen_instance(30, 4, Point(0.3, 0.6), seed=5)

    def test_each_algo_is_its_solver(self):
        for seed in (0, 3):
            assert solve(self.INST, "sweep", 2, "heuristic", seed) == sweep_solve(
                self.INST, 2, SolveConfig(tsp_mode="heuristic", seed=seed))
            assert solve(self.INST, "itp", 2, "heuristic", seed) == itp_solve(
                self.INST, tsp_mode="heuristic", seed=seed)

    def test_unknown_algo(self):
        with pytest.raises(ValueError, match="unknown algo 'bogus'"):
            solve(self.INST, "bogus", 2)

    @pytest.mark.parametrize("e", SCALE_EXPONENTS)
    def test_tour_lengths_are_their_routes(self, e):
        # exact groups, split groups and ITP alike: every tour's length is
        # tour_length of its route, bit for bit, at every power-of-two scale
        rng = np.random.default_rng(131)
        group_sizes = set()
        for _ in range(8):
            inst = scaled_instance(random_instance(rng, max_n=60, max_k=8, min_n=20), e)
            for algo, M in (("sweep", 1), ("sweep", 3), ("itp", 1)):
                for t in solve(inst, algo, M).tours:
                    route = [inst.terminals[i] for i in t.indices]
                    assert t.length == tour_length(inst.depot, route)
                group_sizes.update(map(len, sweep_groups(inst, M)))
        assert min(group_sizes) <= EXACT_GROUP_THRESHOLD < max(group_sizes)

    @pytest.mark.parametrize("algo", experiments.ALGOS)
    def test_rejects_nonpositive_M_for_every_algo(self, algo):
        # ITP ignores M, but accepted M = -5 where the sweep raised
        for M in (0, -5):
            with pytest.raises(ValueError, match="M must be >= 1"):
                solve(self.INST, algo, M)

    @pytest.mark.parametrize("algo, solver",
                             [("sweep", "sweep_solve"), ("itp", "itp_solve")])
    def test_infeasible_solution_raises(self, monkeypatch, algo, solver):
        # a solver that drops a tour: solve raises instead of returning its cost
        def dropped(*args, **kwargs):
            sol = sweep_solve(self.INST, 2)
            return Solution(tours=sol.tours[1:])

        monkeypatch.setattr(experiments, solver, dropped)
        with pytest.raises(ValueError, match="infeasible solution"):
            solve(self.INST, algo, 2)


class TestGenInstance:
    def test_empty(self):
        inst = gen_instance(0, 1, Point(0.5, 0.5), seed=0)
        assert inst.n == 0

    def test_deterministic(self):
        a = gen_instance(50, 5, Point(0.5, 0.5), seed=123)
        b = gen_instance(50, 5, Point(0.5, 0.5), seed=123)
        assert a.terminals == b.terminals

    def test_seeds_differ(self):
        a = gen_instance(50, 5, Point(0.5, 0.5), seed=1)
        b = gen_instance(50, 5, Point(0.5, 0.5), seed=2)
        assert a.terminals != b.terminals

    def test_in_unit_square(self):
        inst = gen_instance(500, 5, Point(0.5, 0.5), seed=7)
        assert all(0.0 <= p.x < 1.0 and 0.0 <= p.y < 1.0 for p in inst.terminals)

    def test_mean_distance_matches_g1(self):
        depot = Point(0.25, 0.7)
        inst = gen_instance(100_000, 10, depot, seed=11)
        ds = np.array([dist(depot, p) for p in inst.terminals])
        se = ds.std() / math.sqrt(len(ds))
        assert abs(ds.mean() - g1(depot.x, depot.y)) <= 4 * se


class TestResolveK:
    def test_fixed(self):
        assert resolve_k(100, k_fixed=7) == 7

    def test_alpha(self):
        assert resolve_k(100, k_alpha=0.5) == 10
        assert resolve_k(5000, k_alpha=0.5) == 71
        assert resolve_k(100, k_alpha=0.0) == 1
        assert resolve_k(100, k_alpha=1.0) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            resolve_k(100)
        with pytest.raises(ValueError):
            resolve_k(100, k_fixed=3, k_alpha=0.5)
        with pytest.raises(ValueError):
            resolve_k(10, k_fixed=11)
        with pytest.raises(ValueError):
            resolve_k(100, k_alpha=1.5)
        # a non-real alpha raised TypeError ('<=' not supported)
        for bad in ("0.5", 0.5 + 0j, 1j, [0.5]):
            with pytest.raises(ValueError, match="k_alpha must be a real number, got "):
                resolve_k(100, k_alpha=bad)
            with pytest.raises(ValueError, match="k_alpha must be a real number, got "):
                ExperimentConfig(n=100, depot=Point(0.5, 0.5), M=2, seeds=(0,),
                                 k_alpha=bad)
        for bad in (math.nan, -0.5, np.float64(2.0), Fraction(3, 2)):
            with pytest.raises(ValueError, match="k_alpha must be in \\[0, 1\\]"):
                resolve_k(100, k_alpha=bad)
        # any real alpha in [0, 1] reads as its float
        for alpha in (np.float64(0.5), np.float32(0.5), Fraction(1, 2), True, 0):
            assert resolve_k(100, k_alpha=alpha) == resolve_k(100, k_alpha=float(alpha))


class TestRunRatioExperiment:
    def _config(self, **kwargs):
        defaults = dict(
            n=8, depot=Point(0.5, 0.5), M=2, seeds=(0, 1, 2), k_fixed=2,
        )
        defaults.update(kwargs)
        return ExperimentConfig(**defaults)

    def test_rejects_nonpositive_M(self):
        for M in (0, -1):
            with pytest.raises(ValueError, match="M must be >= 1"):
                self._config(M=M)

    @pytest.mark.parametrize("depot", [Point(math.inf, 0.5), Point(0.5, math.nan)])
    def test_rejects_non_finite_depot(self, depot):
        with pytest.raises(ValueError, match="non-finite depot"):
            self._config(depot=depot)

    def test_rejects_too_large_depot(self):
        with pytest.raises(ValueError, match="too large depot"):
            self._config(depot=Point(1e160, 0.5))

    def test_rejects_out_of_range_seeds(self):
        for seeds in ((0, -1), (2 ** 128,)):
            with pytest.raises(ValueError, match=r"seeds must be in 0 \.\. 2\*\*128 - 1"):
                self._config(seeds=seeds)
        self._config(seeds=(0, 2 ** 128 - 1))

    def test_seed_range_has_one_home(self, monkeypatch):
        # gen_instance's check_seed reads every seed of a config, and its
        # message names the seed that failed
        for seed, message in ((-1, "seed must be >= 0, got -1"),
                              (2 ** 128, f"seed must be < 2\\*\\*128, got {2 ** 128}")):
            with pytest.raises(ValueError, match=message):
                gen_instance(3, 1, Point(0.5, 0.5), seed)
            with pytest.raises(ValueError, match=message):
                self._config(seeds=(0, seed))
        assert gen_instance(1, 1, Point(0.5, 0.5), 2 ** 128 - 1).n == 1
        seen = []
        monkeypatch.setattr(experiments, "check_seed", lambda s: seen.append(s) or s)
        self._config(seeds=(4, 2, 9))
        assert seen == [4, 2, 9]

    def test_rejects_unknown_tsp_mode(self):
        with pytest.raises(ValueError, match="unknown tsp mode: 'bogus'"):
            self._config(n=1, k_fixed=1, algos=("sweep",), tsp_mode="bogus")

    def test_k_fixed_is_an_integer(self):
        # 4.5 built a config with k = 4.5, and the run failed only at its
        # first instance
        for bad in (4.5, 4.0, "4"):
            with pytest.raises(ValueError, match="k_fixed must be an int"):
                self._config(k_fixed=bad)
        config = self._config(k_fixed=np.int64(4))
        assert type(config.k) is int and config.k == 4

    def test_rejects_empty_or_repeated_algos(self):
        for algos in ((), ("sweep", "sweep"), ("itp", "sweep", "itp")):
            with pytest.raises(ValueError, match="distinct and nonempty"):
                self._config(algos=algos)

    def test_rejects_empty_or_repeated_seeds(self):
        for seeds in ((), (0, 0), (1, 2, 1)):
            with pytest.raises(ValueError, match="seeds must be distinct and nonempty"):
                self._config(seeds=seeds)

    def test_schema_and_order(self):
        result = run_ratio_experiment(self._config())
        assert [r.seed for r in result.rows] == [0, 0, 1, 1, 2, 2]
        assert {r.algo for r in result.rows} == {"sweep", "itp"}
        for row in result.rows:
            assert row.n == 8 and row.k == 2
            assert row.best_lb == max(row.lb_r0, row.lb_rstar, row.lb_rinf)
            assert row.cost <= row.ub + 1e-9
            assert row.certified

    def test_small_instance_mode_limit_is_the_dp_cap(self, monkeypatch):
        # the denominator is the group DP over every terminal, so the mode
        # takes at most EXACT_GROUP_THRESHOLD = 12 terminals at any k; n = 13
        # raises in the config, before any bound or optimum. While the brute
        # force gave the optimum, n = 12 and n = 10 at k = 10 were refused
        def never(*args, **kwargs):
            raise AssertionError("a bound or the optimum was computed")

        for k in (1, 3, 13):
            with monkeypatch.context() as patch:
                patch.setattr(experiments, "BoundContext", never)
                patch.setattr(experiments, "cvrp_exact_small", never)
                with pytest.raises(ValueError, match="small-instance mode takes at most "
                                                     "12 terminals, got n = 13"):
                    run_ratio_experiment(self._config(n=13, k_fixed=k,
                                                      small_instance_mode=True))
            self._config(n=13, k_fixed=k)  # without the mode, the size is not limited
        for n, k in ((12, 1), (12, 3), (12, 12), (10, 10)):
            result = run_ratio_experiment(self._config(n=n, k_fixed=k, seeds=(0,),
                                                       small_instance_mode=True))
            assert all(row.ratio >= 1.0 - 1e-9 for row in result.rows)

    def test_rejects_negative_n(self):
        # both constructed, and the run failed only in gen_instance, after
        # choose_R
        for k in (dict(k_fixed=1), dict(k_fixed=None, k_alpha=0.5)):
            with pytest.raises(ValueError, match="n must be >= 0, got -3"):
                self._config(n=-3, **k)
        self._config(n=0, k_fixed=1)

    def test_small_instance_mode_ratio_at_least_one(self):
        result = run_ratio_experiment(self._config(small_instance_mode=True))
        for row in result.rows:
            assert row.certified
            assert row.ratio >= 1.0 - 1e-9

    @pytest.mark.parametrize("lattice, n, k", [
        (False, 9, 3), (True, 9, 3), (True, 8, 4), (True, 10, 2), (True, 7, 7),
    ])
    def test_small_instance_ratio_keeps_the_brute_force_bits(self, monkeypatch,
                                                              lattice, n, k):
        # the replaced denominator, brute_force_opt, kept as the reference:
        # the group DP over every terminal gives every ratio the same bits,
        # also on a lattice with duplicates around a depot on a lattice point,
        # where many partitions tie
        def lattice_instance(n, k, depot, seed):
            xy = np.random.default_rng(seed).integers(0, 3, (n, 2)) / 2
            return Instance(terminals=tuple(map(Point._make, xy.tolist())),
                            depot=depot, capacity=k)

        make, built = lattice_instance if lattice else gen_instance, {}

        def record(n, k, depot, seed):
            built[seed] = make(n, k, depot, seed)
            return built[seed]

        monkeypatch.setattr(experiments, "gen_instance", record)
        result = run_ratio_experiment(self._config(n=n, k_fixed=k, seeds=range(5),
                                                   small_instance_mode=True))
        assert len(result.rows) == 10
        for row in result.rows:
            assert row.ratio == row.cost / brute_force_opt(built[row.seed]), row

    def test_heuristic_mode_marks_uncertified(self):
        config = self._config(n=30, k_fixed=3, tsp_mode="heuristic", seeds=(0,))
        result = run_ratio_experiment(config)
        assert all(not row.certified for row in result.rows)
        # R = inf bound needs no TSP, so a certified lb still exists
        assert all(v > -math.inf for v in result.best_certified_lb.values())

    def test_mean_certified_ratio(self):
        result = run_ratio_experiment(self._config(n=40, k_fixed=4,
                                                   tsp_mode="auto", seeds=(0, 1)))
        mean = mean_certified_ratio(result, "sweep")
        assert math.isfinite(mean) and mean > 0

    def test_csv_round_trip(self):
        result = run_ratio_experiment(self._config())
        buf = io.StringIO()
        write_csv(result, buf)
        text = buf.getvalue()
        assert text.startswith("#")  # caveat comment present
        assert CSV_HEADER in text
        back = read_csv(io.StringIO(text))
        assert len(back) == len(result.rows)
        for got, want in zip(back, result.rows):
            for field in got.__dataclass_fields__:
                g, w = getattr(got, field), getattr(want, field)
                if isinstance(g, float) and math.isnan(w):
                    assert math.isnan(g)  # vacuous lower bound -> nan ratio
                else:
                    assert g == w, field

    def test_clustered_far_terminals(self):
        # all terminals at one far point, k=1: sweep = itp = 2 n d and the
        # R=inf bound is 2 n d / k - 3 pi D / 2, so the ratio approaches 1
        # as n grows
        from sweepcvrp.bounds import lower_bound
        from sweepcvrp.geometry import Instance
        from sweepcvrp.itp import itp_solve
        from sweepcvrp.sweep import sweep_solve

        far = Point(10.0, 10.0)
        n = 200
        inst = Instance(terminals=(far,) * n, depot=Point(0, 0), capacity=1)
        d = dist(Point(0, 0), far)
        sweep_cost = sweep_solve(inst, 1).total_cost
        itp_cost = itp_solve(inst, tsp_mode="heuristic").total_cost
        assert sweep_cost == pytest.approx(2 * n * d, abs=1e-6)
        assert itp_cost == pytest.approx(2 * n * d, abs=1e-6)
        lb, valid = lower_bound(inst, math.inf)
        assert valid
        assert lb == pytest.approx(2 * n * d - 1.5 * math.pi * d, abs=1e-6)
        assert 1.0 - 1e-9 <= sweep_cost / lb <= 1.05


class TestBoundReuse:
    @staticmethod
    def counted(monkeypatch, name):
        """The point sets of every call to tsp.`name`, in call order."""
        tours = []
        real = getattr(tsp, name)

        def counted(points, *args):
            tours.append(frozenset(points))
            return real(points, *args)

        monkeypatch.setattr(tsp, name, counted)
        return tours

    def test_full_terminal_set_toured_once_per_call(self, monkeypatch):
        tours = self.counted(monkeypatch, "tsp_heuristic")
        config = ExperimentConfig(n=60, depot=Point(0.5, 0.5), M=2, seeds=(4,),
                                  k_fixed=5)
        terminals = frozenset(gen_instance(60, 5, config.depot, 4).terminals)
        run_ratio_experiment(config)
        first = list(tours)
        # ITP's tour over the depot and the terminals serves ITP's cost,
        # lb_r0 and both upper bounds: no point set is toured twice, and the
        # terminals alone are never toured
        assert len(first) >= 2 and len(set(first)) == len(first)
        assert terminals not in first
        assert first.count(terminals | {config.depot}) == 1
        # nothing is cached across calls
        run_ratio_experiment(config)
        assert tours[len(first):] == first

    def test_exact_t0_at_the_threshold(self, monkeypatch):
        tours = self.counted(monkeypatch, "tsp_exact")
        tables = []

        def held_karp(points, size=None, _real=tsp.held_karp):
            tables.append(tuple(points))
            return _real(points, size)

        monkeypatch.setattr(bounds_module, "held_karp", held_karp)
        monkeypatch.setattr(tsp, "held_karp", held_karp)
        config = ExperimentConfig(n=14, depot=Point(0.5, 0.5), M=2, seeds=(3,),
                                  k_fixed=6)
        instance = gen_instance(14, 6, config.depot, 3)
        result = run_ratio_experiment(config)
        # the terminals' one Held-Karp table is the one BoundContext keeps
        # and reads T*_0 from; tsp_exact, which built it until the context
        # kept it, never runs over them
        terminals = instance.terminals
        assert tables.count(terminals) == 1
        assert tours.count(frozenset(instance.terminals)) == 0
        t_zero = tsp.tsp_exact(list(instance.terminals)).length
        D = instance_diameter(instance)
        for row in result.rows:
            assert row.certified
            assert row.lb_r0 == t_zero + 0.0 - 1.5 * math.pi * D


# CSV rows recorded with the neighbour-list local search (2-opt + Or-opt).
# Every value that rests on a heuristic tour moved with it: cost (group and
# ITP tours), lb_r0 and lb_rstar (heuristic T*_R), best_lb, ub (T*_0) and
# ratio. lb_rinf needs no tour and kept its bits. lb_r0 and ub were
# re-recorded when the heuristic T*_0 became ITP's tour with the depot
# shortcut instead of a second tour over the terminals (lb_r0 was
# 5.233943547315621 and 5.608262794404761, ub 72.87261803849002,
# 116.75546333262447, 70.70215926015311 and 112.96898301122626); lb_rstar
# is the largest bound here, so best_lb and ratio kept their bits. Each row
# was extended, not changed, when the CSV gained best_certified_lb and
# certified_ratio: its first 13 fields kept their bits. The sweep rows' cost,
# ratio and certified_ratio were re-recorded when every heuristic sweep
# group's routes gained group_cvrp.depot_two_opt (cost 21.685385141708267 and
# 20.508056757122215, ratio 2.02324051348726 and 2.066069309279643,
# certified_ratio 4.381863618592019 and 4.351639426100004); the ITP rows and
# every lb_*, best_lb and ub column kept their bits, since ITP and T*_0 carry
# no pass.
GOLDEN_ROWS = [
    "0,200,14,2,sweep,20.792303152912975,4.964727090181817,10.718144974435742,"
    "4.948895499553731,10.718144974435742,72.60340158135621,1.9399162077491483,false,"
    "4.948895499553731,4.201402748307765",
    "0,200,14,1,itp,21.04760529825976,4.964727090181817,10.718144974435742,"
    "4.948895499553731,10.718144974435742,116.48624687549068,1.963735828211058,false,"
    "4.948895499553731,4.252990450123212",
    "1,200,14,2,sweep,19.714849423092474,4.9679851209060955,9.92612235466223,"
    "4.712719678500984,9.92612235466223,70.06188158665444,1.9861582115026568,false,"
    "4.712719678500984,4.183327413474197",
    "1,200,14,1,itp,20.58245944867454,4.9679851209060955,9.92612235466223,"
    "4.712719678500984,9.92612235466223,112.3287053377276,2.0735649544967685,false,"
    "4.712719678500984,4.367427059701837",
]


def test_golden_rows_bit_identical():
    config = ExperimentConfig(n=200, depot=Point(0.5, 0.5), M=2, seeds=(0, 1),
                              k_fixed=14)
    result = run_ratio_experiment(config)
    assert [row.to_csv() for row in result.rows] == GOLDEN_ROWS
    assert repr(result.best_certified_lb) == "{0: 4.948895499553731, 1: 4.712719678500984}"


# n = 14 runs every exact path: Held-Karp T*_R at the 14-point threshold and
# the group set-partition DP. Recorded with the pure-Python subset DPs. The
# ITP tour has 15 points (depot included), so it is heuristic: the seed-1 ITP
# cost was re-recorded with the neighbour-list local search (4.398467815989088
# before). Every sweep row and every lower bound kept its bits then. With the
# length rule (each length the fsum of its edges, same tours) the exact T*_R
# moved lb_r0, lb_rstar and best_lb by a few ulps, ub with T*_0, and the costs
# with the split and group-DP tour lengths; lb_rinf kept its bits. Extended
# with best_certified_lb and certified_ratio (nan: every bound is vacuous).
GOLDEN_ROWS_EXACT = [
    "0,14,6,2,sweep,5.03704093353431,-2.4242604941910506,-1.158405827253926,"
    "-3.71753040009891,-1.158405827253926,16.83611178842688,nan,true,"
    "-1.158405827253926,nan",
    "0,14,6,1,itp,4.627325678105276,-2.4242604941910506,-1.158405827253926,"
    "-3.71753040009891,-1.158405827253926,22.58058745910609,nan,true,"
    "-1.158405827253926,nan",
    "1,14,6,2,sweep,4.398467815989088,-1.5970688844848362,-0.5232117138077905,"
    "-3.0970681026937332,-0.5232117138077905,15.562448146852617,nan,true,"
    "-0.5232117138077905,nan",
    "1,14,6,1,itp,4.73448066212062,-1.5970688844848362,-0.5232117138077905,"
    "-3.0970681026937332,-0.5232117138077905,20.626594430360417,nan,true,"
    "-0.5232117138077905,nan",
    "2,14,6,2,sweep,4.572551197875033,-2.8060788019286305,-1.663967705790828,"
    "-4.30270125312394,-1.663967705790828,18.115042941487516,nan,true,"
    "-1.663967705790828,nan",
    "2,14,6,1,itp,4.572551197875033,-2.8060788019286305,-1.663967705790828,"
    "-4.30270125312394,-1.663967705790828,24.420998690622536,nan,true,"
    "-1.663967705790828,nan",
    "3,14,6,2,sweep,4.849275426983122,-2.2631596547237516,-1.457983976247589,"
    "-4.248500240391932,-1.457983976247589,17.865982984518205,nan,true,"
    "-1.457983976247589,nan",
    "3,14,6,1,itp,4.743459079534506,-2.2631596547237516,-1.457983976247589,"
    "-4.248500240391932,-1.457983976247589,23.960393704426675,nan,true,"
    "-1.457983976247589,nan",
]


def test_golden_rows_exact_bit_identical():
    config = ExperimentConfig(n=14, depot=Point(0.5, 0.5), M=2, seeds=(0, 1, 2, 3),
                              k_fixed=6)
    result = run_ratio_experiment(config)
    assert [row.to_csv() for row in result.rows] == GOLDEN_ROWS_EXACT
    assert repr(result.best_certified_lb) == (
        "{0: -1.158405827253926, 1: -0.5232117138077905, 2: -1.663967705790828, "
        "3: -1.457983976247589}"
    )


# The same runs at a far depot, recorded before the Held-Karp and partition
# tables were cached per size: here too the sweep groups (12 terminals) and
# every T*_R are exact. Re-recorded for the length rule, as above: lb_r0,
# lb_rstar and three costs moved by a few ulps, with the same tours. Extended
# with the two certified columns, as above.
GOLDEN_ROWS_EXACT_FAR = [
    "0,14,6,2,sweep,23.328912350510127,-15.098338300398046,-2.682775444762317,"
    "-2.036601551269513,-2.036601551269513,56.539274055877264,nan,true,"
    "-2.036601551269513,nan",
    "0,14,6,1,itp,22.944287144356682,-15.098338300398046,-2.682775444762317,"
    "-2.036601551269513,-2.036601551269513,74.95782753276347,nan,true,"
    "-2.036601551269513,nan",
    "1,14,6,2,sweep,23.027412339146185,-15.05495263313024,-2.639389777494511,"
    "-2.0261134826510023,-2.0261134826510023,57.00705401283156,nan,true,"
    "-2.0261134826510023,nan",
    "1,14,6,1,itp,22.667521908023893,-15.05495263313024,-2.639389777494511,"
    "-2.0261134826510023,-2.0261134826510023,75.52908404498476,nan,true,"
    "-2.0261134826510023,nan",
    "2,14,6,2,sweep,23.811084742958187,-15.676321835663419,-3.260758980027692,"
    "-2.2241118522697505,-2.2241118522697505,58.80436144354607,nan,true,"
    "-2.2241118522697505,nan",
    "2,14,6,1,itp,23.676146480943576,-15.676321835663419,-3.260758980027692,"
    "-2.2241118522697505,-2.2241118522697505,77.98056022641589,nan,true,"
    "-2.2241118522697505,nan",
    "3,14,6,2,sweep,23.419429769071616,-15.917416457602634,-3.5018536019669035,"
    "-3.3220360230941246,-3.3220360230941246,59.75521761045266,nan,true,"
    "-3.3220360230941246,nan",
    "3,14,6,1,itp,22.75941231177911,-15.917416457602634,-3.5018536019669035,"
    "-3.3220360230941246,-3.3220360230941246,79.50388513324,nan,true,"
    "-3.3220360230941246,nan",
]


def test_golden_rows_exact_far_depot_bit_identical():
    config = ExperimentConfig(n=14, depot=Point(3.0, -2.0), M=2, seeds=(0, 1, 2, 3),
                              k_fixed=6)
    result = run_ratio_experiment(config)
    assert [row.to_csv() for row in result.rows] == GOLDEN_ROWS_EXACT_FAR
    assert repr(result.best_certified_lb) == (
        "{0: -2.036601551269513, 1: -2.0261134826510023, 2: -2.2241118522697505, "
        "3: -3.3220360230941246}"
    )


# The three golden runs and one in heuristic mode, where only lb_rinf is
# certified.
CERTIFIED_COLUMN_RUNS = {
    "golden": dict(n=200, depot=Point(0.5, 0.5), seeds=(0, 1), k_fixed=14),
    "golden-exact": dict(n=14, depot=Point(0.5, 0.5), seeds=(0, 1, 2, 3), k_fixed=6),
    "golden-exact-far": dict(n=14, depot=Point(3.0, -2.0), seeds=(0, 1, 2, 3),
                             k_fixed=6),
    "heuristic": dict(n=200, depot=Point(0.5, 0.5), seeds=(0, 1), k_fixed=14,
                      tsp_mode="heuristic"),
}


@pytest.fixture(scope="module", params=list(CERTIFIED_COLUMN_RUNS))
def certified_run(request):
    config = ExperimentConfig(M=2, **CERTIFIED_COLUMN_RUNS[request.param])
    return config, run_ratio_experiment(config)


def _side_dict(config):
    """{seed: best certified lower bound} as run_ratio_experiment kept it
    before the rows carried it: the reference for the column."""
    rstar = choose_R(config.depot)
    side = {}
    for seed in config.seeds:
        bounds = BoundContext(gen_instance(config.n, config.k, config.depot, seed),
                              config.tsp_mode, seed)
        lbs, valid = zip(*(bounds.lower(R) for R in (0.0, rstar, math.inf)))
        side[seed] = max(v for v, ok in zip(lbs, valid) if ok)
    return side


def _side_dict_mean(result, side, algo):
    """mean_certified_ratio's formula over the side dict, before the column."""
    ratios = [row.cost / side[row.seed] for row in result.rows
              if row.algo == algo and side[row.seed] > 0.0]
    if not ratios:
        return math.nan
    return math.fsum(ratios) / len(ratios)


class TestCertifiedColumns:
    def test_best_certified_lb_is_the_certified_maximum(self, certified_run):
        config, result = certified_run
        side = _side_dict(config)
        for row in result.rows:
            bounds = BoundContext(gen_instance(row.n, row.k, config.depot, row.seed),
                                  config.tsp_mode, row.seed).lower_bounds(
                                      choose_R(config.depot))
            assert [b.value for b in bounds.values()] == [
                row.lb_r0, row.lb_rstar, row.lb_rinf]
            want = max(b.value for b in bounds.values() if b.certified)
            assert repr(row.best_certified_lb) == repr(want) == repr(side[row.seed])
        assert repr(result.best_certified_lb) == repr(side)

    def test_certified_ratio_is_the_ratio_helper(self, certified_run):
        _, result = certified_run
        for row in result.rows:
            want = experiments._ratio(row.cost, row.best_certified_lb)
            assert repr(row.certified_ratio) == repr(want)
            assert math.isnan(want) == (row.best_certified_lb <= 0.0)

    def test_csv_round_trip(self, certified_run):
        _, result = certified_run
        buf = io.StringIO()
        write_csv(result, buf)
        back = read_csv(io.StringIO(buf.getvalue()))
        assert [row.to_csv() for row in back] == [row.to_csv() for row in result.rows]

    def test_mean_is_the_side_dict_formula(self, certified_run):
        config, result = certified_run
        side = _side_dict(config)
        for algo in config.algos:
            assert repr(mean_certified_ratio(result, algo)) == repr(
                _side_dict_mean(result, side, algo))


def test_every_lower_bound_is_a_column():
    """A bound added to lower_bounds without its column (or the reverse)
    fails here; the bound tuples are not unpacked by hand any more."""
    inst = gen_instance(20, 4, Point(0.5, 0.5), 0)
    names = list(BoundContext(inst).lower_bounds(choose_R(inst.depot)))
    assert names == [f.name for f in dataclasses.fields(RatioRow)
                     if f.name.startswith("lb_")]
    src = Path(experiments.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py"))
            if re.search(r"zip\(\*.*(lower|upper|local|bound)", p.read_text())] == []


class TestCsvParsing:
    def test_skips_comments_and_header(self):
        text = "# caveat\n" + CSV_HEADER + "\n"
        assert read_csv(io.StringIO(text)) == []

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            read_csv(io.StringIO("1,2,3\n"))

    def test_rejects_the_13_column_format(self):
        # a CSV written before best_certified_lb and certified_ratio
        old = ",".join(GOLDEN_ROWS[0].split(",")[:13])
        with pytest.raises(ValueError, match="expected 15 fields, got 13"):
            read_csv(io.StringIO(old + "\n"))

    def test_header_is_field_names(self):
        assert CSV_HEADER == (
            "seed,n,k,M,algo,cost,lb_r0,lb_rstar,lb_rinf,best_lb,ub,ratio,certified,"
            "best_certified_lb,certified_ratio")

    def test_bool_is_true_or_false(self):
        values = GOLDEN_ROWS_EXACT[0].split(",")
        assert values[12] == "true"  # certified

        def with_certified(text):
            return ",".join(values[:12] + [text] + values[13:])

        assert parse_csv_row(with_certified("true")).certified is True
        assert parse_csv_row(with_certified("false")).certified is False
        for bad in ("TRUE", "1"):
            with pytest.raises(ValueError, match="expected true or false"):
                parse_csv_row(with_certified(bad))
