import io
import math

import numpy as np
import pytest

import sweepcvrp.tsp as tsp
from sweepcvrp.closedform import g1
from sweepcvrp.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    gen_instance,
    mean_certified_ratio,
    parse_csv_row,
    read_csv,
    resolve_k,
    run_ratio_experiment,
    solve,
    write_csv,
)
from sweepcvrp.geometry import Point, dist
from sweepcvrp.group_cvrp import SolveConfig
from sweepcvrp.itp import itp_solve
from sweepcvrp.sweep import sweep_solve


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


class TestRunRatioExperiment:
    def _config(self, **kwargs):
        defaults = dict(
            n=8, depot=Point(0.5, 0.5), M=2, seeds=(0, 1, 2), k_fixed=2,
            tsp_mode="exact",
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

    def test_rejects_unknown_tsp_mode(self):
        with pytest.raises(ValueError, match="unknown tsp mode: 'bogus'"):
            self._config(n=1, k_fixed=1, algos=("sweep",), tsp_mode="bogus")

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

    def test_small_instance_mode_ratio_at_least_one(self):
        result = run_ratio_experiment(self._config(small_instance_mode=True))
        for row in result.rows:
            assert row.certified
            assert row.ratio >= 1.0 - 1e-9

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
    def test_full_terminal_set_toured_once_per_call(self, monkeypatch):
        tours = []
        real = tsp.tsp_heuristic

        def counted(points, seed=0):
            tours.append(frozenset(points))
            return real(points, seed)

        monkeypatch.setattr(tsp, "tsp_heuristic", counted)
        config = ExperimentConfig(n=60, depot=Point(0.5, 0.5), M=2, seeds=(4,),
                                  k_fixed=5)
        terminals = frozenset(gen_instance(60, 5, config.depot, 4).terminals)
        run_ratio_experiment(config)
        first = list(tours)
        # T*_0 serves lb_r0 and both upper bounds
        assert first.count(terminals) == 1
        # nothing is cached across calls
        run_ratio_experiment(config)
        assert tours[len(first):] == first


# CSV rows recorded with the bound code that built T*_0 once per bound and
# the 2-opt kernel that recomputed every edge length at every step.
GOLDEN_ROWS = [
    "0,200,14,2,sweep,22.149507684330793,5.44071358070705,11.008064583644853,"
    "4.948895499553731,11.008064583644853,73.07938807188144,2.012116436638576,false",
    "0,200,14,1,itp,21.675018083790828,5.44071358070705,11.008064583644853,"
    "4.948895499553731,11.008064583644853,116.96223336601591,1.9690126197110362,false",
    "1,200,14,2,sweep,20.763471612646573,5.4278045481997355,10.07004775168772,"
    "4.712719678500984,10.07004775168772,70.52170101394807,2.061903987413233,false",
    "1,200,14,1,itp,20.564196988612903,5.4278045481997355,10.07004775168772,"
    "4.712719678500984,10.07004775168772,112.78852476502124,2.04211514142685,false",
]


def test_golden_rows_bit_identical():
    config = ExperimentConfig(n=200, depot=Point(0.5, 0.5), M=2, seeds=(0, 1),
                              k_fixed=14)
    result = run_ratio_experiment(config)
    assert [row.to_csv() for row in result.rows] == GOLDEN_ROWS
    assert repr(result.best_certified_lb) == "{0: 4.948895499553731, 1: 4.712719678500984}"


# n = 14 runs every exact path: Held-Karp T*_R at the 14-point threshold and
# the group set-partition DP. Recorded with the pure-Python subset DPs.
GOLDEN_ROWS_EXACT = [
    "0,14,6,2,sweep,5.03704093353431,-2.424260494191051,-1.158405827253926,"
    "-3.71753040009891,-1.158405827253926,16.83611178842688,nan,true",
    "0,14,6,1,itp,4.627325678105276,-2.424260494191051,-1.158405827253926,"
    "-3.71753040009891,-1.158405827253926,22.58058745910609,nan,true",
    "1,14,6,2,sweep,4.398467815989088,-1.5970688844848366,-0.5232117138077914,"
    "-3.0970681026937332,-0.5232117138077914,15.562448146852617,nan,true",
    "1,14,6,1,itp,4.398467815989088,-1.5970688844848366,-0.5232117138077914,"
    "-3.0970681026937332,-0.5232117138077914,20.626594430360413,nan,true",
    "2,14,6,2,sweep,4.572551197875033,-2.806078801928631,-1.663967705790828,"
    "-4.30270125312394,-1.663967705790828,18.115042941487516,nan,true",
    "2,14,6,1,itp,4.572551197875033,-2.806078801928631,-1.663967705790828,"
    "-4.30270125312394,-1.663967705790828,24.420998690622532,nan,true",
    "3,14,6,2,sweep,4.849275426983122,-2.263159654723752,-1.45798397624759,"
    "-4.248500240391932,-1.45798397624759,17.8659829845182,nan,true",
    "3,14,6,1,itp,4.743459079534506,-2.263159654723752,-1.45798397624759,"
    "-4.248500240391932,-1.45798397624759,23.960393704426675,nan,true",
]


def test_golden_rows_exact_bit_identical():
    config = ExperimentConfig(n=14, depot=Point(0.5, 0.5), M=2, seeds=(0, 1, 2, 3),
                              k_fixed=6)
    result = run_ratio_experiment(config)
    assert [row.to_csv() for row in result.rows] == GOLDEN_ROWS_EXACT
    assert repr(result.best_certified_lb) == (
        "{0: -1.158405827253926, 1: -0.5232117138077914, 2: -1.663967705790828, "
        "3: -1.45798397624759}"
    )


class TestCsvParsing:
    def test_skips_comments_and_header(self):
        text = "# caveat\n" + CSV_HEADER + "\n"
        assert read_csv(io.StringIO(text)) == []

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            read_csv(io.StringIO("1,2,3\n"))

    def test_header_is_field_names(self):
        assert CSV_HEADER == (
            "seed,n,k,M,algo,cost,lb_r0,lb_rstar,lb_rinf,best_lb,ub,ratio,certified")

    def test_bool_is_true_or_false(self):
        row = GOLDEN_ROWS_EXACT[0]
        assert parse_csv_row(row).certified is True
        assert parse_csv_row(row[: -len("true")] + "false").certified is False
        for bad in ("TRUE", "1"):
            with pytest.raises(ValueError, match="expected true or false"):
                parse_csv_row(row[: -len("true")] + bad)
