import math

import numpy as np
import pytest

from sweepcvrp.bounds import upper_bound_formula
from sweepcvrp.bruteforce import brute_force_opt
from sweepcvrp.geometry import Instance, Point, dist
from sweepcvrp.group_cvrp import SolveConfig, solve_group
from sweepcvrp.itp import itp_solve
from sweepcvrp.sweep import sweep_groups, sweep_solve
from sweepcvrp.tsp import tsp_exact

from helpers import random_instance, solution_is_feasible

CROSS_INSTANCE = Instance(
    terminals=(Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)),
    depot=Point(0, 0),
    capacity=2,
)


class TestSweep:
    def test_cross_example(self):
        sol = sweep_solve(CROSS_INSTANCE, M=1)
        assert sol.total_cost == pytest.approx(2 * (2 + math.sqrt(2)), abs=1e-9)
        assert len(sol.tours) == 2
        assert solution_is_feasible(CROSS_INSTANCE, sol)

    def test_single_group_equals_solve_group(self):
        rng = np.random.default_rng(103)
        inst = random_instance(rng, max_n=8, max_k=3)
        M = math.ceil(inst.n / inst.capacity)  # forces one group
        sol = sweep_solve(inst, M)
        direct = solve_group(list(inst.terminals), inst.depot, inst.capacity)
        assert sol.total_cost == pytest.approx(direct.total_cost, abs=1e-9)

    def test_empty_instance(self):
        inst = Instance(terminals=(), depot=Point(0, 0), capacity=1)
        sol = sweep_solve(inst, M=3)
        assert sol.total_cost == 0.0
        assert sol.tours == ()

    def test_groups_are_sorted_blocks(self):
        rng = np.random.default_rng(107)
        inst = random_instance(rng, max_n=30, max_k=3, min_n=10)
        for M in (1, 2):
            groups = sweep_groups(inst, M)
            block = M * inst.capacity
            flat = [i for g in groups for i in g]
            assert sorted(flat) == list(range(inst.n))
            assert all(len(g) == block for g in groups[:-1])
            assert 1 <= len(groups[-1]) <= block
            # output tours stay inside their group
            sol = sweep_solve(inst, M)
            group_of = {i: gi for gi, g in enumerate(groups) for i in g}
            for tour in sol.tours:
                owners = {group_of[i] for i in tour.indices}
                assert len(owners) == 1

    def test_feasibility_random(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            inst = random_instance(rng, max_n=25, max_k=4)
            sol = sweep_solve(inst, M=int(rng.integers(1, 4)))
            assert solution_is_feasible(inst, sol)

    def test_deterministic(self):
        rng = np.random.default_rng(113)
        inst = random_instance(rng, max_n=40, max_k=4, min_n=30)
        a = sweep_solve(inst, M=2, config=SolveConfig(seed=7))
        b = sweep_solve(inst, M=2, config=SolveConfig(seed=7))
        assert a == b

    def test_m_validation(self):
        with pytest.raises(ValueError):
            sweep_solve(CROSS_INSTANCE, M=0)

    def test_rejects_unknown_tsp_mode(self):
        # a 3-terminal instance dispatches no TSP, so only the config can
        # catch the mode
        with pytest.raises(ValueError, match="unknown tsp mode: 'bogus'"):
            sweep_solve(CROSS_INSTANCE, 2, SolveConfig(tsp_mode="bogus"))


class TestItp:
    def test_single_terminal(self):
        inst = Instance(terminals=(Point(0.6, 0.8),), depot=Point(0, 0), capacity=1)
        sol = itp_solve(inst)
        assert sol.total_cost == pytest.approx(2.0, abs=1e-12)

    def test_everything_fits_one_tour(self):
        rng = np.random.default_rng(127)
        pts = tuple(Point(float(x), float(y))
                    for x, y in rng.uniform(0, 1, size=(6, 2)))
        inst = Instance(terminals=pts, depot=Point(0.5, 0.5), capacity=6)
        sol = itp_solve(inst, tsp_mode="exact")
        tsp = tsp_exact([inst.depot, *pts])
        assert len(sol.tours) == 1
        assert sol.total_cost == pytest.approx(tsp.length, abs=1e-9)

    def test_cross_bound(self):
        tsp = tsp_exact([CROSS_INSTANCE.depot, *CROSS_INSTANCE.terminals])
        radial = sum(dist(CROSS_INSTANCE.depot, v) for v in CROSS_INSTANCE.terminals)
        sol = itp_solve(CROSS_INSTANCE, tsp_mode="exact")
        assert sol.total_cost <= tsp.length + radial + 1e-9  # (2/k) = 1 here

    def test_splitting_inequality_random(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            inst = random_instance(rng, max_n=12, max_k=4)
            sol = itp_solve(inst, tsp_mode="exact")
            tsp = tsp_exact([inst.depot, *inst.terminals])
            radial = sum(dist(inst.depot, v) for v in inst.terminals)
            bound = tsp.length + (2.0 / inst.capacity) * radial
            assert sol.total_cost <= bound + 1e-9
            assert solution_is_feasible(inst, sol)


class TestUpperBoundCertificate:
    def test_sweep_within_formula(self):
        rng = np.random.default_rng(137)
        for _ in range(25):
            inst = random_instance(rng, max_n=10, max_k=3)
            for M in (1, 2, 3):
                sol = sweep_solve(inst, M)
                ub, certified = upper_bound_formula(inst, M)
                assert certified
                assert sol.total_cost <= ub + 1e-9

    def test_itp_within_formula(self):
        rng = np.random.default_rng(139)
        for _ in range(25):
            inst = random_instance(rng, max_n=10, max_k=3)
            sol = itp_solve(inst, tsp_mode="exact")
            ub, certified = upper_bound_formula(inst, 1)
            assert certified
            assert sol.total_cost <= ub + 1e-9

    def test_sweep_at_least_opt(self):
        rng = np.random.default_rng(149)
        for _ in range(10):
            inst = random_instance(rng, max_n=7, max_k=3)
            opt = brute_force_opt(inst)
            for M in (1, 2):
                assert sweep_solve(inst, M).total_cost >= opt - 1e-9
