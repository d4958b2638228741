import math

import numpy as np
import pytest

from sweepcvrp.bruteforce import cvrp_brute_force
from sweepcvrp.geometry import Instance, Point, Solution, Tour, dist, tour_length
from sweepcvrp.group_cvrp import (
    EXACT_GROUP_THRESHOLD,
    cvrp_exact_small,
    cvrp_group_heuristic,
    solve_group,
    split_tour_sequence,
)
from sweepcvrp.tsp import held_karp, subset_layers, tsp_exact

from helpers import random_points, solution_is_feasible

O = Point(0.0, 0.0)
CROSS = [Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]


def _as_instance(U, depot, k):
    return Instance(terminals=tuple(U), depot=depot, capacity=min(k, max(len(U), 1)))


class TestExactSmall:
    def test_single_terminal(self):
        u = Point(0.6, 0.8)
        for k in (1, 2):
            sol = cvrp_exact_small([u], O, k)
            assert sol.total_cost == pytest.approx(2.0, abs=1e-12)
            assert len(sol.tours) == 1

    def test_two_terminals_k1(self):
        sol = cvrp_exact_small([Point(1, 0), Point(0, 1)], O, 1)
        assert sol.total_cost == pytest.approx(4.0, abs=1e-12)
        assert len(sol.tours) == 2

    def test_two_terminals_k2(self):
        sol = cvrp_exact_small([Point(1, 0), Point(0, 1)], O, 2)
        assert sol.total_cost == pytest.approx(2.0 + math.sqrt(2), abs=1e-12)
        assert len(sol.tours) == 1

    def test_matches_partition_enumeration(self):
        rng = np.random.default_rng(71)
        for trial in range(25):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(1, n + 1))
            U = random_points(rng, n)
            depot = Point(float(rng.uniform(-1, 2)), float(rng.uniform(-1, 2)))
            sol = cvrp_exact_small(U, depot, k)
            assert sol.total_cost == pytest.approx(
                cvrp_brute_force(U, depot, k), abs=1e-9
            )
            assert solution_is_feasible(_as_instance(U, depot, k), sol)

    def test_rejects_oversize(self):
        U = random_points(np.random.default_rng(0), 13)
        with pytest.raises(ValueError, match="exceeds exact group threshold"):
            cvrp_exact_small(U, O, 3)

    def test_empty(self):
        sol = cvrp_exact_small([], O, 1)
        assert sol.total_cost == 0.0
        assert sol.tours == ()


class TestSplitHeuristic:
    def test_whole_group_fits_one_tour(self):
        rng = np.random.default_rng(73)
        U = random_points(rng, 6)
        sol = cvrp_group_heuristic(U, O, k=6, tsp_mode="exact")
        assert len(sol.tours) == 1
        tsp = tsp_exact([O, *U])
        assert sol.total_cost == pytest.approx(tsp.length, abs=1e-9)

    def test_single_terminal_k1(self):
        u = Point(0.3, 0.4)
        sol = cvrp_group_heuristic([u], O, 1)
        assert sol.total_cost == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["auto", "heuristic"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_degenerate_groups(self, mode, k):
        # the general path gives what the removed n = 0 and n = 1 branches
        # returned, bit for bit
        depot, u = Point(0.3, -0.7), Point(0.9, 0.1)
        empty = Solution(tours=(), total_cost=0.0)
        one = Tour(indices=(0,), length=2.0 * dist(depot, u))
        single = Solution(tours=(one,), total_cost=one.length)
        for seed in (0, 1):
            assert repr(cvrp_group_heuristic([], depot, k, mode, seed)) == repr(empty)
            assert repr(cvrp_group_heuristic([u], depot, k, mode, seed)) == repr(single)

    def test_cross_splitting_bound(self):
        tsp = tsp_exact([O, *CROSS])
        radial = sum(dist(O, u) for u in CROSS)
        sol = cvrp_group_heuristic(CROSS, O, k=2, tsp_mode="exact")
        assert sol.total_cost <= tsp.length + (2.0 / 2.0) * radial + 1e-9
        assert all(len(t.indices) <= 2 for t in sol.tours)

    def test_splitting_bound_random(self):
        rng = np.random.default_rng(79)
        for trial in range(30):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, n + 1))
            U = random_points(rng, n)
            depot = Point(float(rng.uniform(-1, 2)), float(rng.uniform(-1, 2)))
            sol = cvrp_group_heuristic(U, depot, k, tsp_mode="exact")
            tsp = tsp_exact([depot, *U])
            radial = sum(dist(depot, u) for u in U)
            assert sol.total_cost <= tsp.length + (2.0 / k) * radial + 1e-9
            assert solution_is_feasible(_as_instance(U, depot, k), sol)

    def test_heuristic_never_beats_exact(self):
        rng = np.random.default_rng(83)
        for trial in range(20):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(1, n + 1))
            U = random_points(rng, n)
            h = cvrp_group_heuristic(U, O, k, tsp_mode="exact")
            e = cvrp_exact_small(U, O, k)
            assert h.total_cost >= e.total_cost - 1e-9

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("n", [0, 3])
    def test_rejects_capacity_below_one(self, n, k):
        U = CROSS[:n]
        with pytest.raises(ValueError, match=f"capacity must be >= 1, got {k}"):
            split_tour_sequence(U, O, list(range(n)), k)
        with pytest.raises(ValueError, match=f"capacity must be >= 1, got {k}"):
            cvrp_group_heuristic(U, Point(0.5, 0.5), k)

    def test_offset_search_prefers_single_tour(self):
        # n <= k: offset 0 keeps the tour whole and must win ties
        U = [Point(1, 0), Point(1, 1), Point(0, 1)]
        tours, _ = split_tour_sequence(U, O, [0, 1, 2], k=5)
        assert [t.indices for t in tours] == [(0, 1, 2)]


class TestSolveGroup:
    def test_small_goes_exact(self):
        U = random_points(np.random.default_rng(89), 3)
        assert solve_group(U, O, 2) == cvrp_exact_small(U, O, 2)

    def test_large_goes_heuristic(self):
        U = random_points(np.random.default_rng(97), 40)
        sol = solve_group(U, O, 5)
        assert sol == cvrp_group_heuristic(U, O, 5)
        assert solution_is_feasible(_as_instance(U, O, 5), sol)

    def test_empty_group(self):
        sol = solve_group([], O, 3)
        assert sol == cvrp_exact_small([], O, 3)
        assert sol.total_cost == 0.0
        assert sol.tours == ()

    def test_threshold_boundary(self):
        U = random_points(np.random.default_rng(101), EXACT_GROUP_THRESHOLD + 1)
        assert solve_group(U[:-1], O, 3) == cvrp_exact_small(U[:-1], O, 3)
        sol = solve_group(U, O, 3)
        assert sol == cvrp_group_heuristic(U, O, 3)
        assert solution_is_feasible(_as_instance(U, O, 3), sol)


def _held_karp_reference(U, depot):
    """The pure-Python push-style Held-Karp over all subsets that held_karp
    replaced: (tour_cost, tour_end, parent) as nested lists."""
    n = len(U)
    size = 1 << n
    d0 = [dist(depot, u) for u in U]
    d = [[dist(a, b) for b in U] for a in U]
    inf = math.inf
    dp = [[inf] * n for _ in range(size)]
    parent = [[-1] * n for _ in range(size)]
    for j in range(n):
        dp[1 << j][j] = d0[j]
    for mask in range(1, size):
        row = dp[mask]
        for j in range(n):
            cj = row[j]
            if cj == inf:
                continue
            dj = d[j]
            for m in range(n):
                bit = 1 << m
                if mask & bit:
                    continue
                cand = cj + dj[m]
                nmask = mask | bit
                if cand < dp[nmask][m]:
                    dp[nmask][m] = cand
                    parent[nmask][m] = j
    tour_cost = [0.0] * size
    tour_end = [-1] * size
    for mask in range(1, size):
        row = dp[mask]
        best, best_j = inf, -1
        for j in range(n):
            if row[j] == inf:
                continue
            cand = row[j] + d0[j]
            if cand < best:
                best, best_j = cand, j
        tour_cost[mask] = best
        tour_end[mask] = best_j
    return tour_cost, tour_end, parent


def _cvrp_exact_small_reference(n, k, hk):
    """The pure-Python set-partition loop that cvrp_exact_small replaced, on
    the output `hk` of _held_karp_reference: [(indices, length)] per tour."""
    tour_cost, tour_end, parent = hk
    size = 1 << n
    inf = math.inf
    part = [inf] * size
    choice = [0] * size
    part[0] = 0.0
    for mask in range(1, size):
        low = mask & (-mask)
        rest = mask ^ low
        sub = rest
        best, best_s = inf, 0
        while True:
            s = sub | low
            if s.bit_count() <= k:
                cand = tour_cost[s] + part[mask ^ s]
                if cand < best:
                    best, best_s = cand, s
            if sub == 0:
                break
            sub = (sub - 1) & rest
        part[mask] = best
        choice[mask] = best_s
    tours = []
    mask = size - 1
    while mask:
        s = choice[mask]
        order, j, sm = [], tour_end[s], s
        while j != -1:
            order.append(j)
            sm, j = sm ^ (1 << j), parent[sm][j]
        tours.append((tuple(reversed(order)), tour_cost[s]))
        mask ^= s
    return tours


def _split_reference(U, depot, seq, k):
    """split_tour_sequence before it cached the leg lengths."""
    n = len(seq)
    if n == 0:
        return [], 0.0
    best_cost = math.inf
    best_segments = []
    for r in range(min(k, n)):
        segments = []
        if r > 0:
            segments.append(list(seq[:r]))
        segments.extend(list(seq[i : i + k]) for i in range(r, n, k))
        cost = math.fsum(
            tour_length(depot, [U[i] for i in seg]) for seg in segments
        )
        if cost < best_cost:
            best_cost = cost
            best_segments = segments
    return best_segments, best_cost


def _group_cases() -> dict[str, tuple[list[Point], Point]]:
    rng = np.random.default_rng(103)

    def pts(coords):
        return [Point(float(x), float(y)) for x, y in coords]

    cases = {
        f"random-{n}": (pts(rng.random((n, 2))), Point(*map(float, rng.uniform(-1, 2, 2))))
        for n in range(13)
    }
    base = rng.random((6, 2))
    cases["duplicates"] = (pts(np.vstack([base, base[:4]])), Point(0.5, 0.5))
    t = rng.permutation(10) / 9.0
    line = np.column_stack([0.2 + 0.5 * t, 0.1 + 0.3 * t])
    cases["collinear"] = (pts(line), Point(0.2, 0.1))
    cases["all-equal"] = (pts(np.full((9, 2), 0.375)), Point(0.0, 0.0))
    # integer lattice around a lattice depot: many equal tour and block sums
    cases["grid"] = (pts([(i % 4, i // 4) for i in range(11)]), Point(1.0, 1.0))
    return cases


GROUP_CASES = _group_cases()


class TestExactSmallReference:
    @pytest.mark.parametrize("name", list(GROUP_CASES))
    def test_same_solution_as_reference(self, name):
        U, depot = GROUP_CASES[name]
        n = len(U)
        hk = _held_karp_reference(U, depot)
        if n:
            tour_cost, tour_end, parent = held_karp(U, depot)
            assert tour_cost[1:].tolist() == hk[0][1:]
            assert tour_end[1:].tolist() == hk[1][1:]
            assert parent.tolist() == hk[2]
        for k in range(1, max(n, 1) + 1):
            sol = cvrp_exact_small(U, depot, k)
            ref = _cvrp_exact_small_reference(n, k, hk)
            assert [(t.indices, t.length) for t in sol.tours] == ref, k
            assert all(type(t.length) is float for t in sol.tours)
            assert sol.total_cost == math.fsum(length for _, length in ref)

    @pytest.mark.parametrize("name", list(GROUP_CASES))
    def test_split_same_as_reference(self, name):
        U, depot = GROUP_CASES[name]
        seq = np.random.default_rng(len(U)).permutation(len(U)).tolist()
        for k in range(1, max(len(U), 1) + 1):
            tours, total = split_tour_sequence(U, depot, seq, k)
            segments, ref_total = _split_reference(U, depot, seq, k)
            assert [(t.indices, t.length) for t in tours] == [
                (tuple(seg), tour_length(depot, [U[i] for i in seg])) for seg in segments
            ]
            assert total == ref_total


class TestSubsetLayersOnce:
    def test_layers_built_once_per_call(self):
        # the group DP and tsp_exact over the same number of terminals share
        # one table
        U, depot = GROUP_CASES["random-9"]
        subset_layers.cache_clear()
        cvrp_exact_small(U, depot, 3)
        tsp_exact([depot, *U])
        info = subset_layers.cache_info()
        assert info.misses == 1 and info.hits >= 2

    def test_same_object_on_second_call(self):
        assert subset_layers(7) is subset_layers(7)

    def test_tables_read_only(self):
        masks, pos = subset_layers(5)[2]
        with pytest.raises(ValueError):
            masks[0] = 0
        with pytest.raises(ValueError):
            pos[0, 0] = 0
