import ast
import inspect
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sweepcvrp.group_cvrp as group_module
import sweepcvrp.tsp as tsp_module

from sweepcvrp.bruteforce import cvrp_brute_force
from sweepcvrp.geometry import (
    Instance, Point, Solution, Tour, dist, tour_length,
)
from sweepcvrp.group_cvrp import (
    EXACT_GROUP_THRESHOLD,
    SolveConfig,
    cvrp_exact_small,
    cvrp_group_heuristic,
    depot_two_opt,
    partition_layers,
    solve_group,
    split_tour_sequence,
)
from sweepcvrp.tsp import (
    _IMPROVE_EPS, HeldKarp, held_karp, held_karp_layers, held_karp_tour, subset_layers,
    tsp_exact,
)

from helpers import (
    SCALE_EXPONENTS, check_feasible, random_points, run_in_child, shuffled_edge_sum,
    within_ulps,
)

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
            check_feasible(_as_instance(U, depot, k), sol)

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
        sol = cvrp_group_heuristic(U, O, k=6)
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
        empty = Solution(tours=())
        one = Tour(indices=(0,), length=2.0 * dist(depot, u))
        single = Solution(tours=(one,))
        for seed in (0, 1):
            assert repr(cvrp_group_heuristic([], depot, k, mode, seed)) == repr(empty)
            assert repr(cvrp_group_heuristic([u], depot, k, mode, seed)) == repr(single)

    def test_cross_splitting_bound(self):
        tsp = tsp_exact([O, *CROSS])
        radial = sum(dist(O, u) for u in CROSS)
        sol = cvrp_group_heuristic(CROSS, O, k=2)
        assert sol.total_cost <= tsp.length + (2.0 / 2.0) * radial + 1e-9
        assert all(len(t.indices) <= 2 for t in sol.tours)

    def test_splitting_bound_random(self):
        rng = np.random.default_rng(79)
        for trial in range(30):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, n + 1))
            U = random_points(rng, n)
            depot = Point(float(rng.uniform(-1, 2)), float(rng.uniform(-1, 2)))
            sol = cvrp_group_heuristic(U, depot, k)
            tsp = tsp_exact([depot, *U])
            radial = sum(dist(depot, u) for u in U)
            assert sol.total_cost <= tsp.length + (2.0 / k) * radial + 1e-9
            check_feasible(_as_instance(U, depot, k), sol)

    def test_heuristic_never_beats_exact(self):
        rng = np.random.default_rng(83)
        for trial in range(20):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(1, n + 1))
            U = random_points(rng, n)
            h = cvrp_group_heuristic(U, O, k)
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

    def test_empty_sequence_has_no_tour(self):
        for k in (1, 5):
            assert split_tour_sequence([], O, [], k) == []

    def test_offset_search_prefers_single_tour(self):
        # n <= k: offset 0 keeps the tour whole and must win ties
        U = [Point(1, 0), Point(1, 1), Point(0, 1)]
        tours = split_tour_sequence(U, O, [0, 1, 2], k=5)
        assert [t.indices for t in tours] == [(0, 1, 2)]


class TestSolveGroup:
    def test_small_goes_exact(self):
        U = random_points(np.random.default_rng(89), 3)
        assert solve_group(U, O, 2) == cvrp_exact_small(U, O, 2)

    def test_large_goes_heuristic(self):
        # the split's routes, each after the depot-edge pass
        U = random_points(np.random.default_rng(97), 40)
        sol = solve_group(U, O, 5)
        split = cvrp_group_heuristic(U, O, 5)
        assert sol == Solution(tuple(depot_two_opt(U, O, split.tours)))
        assert sol.total_cost < split.total_cost
        check_feasible(_as_instance(U, O, 5), sol)

    def test_heuristic_group_runs_the_public_stages(self, monkeypatch):
        # solve_group looks each stage up through the module, as a tracer
        # that patches them by name sees it; an exact group reaches neither
        calls = []
        for attr in ("cvrp_group_heuristic", "split_tour_sequence"):
            stage = getattr(group_module, attr)
            monkeypatch.setattr(group_module, attr,
                                lambda *a, _n=attr, _f=stage: calls.append(_n) or _f(*a))
        U = random_points(np.random.default_rng(97), 40)
        sol = solve_group(U, O, 5)
        assert calls == ["cvrp_group_heuristic", "split_tour_sequence"]
        calls.clear()
        solve_group(U[:EXACT_GROUP_THRESHOLD], O, 5)
        assert calls == []
        monkeypatch.undo()
        split = cvrp_group_heuristic(U, O, 5)
        assert sol == Solution(tuple(depot_two_opt(U, O, split.tours)))

    def test_empty_group(self):
        sol = solve_group([], O, 3)
        assert sol == cvrp_exact_small([], O, 3)
        assert sol.total_cost == 0.0
        assert sol.tours == ()

    def test_threshold_boundary(self):
        U = random_points(np.random.default_rng(101), EXACT_GROUP_THRESHOLD + 1)
        assert solve_group(U[:-1], O, 3) == cvrp_exact_small(U[:-1], O, 3)
        sol = solve_group(U, O, 3)
        split = cvrp_group_heuristic(U, O, 3)
        assert sol == Solution(tuple(depot_two_opt(U, O, split.tours)))
        check_feasible(_as_instance(U, O, 3), sol)


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


def _held_karp_numpy_reference(U, depot):
    """The numpy held_karp before its per-size pull tables, verbatim:
    (tour_cost, tour_end, parent) over the mask-major dp."""
    n = len(U)
    d = np.array([[dist(a, b) for b in U] for a in U])  # symmetric, bit for bit
    d0 = np.array([dist(depot, u) for u in U])
    dp = np.full((1 << n, n), math.inf)
    parent = np.full((1 << n, n), -1, dtype=np.int8)
    dp[1 << np.arange(n), np.arange(n)] = d0
    for masks, pos in subset_layers(n)[1:]:
        mask, m = np.repeat(masks, pos.shape[1]), pos.ravel()
        cand = dp[mask ^ (1 << m)]
        cand += d[m]
        j = cand.argmin(axis=1)
        dp[mask, m] = cand[np.arange(len(m)), j]
        parent[mask, m] = j
    dp += d0
    tour_end = dp.argmin(axis=1)
    return dp[np.arange(1 << n), tour_end], tour_end, parent


def _held_karp_path_numpy_reference(parent, mask, end):
    order = []
    while end != -1:
        order.append(end)
        mask, end = mask ^ (1 << end), int(parent[mask, end])
    return order[::-1]


def _cvrp_exact_small_numpy_reference(U, depot, k):
    """cvrp_exact_small before its cached partition tables, verbatim: it
    built every layer's blocks by a matmul on each call and kept the winning
    block of every mask."""
    n = len(U)
    if n == 0:
        return Solution(())
    tour_cost, tour_end, parent = _held_karp_numpy_reference(U, depot)
    part = np.zeros(1 << n)
    choice = np.zeros(1 << n, dtype=np.int64)
    for masks, pos in subset_layers(n):
        p = pos.shape[1]
        t = np.arange((1 << (p - 1)) - 1, -1, -1)
        t_bits = (t[:, None] >> np.arange(p - 1)) & 1
        t_bits = t_bits[t_bits.sum(axis=1) < k]
        blocks = ((1 << pos[:, 1:]) @ t_bits.T) | (1 << pos[:, :1])
        cand = tour_cost[blocks] + part[masks[:, None] ^ blocks]
        rows, best = np.arange(len(masks)), cand.argmin(axis=1)
        part[masks] = cand[rows, best]
        choice[masks] = blocks[rows, best]

    tours = []
    mask = (1 << n) - 1
    while mask:
        s = int(choice[mask])
        order = _held_karp_path_numpy_reference(parent, s, int(tour_end[s]))
        tours.append(Tour(indices=tuple(order), length=float(tour_cost[s])))
        mask ^= s
    return Solution(tuple(tours))


def _assert_same_tours(U, depot, sol, ref):
    """sol has the reference's tours, (indices, length) pairs, in order: the
    same indices, and lengths of the length rule, tour_length of the route,
    within an ulp per edge of the reference's DP sums."""
    assert [t.indices for t in sol.tours] == [indices for indices, _ in ref]
    for t, (indices, length) in zip(sol.tours, ref):
        assert t.length == tour_length(depot, [U[i] for i in indices])
        assert within_ulps(t.length, length, len(indices) + 1)


def _tour_costs(hk) -> np.ndarray:
    """Each mask's optimal tour cost from held_karp's table: the minimum over
    the last terminal m of dp[m, mask] + d0[m] (inf at mask 0)."""
    return (hk.dp + hk.d0[:, None]).min(axis=0)


def _last(hk, mask, to):
    """The last terminal of the optimal path over `mask` that goes on to
    terminal `to`, or to the depot when `to` is -1: the first argmin over j
    of dp[j, mask] + d[to, j] (of dp[j, mask] + d0[j]), as held_karp_tour
    reads each step."""
    return int(np.argmin(hk.dp[:, mask] + (hk.d0 if to < 0 else hk.d[to])))


def _assert_same_held_karp(U, depot, tour_cost, tour_end, parent):
    """held_karp gives the reference's tour costs bit for bit, and recovers
    the reference's tour end of every mask and its predecessor of every
    (mask, end) with end in mask."""
    n = len(U)
    hk = held_karp([depot, *U])
    ref = np.array(tour_cost, dtype=float)
    np.testing.assert_array_equal(_tour_costs(hk)[1:].view(np.uint64), ref[1:].view(np.uint64))
    for mask in range(1, 1 << n):
        assert _last(hk, mask, -1) == tour_end[mask], mask
        for end in range(n):
            if mask >> end & 1 and mask != 1 << end:
                assert _last(hk, mask ^ 1 << end, end) == parent[mask][end], (mask, end)
            elif mask >> end & 1:
                assert parent[mask][end] == -1


def _route_length(depot, points):
    """The closed route's length, summed here and not by the package: the
    math.fsum of math.hypot of the coordinate differences of its edges."""
    route = [depot, *points]
    return math.fsum(math.hypot(b[0] - a[0], b[1] - a[1])
                     for a, b in zip(route, route[1:] + route[:1]))


def _split_reference(U, depot, seq, k):
    """split_tour_sequence before it cached the leg lengths, with its own edge
    sum: (segments, their lengths, the fsum of the lengths)."""
    n = len(seq)
    if n == 0:
        return [], [], 0.0
    best_cost = math.inf
    best = [], []
    for r in range(min(k, n)):
        segments = []
        if r > 0:
            segments.append(list(seq[:r]))
        segments.extend(list(seq[i : i + k]) for i in range(r, n, k))
        lengths = [_route_length(depot, [U[i] for i in seg]) for seg in segments]
        cost = math.fsum(lengths)
        if cost < best_cost:
            best_cost = cost
            best = segments, lengths
    return (*best, best_cost)


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
# groups of EXACT_GROUP_THRESHOLD terminals with many equal tour and block
# sums, where partition_layers leaves out the most masks
FULL_GROUP_CASES = {
    "lattice-12": ([Point(float(i % 4), float(i // 4)) for i in range(12)], Point(1.0, 1.0)),
    "collinear-12": ([Point(0.2 + 0.5 * t, 0.1 + 0.3 * t) for t in
                      np.random.default_rng(341).permutation(12) / 11.0], Point(0.2, 0.1)),
    "duplicates-12": ([Point(0.125 * (i % 5), 0.25 * (i % 3)) for i in range(12)],
                      Point(0.5, 0.5)),
}


def _split_cases() -> dict[str, tuple[list[Point], Point, list[int], tuple[int, ...]]]:
    """name -> (U, depot, seq, capacities) for the tour split: an ITP-sized
    sequence, 0 to 2 terminals, groups where many offsets tie, a one-ulp
    near-tie and the same groups at every power-of-two scale."""
    rng = np.random.default_rng(409)
    cases = {}
    U = random_points(rng, 1000)
    order = sorted(range(1000), key=lambda i: math.atan2(U[i].y - 0.5, U[i].x - 0.5))
    cases["itp-1000"] = (U, Point(0.5, 0.5), order, (1, 2, 8, 32, 71, 1000, 1005))
    for n in (0, 1, 2):
        cases[f"short-{n}"] = (random_points(rng, n), Point(0.25, 0.75), list(range(n)),
                               (1, 2, 3, 5))
    # n = 1 mod k gives every offset as many cuts, and each group below
    # makes many cuts cost the same: all offsets tie, or many of them
    lattice = [Point(4.0, 4.0), Point(3.0, 5.0), Point(2.0, 4.0), Point(3.0, 3.0)]
    cases["tie-lattice"] = ([lattice[i % 4] for i in range(61)], Point(3.0, 4.0),
                            list(range(61)), (4, 6, 7, 10, 20, 60))
    # alternate sides of the depot on a line through it: d + d' = leg
    line = [Point(0.5 + 0.6 * t, 0.5 + 0.8 * t)
            for t in ((-1) ** i * (0.5 + i / 128) for i in range(61))]
    cases["tie-collinear"] = (line, Point(0.5, 0.5), list(range(61)), (4, 9, 20, 61))
    sites = random_points(rng, 5)
    cases["tie-duplicates"] = ([sites[i % 5] for i in range(81)], Point(0.5, 0.5),
                               list(range(81)), (5, 10, 20, 40, 80))
    U = random_points(rng, 30)
    cases["tie-depot-on-terminal"] = ([p for v in U for p in (v, U[0])], U[0],
                                      list(range(60)), (5, 12, 59))
    # on a line through the depot every distance is exact; see test_split_near_tie
    x = [0.5 + 7 * 2.0**-53, 0.5 + 3 * 2.0**-53, 0.5 + 6 * 2.0**-53, -2.0 - 6 * 2.0**-51]
    cases["near-tie"] = ([Point(v, 0.0) for v in x], Point(0.0, 0.0), [0, 1, 2, 3], (2,))
    for name in ("tie-lattice", "near-tie"):
        U, depot, seq, capacities = cases[name]
        for e in SCALE_EXPONENTS:
            def at(p, e=e):
                return Point(math.ldexp(p.x, e), math.ldexp(p.y, e))

            cases[f"{name}-scale-{e}"] = ([at(p) for p in U], at(depot), seq, capacities)
    return cases


SPLIT_CASES = _split_cases()


class TestExactSmallReference:
    @pytest.mark.parametrize("name", list(GROUP_CASES) + list(FULL_GROUP_CASES))
    def test_same_solution_as_reference(self, name):
        U, depot = {**GROUP_CASES, **FULL_GROUP_CASES}[name]
        n = len(U)
        hk = _held_karp_reference(U, depot)
        if n:
            _assert_same_held_karp(U, depot, *hk)
        for k in range(1, max(n, 1) + 1):
            sol = cvrp_exact_small(U, depot, k)
            ref = _cvrp_exact_small_reference(n, k, hk)
            _assert_same_tours(U, depot, sol, ref)
            assert all(type(t.length) is float for t in sol.tours)
            assert within_ulps(sol.total_cost, math.fsum(length for _, length in ref),
                               n + len(ref))

    @pytest.mark.parametrize("name", list(GROUP_CASES) + [f"uniform-{n}" for n in range(1, 14)])
    def test_same_as_numpy_reference(self, name):
        # the per-call numpy kernel that the cached per-size tables replaced.
        # On GROUP_CASES, test_same_solution_as_reference already checks
        # held_karp against the pure-Python reference
        if name in GROUP_CASES:
            U, depot = GROUP_CASES[name]
        else:
            n = int(name.split("-")[1])
            U, depot = random_points(np.random.default_rng(109 + n), n), Point(0.25, -0.5)
        n = len(U)
        if n and name not in GROUP_CASES:
            tour_cost, tour_end, parent = _held_karp_numpy_reference(U, depot)
            _assert_same_held_karp(U, depot, tour_cost.tolist(), tour_end.tolist(),
                                   parent.tolist())
            assert np.isinf(_tour_costs(held_karp([depot, *U]))[0]) and np.isinf(tour_cost[0])
        if n <= EXACT_GROUP_THRESHOLD:
            for k in range(1, max(n, 1) + 1):
                ref = _cvrp_exact_small_numpy_reference(U, depot, k)
                _assert_same_tours(U, depot, cvrp_exact_small(U, depot, k),
                                   [(t.indices, t.length) for t in ref.tours])

    @pytest.mark.parametrize("name", list(GROUP_CASES) + list(SPLIT_CASES))
    def test_split_same_as_reference(self, name, monkeypatch):
        # the reference sums every offset exactly, as the split did before
        # the numpy screen of _offsets; kept records what each split summed
        if name in GROUP_CASES:
            U, depot = GROUP_CASES[name]
            seq = np.random.default_rng(len(U)).permutation(len(U)).tolist()
            capacities = range(1, max(len(U), 1) + 1)
        else:
            U, depot, seq, capacities = SPLIT_CASES[name]
        kept = []
        screen = group_module._offsets
        monkeypatch.setattr(group_module, "_offsets",
                            lambda *a: kept.append(screen(*a)) or kept[-1])
        for k in capacities:
            tours = split_tour_sequence(U, depot, seq, k)
            segments, lengths, ref_total = _split_reference(U, depot, seq, k)
            assert [(t.indices, t.length) for t in tours] == [
                (tuple(seg), length) for seg, length in zip(segments, lengths)
            ], k
            assert math.fsum(t.length for t in tours) == ref_total
        if name.startswith("tie-"):  # many offsets inside the window
            assert max(map(len, kept)) >= 3, kept

    def test_split_near_tie(self):
        # offsets 0 and 1 differ by one ulp in their exact totals, offset 1
        # the smaller, while the screened cut sums put offset 0 first: the
        # exact rule, not the screen, picks the winner
        U, depot, seq, _ = SPLIT_CASES["near-tie"]
        (segments, lengths, total) = _split_reference(U, depot, seq, 2)
        assert segments == [[0], [1, 2], [3]]
        other = math.fsum(_route_length(depot, [U[i] for i in seg]) for seg in ([0, 1], [2, 3]))
        assert other == total + math.ulp(total)
        x = [p.x for p in U]
        d, leg = [abs(v) for v in x], [abs(b - a) for a, b in zip(x, x[1:])]
        cut = [d[c - 1] + d[c] - leg[c - 1] for c in (1, 2, 3)]
        assert cut[1] < cut[0] + cut[2]
        tours = split_tour_sequence(U, depot, seq, 2)
        assert [t.indices for t in tours] == [(0,), (1, 2), (3,)]
        assert math.fsum(t.length for t in tours) == total


class TestLengthRule:
    def test_tour_lengths_are_edge_sums_in_any_order(self):
        # every emitted length is the fsum of its route's edges, so no edge
        # order (a DP's, a split's, the reverse) moves a bit. Both paths
        # summed from the depot left to right before
        rng = np.random.default_rng(149)
        cases = [*GROUP_CASES.values(), (random_points(rng, 300), Point(0.5, 0.5))]
        for U, depot in cases:
            seq = rng.permutation(len(U)).tolist()
            for k in (*range(1, min(len(U), EXACT_GROUP_THRESHOLD) + 1), 17, 40):
                tours = list(split_tour_sequence(U, depot, seq, k))
                if len(U) <= EXACT_GROUP_THRESHOLD and k <= max(len(U), 1):
                    tours += cvrp_exact_small(U, depot, k).tours
                for t in tours:
                    route = [depot, *(U[i] for i in t.indices)]
                    assert t.length == shuffled_edge_sum(rng, route), (k, t)


class TestPairForms:
    # both solvers and depot_two_opt read U once through
    # geometry.check_coordinates; numeric strings raised TypeError in
    # split_tour_sequence and cvrp_exact_small
    @staticmethod
    def forms(U, depot):
        """(name, U, depot) in every accepted pair form."""
        yield "strings", [(repr(x), repr(y)) for x, y in U], (repr(depot.x), repr(depot.y))
        yield "lists", [[x, y] for x, y in U], [depot.x, depot.y]
        yield "ndarray rows", list(np.array(U, dtype=float)), np.array(depot)
        yield "ndarray", np.array(U, dtype=float).reshape(-1, 2), depot

    def test_every_pair_form_gives_the_point_form(self):
        rng = np.random.default_rng(157)
        depot = Point(0.25, -0.5)
        for n in (0, 1, 5, 12, 40):
            U = random_points(rng, n)
            seq = rng.permutation(n).tolist()
            for k in (1, 3, 5):
                split = split_tour_sequence(U, depot, seq, k)
                passed = depot_two_opt(U, depot, split)
                exact = cvrp_exact_small(U, depot, k) if n <= EXACT_GROUP_THRESHOLD else None
                for name, U2, depot2 in self.forms(U, depot):
                    assert repr(split_tour_sequence(U2, depot2, seq, k)) == repr(split), name
                    assert repr(depot_two_opt(U2, depot2, split)) == repr(passed), name
                    if exact is not None:
                        assert repr(cvrp_exact_small(U2, depot2, k)) == repr(exact), name

    @pytest.mark.parametrize("U", [[0.1, 0.2], [(0.1, 0.2, 0.3)], [(0.1,), (0.2,)],
                                   [Point(0.1, 0.2), (0.3, 0.4, 0.5)]])
    def test_a_non_pair_raises(self, U):
        with pytest.raises(ValueError, match="pairs"):
            split_tour_sequence(U, O, list(range(len(U))), 2)
        with pytest.raises(ValueError, match="pairs"):
            cvrp_exact_small(U, O, 2)


def _unit_sites(U, depot) -> list[tuple[float, float]]:
    """The depot and U times 2**-e, with 2**(e-1) <= the largest |coordinate|
    < 2**e (e = 0 for no nonzero coordinate), computed here."""
    pts = [(float(x), float(y)) for x, y in (depot, *U)]
    e = math.frexp(max(abs(c) for p in pts for c in p))[1]
    return [(math.ldexp(x, -e), math.ldexp(y, -e)) for x, y in pts]


def _depot_gains(sites, route) -> list[float]:
    """The gain of every depot-edge move on `route` (rows of `sites`, row 0
    the depot), by the pass's expression from the route alone: reverse
    s_1 .. s_j for j = 1 .. m-1, then reverse s_j .. s_m for j = 2 .. m."""
    o, p = sites[0], [sites[v] for v in route]
    m = len(p)
    gains = []
    for j in range(m - 1):  # reverse p[: j + 1]
        gains.append(dist(o, p[0]) + dist(p[j], p[j + 1]) - dist(o, p[j])
                     - dist(p[0], p[j + 1]))
    for j in range(1, m):  # reverse p[j:]
        gains.append(dist(o, p[-1]) + dist(p[j - 1], p[j]) - dist(o, p[j])
                     - dist(p[j - 1], p[-1]))
    return gains


def _pass_cases() -> list[tuple[str, list[Point], Point, int]]:
    """(name, U, depot, k) of groups above EXACT_GROUP_THRESHOLD: random in
    and around the square, duplicates, co-located, collinear, and a depot on
    a terminal."""
    rng = np.random.default_rng(359)

    def pts(coords):
        return [Point(float(x), float(y)) for x, y in coords]

    cases = []
    for n, k in ((13, 3), (24, 5), (40, 8), (64, 32), (90, 30), (150, 71)):
        depot = Point(*map(float, rng.uniform(-1, 2, 2)))
        cases.append((f"random-{n}-k{k}", random_points(rng, n), depot, k))
        cases.append((f"random-{n}-k{k}-centre", random_points(rng, n), Point(0.5, 0.5), k))
    base = rng.random((10, 2))
    cases.append(("duplicates", pts(np.vstack([base, base, base[:5]])), Point(0.5, 0.5), 6))
    cases.append(("co-located", pts(np.full((20, 2), 0.375)), Point(0.0, 0.0), 7))
    t = rng.permutation(30) / 29.0
    cases.append(("collinear", pts(np.column_stack([0.2 + 0.5 * t, 0.1 + 0.3 * t])),
                  Point(0.2, 0.1), 8))
    U = random_points(rng, 30)
    cases.append(("depot-on-terminal", U, U[7], 6))
    lattice = pts([(i % 6, i // 6) for i in range(36)])
    cases.append(("lattice", lattice, lattice[14], 9))
    return cases


PASS_CASES = _pass_cases()


class TestDepotTwoOpt:
    @pytest.mark.parametrize("name, U, depot, k", PASS_CASES, ids=[c[0] for c in PASS_CASES])
    def test_each_route_keeps_its_terminals_and_never_grows(self, name, U, depot, k):
        split = cvrp_group_heuristic(U, depot, k)
        routes = depot_two_opt(U, depot, split.tours)
        assert len(routes) == len(split.tours)
        for before, after in zip(split.tours, routes):
            assert sorted(after.indices) == sorted(before.indices)
            assert after.length == _route_length(depot, [U[i] for i in after.indices])
            assert after.length <= before.length
            if after.indices != before.indices:
                assert after.length < before.length
        assert math.fsum(t.length for t in routes) <= split.total_cost

    @pytest.mark.parametrize("name, U, depot, k", PASS_CASES, ids=[c[0] for c in PASS_CASES])
    def test_no_move_gains_more_than_the_threshold(self, name, U, depot, k):
        sites = _unit_sites(U, depot)
        split = cvrp_group_heuristic(U, depot, k)
        for t in depot_two_opt(U, depot, split.tours):
            gains = _depot_gains(sites, [i + 1 for i in t.indices])
            assert max(gains, default=0.0) <= _IMPROVE_EPS, (name, t)

    def test_the_pass_gains_on_random_groups(self):
        # not a test of optimality: the pass moved something on these groups
        gained = [name for name, U, depot, k in PASS_CASES if name.startswith("random")
                  and solve_group(U, depot, k).total_cost
                  < cvrp_group_heuristic(U, depot, k).total_cost]
        assert len(gained) >= 6, gained

    def test_a_changed_route_must_be_strictly_shorter(self, monkeypatch):
        # the reversed route has the same length, a shuffled one a longer
        # one: neither replaces its tour
        U, depot, k = PASS_CASES[2][1:]
        split = cvrp_group_heuristic(U, depot, k)
        rng = np.random.default_rng(373)
        for change in (lambda sites, route: route[::-1],
                       lambda sites, route: rng.permutation(route).tolist()):
            monkeypatch.setattr(group_module, "_depot_moves", change)
            assert depot_two_opt(U, depot, split.tours) == list(split.tours)

    def test_short_routes_are_unchanged(self):
        rng = np.random.default_rng(367)
        U = random_points(rng, 9)
        tours = [Tour((i,), 2.0 * dist(O, U[i])) for i in range(3)]
        tours += [Tour((i, i + 1), _route_length(O, U[i : i + 2])) for i in (3, 5, 7)]
        assert depot_two_opt(U, O, tours) == tours
        assert depot_two_opt([], O, []) == []  # no route: an empty group

    @pytest.mark.parametrize("name", list(GROUP_CASES) + list(FULL_GROUP_CASES))
    def test_exact_groups_never_reach_the_pass(self, name, monkeypatch):
        U, depot = {**GROUP_CASES, **FULL_GROUP_CASES}[name]
        for attr in ("depot_two_opt", "cvrp_group_heuristic"):  # a call would raise
            monkeypatch.setattr(group_module, attr, None)
        for k in range(1, max(len(U), 1) + 1):
            assert repr(solve_group(U, depot, k)) == repr(cvrp_exact_small(U, depot, k))

    @pytest.mark.parametrize("name, U, depot, k", PASS_CASES, ids=[c[0] for c in PASS_CASES])
    def test_solutions_are_feasible(self, name, U, depot, k):
        for cap in sorted({1, 2, k, len(U)}):
            check_feasible(_as_instance(U, depot, cap), solve_group(U, depot, cap))
            check_feasible(_as_instance(U, depot, cap),
                           solve_group(U, depot, cap, SolveConfig(tsp_mode="heuristic")))

    @pytest.mark.parametrize("name, U, depot, k", PASS_CASES[:6] + PASS_CASES[-2:],
                             ids=[c[0] for c in PASS_CASES[:6] + PASS_CASES[-2:]])
    def test_power_of_two_scale_moves_no_choice(self, name, U, depot, k):
        sol = solve_group(U, depot, k)
        for e in SCALE_EXPONENTS:
            at = [Point(math.ldexp(x, e), math.ldexp(y, e)) for x, y in U]
            scaled = solve_group(at, Point(math.ldexp(depot.x, e), math.ldexp(depot.y, e)), k)
            assert [t.indices for t in scaled.tours] == [t.indices for t in sol.tours], e
            assert [t.length for t in scaled.tours] == [
                math.ldexp(t.length, e) for t in sol.tours], e


def _held_karp_cases() -> dict[str, tuple[list[Point], Point]]:
    """Random, co-located and collinear terminal sets of every size 1 .. 13,
    each with a depot."""
    rng = np.random.default_rng(113)
    cases = {}
    for n in range(1, 14):
        cases[f"random-{n}"] = (random_points(rng, n), Point(*rng.uniform(-1, 2, 2).tolist()))
        sites = random_points(rng, max(1, n // 3))
        # terminals on a few sites, the depot on one of them: many equal sums
        cases[f"co-located-{n}"] = ([sites[i % len(sites)] for i in range(n)], sites[0])
        t = (rng.permutation(n) / max(n - 1, 1)).tolist()
        cases[f"collinear-{n}"] = ([Point(0.2 + 0.5 * v, 0.1 + 0.3 * v) for v in t],
                                   Point(0.45, 0.25))
    return cases


HELD_KARP_CASES = _held_karp_cases()


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


def _popcounts(n: int) -> np.ndarray:
    return np.array([m.bit_count() for m in range(1 << n)])


class TestHeldKarpSize:
    @pytest.mark.parametrize("name", list(HELD_KARP_CASES))
    def test_stops_at_size_with_the_same_bits(self, name):
        # every mask of at most `size` terminals gets the full run's bits, in
        # tour_cost and in every dp row; every larger mask stays inf
        U, depot = HELD_KARP_CASES[name]
        n = len(U)
        full = held_karp([depot, *U])
        for size in range(1, n + 1):
            hk = held_karp([depot, *U], size)
            low = _popcounts(n) <= size
            tour_cost = _tour_costs(hk)
            np.testing.assert_array_equal(_bits(tour_cost[low]), _bits(_tour_costs(full)[low]))
            np.testing.assert_array_equal(_bits(hk.dp[:, low]), _bits(full.dp[:, low]))
            assert np.isposinf(tour_cost[~low]).all() and np.isposinf(hk.dp[:, ~low]).all()
            assert np.array_equal(hk.d, full.d) and np.array_equal(hk.d0, full.d0)

    @pytest.mark.parametrize("budget", [1, 1 << 40], ids=["one-column", "one-block"])
    def test_block_size_moves_no_bit(self, budget, monkeypatch):
        # one mask column per gather block, and one block per layer, give
        # the bits of the default blocks, which split the larger layers
        assert tsp_module._GATHER_ENTRIES // 13**2 < math.comb(12, 6)
        names = [f"{kind}-{n}" for n in (1, 2, 5, 9, 13)
                 for kind in ("random", "co-located", "collinear")]
        expected = {}
        for name in names:
            U, depot = HELD_KARP_CASES[name]
            expected[name] = held_karp([depot, *U]), tsp_exact([depot, *U])
        monkeypatch.setattr(tsp_module, "_GATHER_ENTRIES", budget)
        for name in names:
            U, depot = HELD_KARP_CASES[name]
            ref, tour = expected[name]
            for size in (None, (len(U) + 1) // 2):
                hk = held_karp([depot, *U], size)
                low = _popcounts(len(U)) <= (size or len(U))
                np.testing.assert_array_equal(_bits(_tour_costs(hk)[low]),
                                              _bits(_tour_costs(ref)[low]))
                np.testing.assert_array_equal(_bits(hk.dp[:, low]), _bits(ref.dp[:, low]))
            assert tsp_exact([depot, *U]) == tour

    @pytest.mark.parametrize("size", [0, -1])
    def test_rejects_size_below_one(self, size):
        # size = 0 sliced held_karp_layers(n)[:-1] and filled every layer
        # but the last: at n = 3 the 2-terminal tours came out finite
        U, depot = HELD_KARP_CASES["random-3"]
        with pytest.raises(ValueError, match=f"size must be >= 1, got {size}"):
            held_karp([depot, *U], size)

    def test_size_is_an_int(self):
        # 2.5 raised TypeError in the slice
        U, depot = HELD_KARP_CASES["random-5"]
        for bad in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match=f"size must be an int, got {bad!r}"):
                held_karp([depot, *U], bad)
        for size, same in ((np.int64(2), 2), (True, 1)):
            hk, ref = held_karp([depot, *U], size), held_karp([depot, *U], same)
            np.testing.assert_array_equal(_bits(_tour_costs(hk)), _bits(_tour_costs(ref)))

    @pytest.mark.parametrize("size", [3, 7])
    def test_rejects_size_above_len_U(self, size):
        # 7 filled every layer, as size=None does, against the docstring's
        # 1 <= size <= len(U)
        with pytest.raises(ValueError, match=f"size must be <= \\|points\\| - 1 = 2, got {size}"):
            held_karp([(0.5, 0.5), (0, 0), (1, 1)], size)
        assert _tour_costs(held_karp([(0.5, 0.5), (0, 0), (1, 1)], 2)).shape == (4,)

    def test_rejects_empty_U(self):
        # an empty U raised ZeroDivisionError computing the block width
        for size in (None, 1):
            with pytest.raises(ValueError, match=r"\|points\| must be >= 2, got 1"):
                held_karp([O], size)

    @pytest.mark.parametrize("size, mask", [(2, 0b1111), (None, -1)])
    def test_a_mask_without_a_tour_raises(self, size, mask):
        # both looped forever: over 4 bits at size 2 every candidate is inf,
        # so each step took terminal 0 and the mask toggled back, and a
        # negative mask never reaches 0. In a child, so a hang fails
        code = (
            "import numpy as np\n"
            "from sweepcvrp.tsp import held_karp, held_karp_tour\n"
            "pts = np.random.default_rng(0).random((5, 2)).tolist()\n"
            "try:\n"
            f"    held_karp_tour(pts, held_karp(pts, {size}), {mask})\n"
            "except ValueError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('no ValueError')\n"
        )
        run_in_child(code, timeout=30)

    def test_tour_masks_are_read_by_the_integer_rule(self):
        # 1 << 4 over 4 terminals raised IndexError
        U, depot = HELD_KARP_CASES["random-4"]
        pts = [depot, *U]
        hk = held_karp(pts, 2)
        with pytest.raises(ValueError, match=r"mask must be < 2\*\*4 for 4 terminals, got 16"):
            held_karp_tour(pts, hk, 1 << 4)
        with pytest.raises(ValueError, match="the table holds no tour over mask 0b111"):
            held_karp_tour(pts, hk, 0b111)
        for bad in (1.0, "1", None):
            with pytest.raises(ValueError, match="mask must be an int"):
                held_karp_tour(pts, hk, bad)
        assert held_karp_tour(pts, hk, np.int16(0b1001)) == held_karp_tour(pts, hk, 0b1001)
        assert held_karp_tour(pts, hk, 0).order == (0,)

    def test_group_dp_stops_at_k(self, monkeypatch):
        # cvrp_exact_small asks held_karp for min(k, n) terminals and no more
        seen = []

        def spy(points, size=None):
            seen.append((len(points) - 1, size))
            return held_karp(points, size)

        monkeypatch.setattr(group_module, "held_karp", spy)
        U, depot = GROUP_CASES["random-9"]
        for k in (1, 3, 9, 12):
            cvrp_exact_small(U, depot, k)
        assert seen == [(9, 1), (9, 3), (9, 9), (9, 9)]


def _reached_masks(n: int, k: int) -> set[int]:
    """The nonzero masks the set-partition DP reaches from the full mask of n
    bits, by breadth-first search: a step removes a block of at most k bits
    that holds the current mask's lowest bit."""
    full = (1 << n) - 1
    seen, frontier = {full}, [full]
    while frontier:
        step = []
        for mask in frontier:
            low = mask & -mask
            others = [1 << b for b in range(n) if (mask ^ low) >> b & 1]
            for size in range(k):
                for extra in itertools.combinations(others, size):
                    rest = mask ^ low ^ sum(extra)
                    if rest and rest not in seen:
                        seen.add(rest)
                        step.append(rest)
        frontier = step
    return seen


class TestReachableMasks:
    def test_kept_masks_are_the_reached_ones(self):
        for n in range(1, EXACT_GROUP_THRESHOLD + 1):
            for k in range(1, n + 1):
                kept = [int(m) for masks, _, _ in partition_layers(n, k) for m in masks]
                assert len(kept) == len(set(kept)) and set(kept) == _reached_masks(n, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 12])
    def test_rows_are_the_blocks_of_their_mask(self, k):
        # each kept row lists every block of at most k bits that holds its
        # mask's lowest bit, in descending order, and rest = mask ^ block
        for p, (masks, blocks, rest) in enumerate(partition_layers(12, k), 1):
            assert np.all(np.diff(masks) > 0) and np.all(_popcounts(12)[masks] == p)
            m = masks.astype(np.int64)[:, None]
            low = m & -m
            b = blocks.astype(np.int64)
            assert np.all((b & m) == b) and np.all((b & low) == low)
            assert np.all(_popcounts(12)[b] <= k) and np.all(np.diff(b, axis=1) < 0)
            assert np.array_equal(rest, m ^ b)
            assert blocks.shape[1] == sum(math.comb(p - 1, j) for j in range(k))


def _clear_table_caches():
    for cached in (subset_layers, held_karp_layers, partition_layers):
        cached.cache_clear()


class TestSubsetLayersOnce:
    def test_layers_built_once_per_call(self):
        # each per-size table is built once per n (the partition tables once
        # per (n, min(k, n))), and the group DP and tsp_exact over the same
        # number of terminals read one Held-Karp table
        U, depot = GROUP_CASES["random-9"]
        _clear_table_caches()
        for k in (3, 3, 9, 12):
            cvrp_exact_small(U, depot, k)
        tsp_exact([depot, *U])
        tsp_exact([depot, *U[:5]])
        assert subset_layers.cache_info().misses == 2  # n = 9 and n = 5
        assert held_karp_layers.cache_info().misses == 2
        assert held_karp_layers.cache_info().hits == 4
        info = partition_layers.cache_info()
        assert info.misses == 2 and info.hits == 2  # (9, 3) and (9, 9)

    def test_one_table_serves_both_callers(self, monkeypatch):
        U, depot = GROUP_CASES["random-7"]
        seen = []

        def spy(n):
            seen.append((n, held_karp_layers(n)))
            return seen[-1][1]

        monkeypatch.setattr(tsp_module, "held_karp_layers", spy)
        cvrp_exact_small(U, depot, 3)
        tsp_exact([depot, *U])
        assert [n for n, _ in seen] == [7, 7] and seen[0][1] is seen[1][1]

    def test_same_object_on_second_call(self):
        assert subset_layers(7) is subset_layers(7)
        assert held_karp_layers(7) is held_karp_layers(7)
        assert partition_layers(7, 3) is partition_layers(7, 3)

    def test_tables_read_only(self):
        for table in subset_layers(5)[2] + held_karp_layers(5)[1] + partition_layers(5, 2)[2]:
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0

    def test_tables_are_compact(self):
        # every mask of up to 15 bits fits in int16, the largest tables
        # (13 terminals for tsp_exact, 12 for the group DP) included
        for n in (1, 12, 13):
            for masks, prev in held_karp_layers(n):
                assert masks.dtype == prev.dtype == np.int16
        for k in (1, 6, 12):
            for _, blocks, rest in partition_layers(12, k):
                assert blocks.dtype == rest.dtype == np.int16

    def test_more_than_15_terminals_raise(self):
        # every mask is int16, so subset_layers, the one enumeration of
        # masks, rejects 16 bits, and held_karp over 16 terminals fails
        # before it allocates its 8 MB dp (no caller passes more than 13)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="masks of 16 bits do not fit in int16"):
                subset_layers(16)
            with pytest.raises(ValueError, match="masks of 16 bits do not fit in int16"):
                held_karp(random_points(np.random.default_rng(7), 17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestOneContract:
    def test_one_held_karp_contract(self):
        # held_karp(points, size) is rooted at points[0] like its readers,
        # its table holds only what held_karp_tour reads, held_karp_tour is
        # the one reading of a tour from it, and every mask is int16
        for gone in ("mask_dtype", "held_karp_last", "held_karp_path"):
            assert not hasattr(tsp_module, gone), gone
        assert HeldKarp._fields == ("dp", "d", "d0")
        assert list(inspect.signature(held_karp).parameters) == ["points", "size"]
        assert list(inspect.signature(held_karp_tour).parameters) == ["points", "hk", "mask"]
        src = Path(tsp_module.__file__).resolve().parent
        calls = [node for path in src.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "held_karp"]
        assert len(calls) == 3  # tsp_exact, cvrp_exact_small, BoundContext.table
        for call in calls:
            assert len(call.args) <= 2 and not isinstance(call.args[0], ast.Subscript), \
                ast.unparse(call)
        for n in (1, 12, 13, 15):
            for masks, _ in subset_layers(n):
                assert masks.dtype == np.int16
            for masks, prev in held_karp_layers(n):
                assert masks.dtype == prev.dtype == np.int16
        for k in (1, 6, 12):
            for table in partition_layers(12, k):
                assert all(a.dtype == np.int16 for a in table)


class TestExactMemory:
    # tracemalloc peaks of one call from cold caches, the tables it builds
    # included. The kernel before the per-size tables peaked at 3,643,584
    # bytes (tsp_exact) and 2,503,328 (cvrp_exact_small) per call even with
    # its tables cached; int64 partition tables alone would hold 3.8 MB
    @pytest.mark.parametrize("call, bound", [
        (lambda P: tsp_exact(P), 3_643_584),
        (lambda P: cvrp_exact_small(P[:12], Point(0.5, 0.5), 6), 2_503_328),
    ], ids=["tsp_exact-14", "cvrp_exact_small-12-k6"])
    def test_peak_per_call(self, call, bound):
        P = random_points(np.random.default_rng(5), 14)
        _clear_table_caches()
        tracemalloc.start()
        try:
            call(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
