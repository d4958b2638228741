"""CVRP on a single sweep group: exact set-partition DP for small groups,
tour-splitting heuristic otherwise.

The exact path computes, for every subset of the group, the optimal tour
through the depot (one run of tsp.held_karp yields all subsets at once, ties
to the smallest index), then a set-partition DP over capacity-feasible
blocks, one popcount layer of the cached tsp.subset_layers per numpy step;
among equal sums the largest block wins. The heuristic path cuts one TSP
tour over the group plus depot into segments of at most k terminals, taking
the best of k rotation offsets and the segment sums the search computed.

All solutions returned here use local indices 0..len(U)-1; callers remap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Point, Solution, Tour, dist, make_solution
from .tsp import check_tsp_mode, held_karp, held_karp_path, subset_layers, tsp_dispatch

EXACT_GROUP_THRESHOLD = 12


@dataclass(frozen=True)
class SolveConfig:
    tsp_mode: str = "auto"
    seed: int = 0

    def __post_init__(self) -> None:
        check_tsp_mode(self.tsp_mode)


def cvrp_exact_small(U: Sequence[Point], depot: Point, k: int) -> Solution:
    """Minimum-total-length partition of U into tours of at most k terminals.

    Subset DP: optimal single-tour cost per feasible subset, then a
    set-partition DP over those subsets. Rejects |U| > EXACT_GROUP_THRESHOLD.
    """
    n = len(U)
    if n > EXACT_GROUP_THRESHOLD:
        raise ValueError(
            f"{n} points exceeds exact group threshold {EXACT_GROUP_THRESHOLD}"
        )
    if k < 1:
        raise ValueError(f"capacity must be >= 1, got {k}")
    if n == 0:
        return make_solution([])

    tour_cost, tour_end, parent = held_karp(U, depot)
    # part[mask]: cheapest partition of mask into blocks of at most k
    # terminals. A block holds the lowest bit of mask and a submask of the
    # other bits, so part pulls from layers of lower popcount only.
    part = np.zeros(1 << n)
    choice = np.zeros(1 << n, dtype=np.int64)
    for masks, pos in subset_layers(n):
        p = pos.shape[1]
        # patterns over the p - 1 other bits with at most k - 1 set, in
        # descending order: argmin keeps the first of equal sums, so among
        # equal sums the largest block wins
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
        order = held_karp_path(parent, s, int(tour_end[s]))
        tours.append(Tour(indices=tuple(order), length=float(tour_cost[s])))
        mask ^= s
    return make_solution(tours)


def split_tour_sequence(
    U: Sequence[Point], depot: Point, seq: Sequence[int], k: int
) -> tuple[list[Tour], float]:
    """Cut the cyclic terminal sequence `seq` into consecutive segments of at
    most k terminals, trying the k rotation offsets and keeping the cheapest.

    Returns (tours, total_cost): one Tour per segment of the winning offset.
    Offset r puts the first r terminals in a short leading segment; ties
    prefer the smaller offset.
    """
    if k < 1:
        raise ValueError(f"capacity must be >= 1, got {k}")
    n = len(seq)
    if n == 0:
        return [], 0.0
    pts = [U[i] for i in seq]
    dep = [dist(depot, p) for p in pts]
    legs = [dist(a, b) for a, b in zip(pts, pts[1:])]

    def cost(a: int, b: int) -> float:
        # tour_length of seq[a:b], summed in the same order
        total = dep[a]
        for leg in legs[a : b - 1]:
            total += leg
        return total + dep[b - 1]

    best_cost, best_cuts = math.inf, []
    for r in range(min(k, n)):
        starts = ([0] if r else []) + list(range(r, n, k))
        cuts = [(a, b, cost(a, b)) for a, b in zip(starts, starts[1:] + [n])]
        total = math.fsum(c for _, _, c in cuts)
        if total < best_cost:
            best_cost, best_cuts = total, cuts
    return [Tour(indices=tuple(seq[a:b]), length=c) for a, b, c in best_cuts], best_cost


def cvrp_group_heuristic(
    U: Sequence[Point], depot: Point, k: int,
    tsp_mode: str = "auto", seed: int = 0,
) -> Solution:
    """Tour-splitting solution: one TSP tour over U plus the depot, then the
    best-offset split into segments of at most k terminals.

    With an exact TSP tour the total cost is bounded by
    TSP(U + depot) + (2/k) * sum of depot distances (classical splitting
    inequality; the offset average argument).
    """
    res = tsp_dispatch([depot, *U], mode=tsp_mode, seed=seed)
    pos = res.order.index(0)  # rotate so the depot leads the cycle
    cycle = res.order[pos + 1 :] + res.order[:pos]
    seq = [i - 1 for i in cycle]  # back to local U indices
    tours, _ = split_tour_sequence(U, depot, seq, k)
    return make_solution(tours)


def solve_group(
    U: Sequence[Point], depot: Point, k: int, config: SolveConfig = SolveConfig()
) -> Solution:
    """Exact partition for small groups, tour splitting otherwise."""
    if len(U) <= EXACT_GROUP_THRESHOLD:
        return cvrp_exact_small(U, depot, k)
    return cvrp_group_heuristic(U, depot, k, config.tsp_mode, config.seed)
