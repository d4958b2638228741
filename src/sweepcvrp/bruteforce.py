"""Exhaustive-search oracles: permutation TSP and full partition-enumeration
CVRP. Deliberately independent of the production solvers (no shared DP), so
they can vouch for them in the tests and in perfbench; no other module of
the package imports them."""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .geometry import Instance, Point, dist

_MAX_BRUTE_TSP = 10
_MAX_BRUTE_CVRP = 10


def tsp_brute_force(points: Sequence[Point]) -> float:
    """Optimal cycle length by scanning all permutations with the first
    point fixed."""
    n = len(points)
    if n > _MAX_BRUTE_TSP:
        raise ValueError(f"{n} points is too many for brute-force TSP")
    if n <= 1:
        return 0.0
    if n == 2:
        return 2.0 * dist(points[0], points[1])
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        order = (0, *perm)
        length = math.fsum(
            dist(points[order[i]], points[order[(i + 1) % n]]) for i in range(n)
        )
        if length < best:
            best = length
    return best


def cvrp_brute_force(U: Sequence[Point], depot: Point, k: int) -> float:
    """Optimal CVRP value by enumerating every partition into blocks of at
    most k terminals, each served by a brute-force TSP tour through the
    depot.

    The first remaining terminal anchors each block, so every partition is
    built exactly once; larger blocks come first, so a low total is found
    early. A partial partition whose block costs already sum
    (math.fsum) to at least the best total found is dropped: costs are >= 0
    and a correctly rounded sum never falls when terms are added, so no
    completion of it could be cheaper, and the value is that of the full
    enumeration. At most _MAX_BRUTE_CVRP terminals, in blocks that fit
    tsp_brute_force together with the depot."""
    n = len(U)
    if n > _MAX_BRUTE_CVRP:
        raise ValueError(f"{n} points is too many for brute-force CVRP")
    if min(k, n) + 1 > _MAX_BRUTE_TSP:
        raise ValueError(f"blocks of {min(k, n)} terminals and the depot are too "
                         f"many for brute-force TSP")
    if k < 1:
        raise ValueError(f"capacity must be >= 1, got {k}")
    if n == 0:
        return 0.0
    block_cost: dict[frozenset[int], float] = {}

    def cost_of(block: tuple[int, ...]) -> float:
        key = frozenset(block)
        cached = block_cost.get(key)
        if cached is None:
            cached = tsp_brute_force([depot, *(U[i] for i in block)])
            block_cost[key] = cached
        return cached

    best = math.inf
    costs: list[float] = []

    def extend(items: list[int]) -> None:
        nonlocal best
        total = math.fsum(costs)
        if total >= best:
            return
        if not items:
            best = total
            return
        first, rest = items[0], items[1:]
        for size in range(min(k - 1, len(rest)), -1, -1):
            for combo in itertools.combinations(rest, size):
                chosen = set(combo)
                costs.append(cost_of((first, *combo)))
                extend([x for x in rest if x not in chosen])
                costs.pop()

    extend(list(range(n)))
    return best


def brute_force_opt(instance: Instance) -> float:
    """Optimal solution value of a small instance."""
    return cvrp_brute_force(
        list(instance.terminals), instance.depot, instance.capacity
    )
