"""Traveling-salesman tours over point sets.

Two solvers: an exact bitmask dynamic program for up to EXACT_THRESHOLD
points, and a nearest-neighbor + 2-opt heuristic for anything larger. Tours
are closed cycles over exactly the given points; no depot is added
implicitly (callers include it in the point list when they need it).

`held_karp` is the one Held-Karp DP of the package: tsp_exact runs it over
points[1:] rooted at points[0], and the exact group solver in group_cvrp runs
it over a sweep group rooted at the depot and reads off every subset's tour.
It fills all subsets of equal popcount in one numpy step, over the read-only
`subset_layers(n)` tables, which are built once per n and shared by both
callers. Ties go to the smallest index: the smallest predecessor among equal
path costs and the smallest last terminal among equal tour costs.

Degenerate conventions: 0 or 1 points have tour length 0; two points have
length 2*d (out and back), which Held-Karp over one terminal gives exactly.

The 2-opt kernel keeps the tour's coordinates and edge lengths in arrays in
tour order and updates them incrementally on each move, so a step costs two
hypot vectors over the candidate edges and no gather. It takes the same
moves, in the same order, as evaluating every delta from scratch: edge
lengths are only reversed or recomputed with the same np.hypot call, and
each delta is summed in the same order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Point, dist

EXACT_THRESHOLD = 14
TSP_MODES = ("auto", "exact", "heuristic")

# strict-improvement threshold for 2-opt at unit coordinate scale; prevents
# cycling on FP noise. tsp_heuristic scales it by the largest |coordinate|,
# since an edge length's rounding error grows with the coordinates.
_IMPROVE_EPS = 1e-12


@dataclass(frozen=True)
class TspResult:
    """A cyclic visit order over the input indices and its length.

    `certified_optimal` is set only by the exact solver.
    """

    order: tuple[int, ...]
    length: float
    certified_optimal: bool


def cycle_length(points: Sequence[Point], order: Sequence[int]) -> float:
    n = len(order)
    if n <= 1:
        return 0.0
    return math.fsum(
        dist(points[order[i]], points[order[(i + 1) % n]]) for i in range(n)
    )


@functools.cache
def subset_layers(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The masks 1 .. 2^n - 1 grouped by popcount p = 1 .. n, built once per n.

    Entry p - 1 is (masks, pos): the masks with p set bits in ascending order,
    and pos[r] the positions of the set bits of masks[r], ascending. The
    arrays are shared between callers and read-only.
    """
    masks = np.arange(1 << n)
    has = np.array([masks >> b & 1 for b in range(n)], dtype=bool).T
    count = has.sum(axis=1)
    layers = []
    for p in range(1, n + 1):
        ms = masks[count == p]
        pos = (np.flatnonzero(has[ms]) % n).reshape(len(ms), p)
        ms.flags.writeable = pos.flags.writeable = False
        layers.append((ms, pos))
    return tuple(layers)


def held_karp(U: Sequence[Point], depot: Point):
    """Shortest depot-rooted paths over every subset of a nonempty U
    (Held & Karp 1962), one popcount layer of subsets per numpy step.

    dp[mask, m], the shortest path from the depot through the terminals of
    mask ending at m, pulls min_j dp[mask ^ (1 << m), j] + d[j, m]. Returns
    (tour_cost, tour_end, parent): tour_cost[mask] = min_m dp[mask, m] + d0[m]
    is the optimal closed tour over mask plus the depot, tour_end[mask] the m
    attaining it, and parent[mask, m] the j attaining dp[mask, m] (-1 for a
    single terminal). argmin keeps the first of equal values, so both ties go
    to the smallest index.
    """
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


def held_karp_path(parent: np.ndarray, mask: int, end: int) -> list[int]:
    """Visit order of the optimal path over `mask` that ends at `end`."""
    order = []
    while end != -1:
        order.append(end)
        mask, end = mask ^ (1 << end), int(parent[mask, end])
    return order[::-1]


def tsp_exact(points: Sequence[Point]) -> TspResult:
    """Optimal tour by Held-Karp over points[1:], rooted at points[0].

    Rejects inputs larger than EXACT_THRESHOLD (2^n * n^2 work).
    """
    n = len(points)
    if n > EXACT_THRESHOLD:
        raise ValueError(f"{n} points exceeds exact threshold {EXACT_THRESHOLD}")
    if n <= 1:
        return TspResult(order=tuple(range(n)), length=0.0, certified_optimal=True)
    tour_cost, tour_end, parent = held_karp(points[1:], points[0])
    full = (1 << (n - 1)) - 1
    path = held_karp_path(parent, full, int(tour_end[full]))
    return TspResult(order=(0, *(i + 1 for i in path)),
                     length=float(tour_cost[full]), certified_optimal=True)


def tsp_heuristic(points: Sequence[Point], seed: int = 0) -> TspResult:
    """Nearest-neighbor construction from a seed-selected start, then 2-opt.

    2-opt applies the first improving move found and rescans until a full
    pass finds none, so the result is a 2-opt local optimum and is
    deterministic for a given seed.
    """
    n = len(points)
    if n <= 1:
        return TspResult(order=tuple(range(n)), length=0.0, certified_optimal=False)
    if n == 2:
        return TspResult(order=(0, 1), length=2.0 * dist(points[0], points[1]),
                         certified_optimal=False)

    pts = np.array(points, dtype=float)
    start = seed % n
    tour = _nearest_neighbor(pts, start)
    tour = _two_opt(pts, tour, _IMPROVE_EPS * max(1.0, float(np.abs(pts).max())))
    order = tuple(int(i) for i in tour)
    return TspResult(order=order, length=cycle_length(points, order),
                     certified_optimal=False)


def _nearest_neighbor(pts: np.ndarray, start: int) -> np.ndarray:
    n = len(pts)
    visited = np.zeros(n, dtype=bool)
    tour = np.empty(n, dtype=np.int64)
    tour[0] = start
    visited[start] = True
    cur = start
    for step in range(1, n):
        dx = pts[:, 0] - pts[cur, 0]
        dy = pts[:, 1] - pts[cur, 1]
        d2 = dx * dx + dy * dy
        d2[visited] = np.inf
        cur = int(np.argmin(d2))
        tour[step] = cur
        visited[cur] = True
    return tour


def _two_opt(pts: np.ndarray, tour: np.ndarray,
             eps: float = _IMPROVE_EPS) -> np.ndarray:
    """First-improvement 2-opt, scanning edge pairs (i, j) lexicographically
    with the j-scan vectorized; restarts passes until no move improves. A
    move improves if its delta is below -eps.

    Invariants between steps, all in current tour order:
      - x[p], y[p] are the coordinates of tour[p], and x[n], y[n] repeat
        position 0 (never moved, since a move reverses i+1..j with i >= 0),
        so x[1:], y[1:] are the successor coordinates;
      - e[p] = hypot(x[p] - x[p+1], y[p] - y[p+1]), the length of edge
        (p, p+1 mod n).
    A move (i, j) reverses positions i+1..j of tour, x and y and edge lengths
    i+1..j-1 (hypot(-dx, -dy) == hypot(dx, dy), so they stay exact), and sets
    e[i], e[j] to the two new edges' lengths, which the scan just computed.
    The move order and every delta are those of a kernel that recomputes all
    four edge lengths from the tour at each step, bit for bit: the delta is
    (h_ac + h_bd) - e[i] - e[j] with the same operands in the same order.
    """
    n = len(tour)
    if n < 4:
        return tour
    x = np.append(pts[tour, 0], pts[tour[0], 0])
    y = np.append(pts[tour, 1], pts[tour[0], 1])
    e = np.hypot(x[:-1] - x[1:], y[:-1] - y[1:])
    improved = True
    while improved:
        improved = False
        i = 0
        while i < n - 2:
            a_x, a_y = x[i], y[i]
            b_x, b_y = x[i + 1], y[i + 1]
            # candidate second edges (j, j+1) for j in i+2 .. jmax
            jmax = n - 1 if i > 0 else n - 2  # (0, n-1) shares a node
            c_x, c_y = x[i + 2 : jmax + 1], y[i + 2 : jmax + 1]
            dn_x, dn_y = x[i + 3 : jmax + 2], y[i + 3 : jmax + 2]
            h_ac = np.hypot(a_x - c_x, a_y - c_y)
            h_bd = np.hypot(b_x - dn_x, b_y - dn_y)
            hit = (h_ac + h_bd) - e[i] - e[i + 2 : jmax + 1] < -eps
            k = int(hit.argmax())
            if hit[k]:
                j = i + 2 + k
                tour[i + 1 : j + 1] = tour[i + 1 : j + 1][::-1]
                x[i + 1 : j + 1] = x[i + 1 : j + 1][::-1]
                y[i + 1 : j + 1] = y[i + 1 : j + 1][::-1]
                e[i + 1 : j] = e[i + 1 : j][::-1]
                e[i] = h_ac[k]
                e[j] = h_bd[k]
                improved = True
                # keep scanning from the same i
            else:
                i += 1
    return tour


def check_tsp_mode(mode: str) -> None:
    if mode not in TSP_MODES:
        raise ValueError(f"unknown tsp mode: {mode!r}")


def tsp_dispatch(points: Sequence[Point], mode: str = "auto", seed: int = 0) -> TspResult:
    """Route to the exact or heuristic solver.

    `auto` uses the exact solver iff the input has at most EXACT_THRESHOLD
    points. `exact` on an oversize input propagates the solver error.
    """
    check_tsp_mode(mode)
    if mode == "exact":
        return tsp_exact(points)
    if mode == "heuristic":
        return tsp_heuristic(points, seed)
    if len(points) <= EXACT_THRESHOLD:
        return tsp_exact(points)
    return tsp_heuristic(points, seed)
