"""Traveling-salesman tours over point sets.

Two solvers: an exact bitmask dynamic program for up to EXACT_THRESHOLD
points, and a nearest-neighbor + 2-opt heuristic for anything larger. Tours
are closed cycles over exactly the given points; no depot is added
implicitly (callers include it in the point list when they need it).

Degenerate conventions: 0 or 1 points have tour length 0; two points have
length 2*d (out and back).

The 2-opt kernel keeps the tour's coordinates and edge lengths in arrays in
tour order and updates them incrementally on each move, so a step costs two
hypot vectors over the candidate edges and no gather. It takes the same
moves, in the same order, as evaluating every delta from scratch: edge
lengths are only reversed or recomputed with the same np.hypot call, and
each delta is summed in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Point, dist

EXACT_THRESHOLD = 14

# strict-improvement threshold for 2-opt; prevents cycling on FP noise
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


def tsp_exact(points: Sequence[Point], exact_threshold: int = EXACT_THRESHOLD) -> TspResult:
    """Optimal tour by Held-Karp dynamic programming over subsets.

    Rejects inputs larger than `exact_threshold` (2^n * n^2 work).
    """
    n = len(points)
    if n > exact_threshold:
        raise ValueError(
            f"{n} points exceeds exact threshold {exact_threshold}"
        )
    if n <= 1:
        return TspResult(order=tuple(range(n)), length=0.0, certified_optimal=True)
    if n == 2:
        return TspResult(order=(0, 1), length=2.0 * dist(points[0], points[1]),
                         certified_optimal=True)

    d = [[dist(points[i], points[j]) for j in range(n)] for i in range(n)]
    # dp[mask][j]: shortest path from 0 through set mask (mask contains 0
    # and j), ending at j. Index 0 is the fixed cycle start.
    size = 1 << n
    inf = math.inf
    dp = [[inf] * n for _ in range(size)]
    parent = [[-1] * n for _ in range(size)]
    dp[1][0] = 0.0
    for mask in range(1, size):
        if not mask & 1:
            continue
        row = dp[mask]
        for j in range(n):
            cj = row[j]
            if cj == inf:
                continue
            dj = d[j]
            for m in range(1, n):
                bit = 1 << m
                if mask & bit:
                    continue
                nmask = mask | bit
                cand = cj + dj[m]
                if cand < dp[nmask][m]:
                    dp[nmask][m] = cand
                    parent[nmask][m] = j
    full = size - 1
    best_j = min(range(1, n), key=lambda j: dp[full][j] + d[j][0])
    length = dp[full][best_j] + d[best_j][0]
    order = []
    mask, j = full, best_j
    while j != -1:
        order.append(j)
        mask, j = mask ^ (1 << j), parent[mask][j]
    order.reverse()
    return TspResult(order=tuple(order), length=length, certified_optimal=True)


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
    tour = _two_opt(pts, tour)
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


def _two_opt(pts: np.ndarray, tour: np.ndarray) -> np.ndarray:
    """First-improvement 2-opt, scanning edge pairs (i, j) lexicographically
    with the j-scan vectorized; restarts passes until no move improves.

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
            hit = (h_ac + h_bd) - e[i] - e[i + 2 : jmax + 1] < -_IMPROVE_EPS
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


def tsp_dispatch(points: Sequence[Point], mode: str = "auto", seed: int = 0,
                 exact_threshold: int = EXACT_THRESHOLD) -> TspResult:
    """Route to the exact or heuristic solver.

    `auto` uses the exact solver iff the input is within the exact
    threshold. `exact` on an oversize input propagates the solver error.
    """
    if mode not in ("exact", "heuristic", "auto"):
        raise ValueError(f"unknown tsp mode: {mode!r}")
    if mode == "exact":
        return tsp_exact(points, exact_threshold)
    if mode == "heuristic":
        return tsp_heuristic(points, seed)
    if len(points) <= exact_threshold:
        return tsp_exact(points, exact_threshold)
    return tsp_heuristic(points, seed)
