"""Traveling-salesman tours over point sets.

tsp_dispatch(points, mode, seed) returns a closed cycle over exactly the
given points, starting at point 0, certified exactly when it is provably
optimal; no depot is added implicitly (callers put it first). Of the two
TSP_MODES, `auto` runs the exact solver on up to EXACT_THRESHOLD points and
`heuristic` never does. Only tsp_exact raises above EXACT_THRESHOLD.

`held_karp(points, size)` is the one Held-Karp DP of the package, over the
terminals points[1:] rooted at points[0]: tsp_exact runs it over its points,
the exact group solver in group_cvrp over the depot and a sweep group, up to
the capacity's number of terminals, and bounds.BoundContext over the
terminals of T*_0. It fills the subsets of one popcount at a time, each
layer in blocks of one gather-add-min over every predecessor j at once,
through the read-only per-size tables `held_karp_layers(n)`, which are built
once per n from `subset_layers(n)`, the one enumeration of masks, hold every
mask in int16 (so at most 15 terminals), and are shared by every caller.
Every candidate is the IEEE sum dp + d and a minimum is exact, so the block
size moves no bit. A coordinate that fails geometry.check_coordinates raises
ValueError in held_karp, as in tsp_heuristic and in tsp_exact below two
points. Its table, HeldKarp(dp, d, d0), keeps no predecessor and no tour
cost: held_karp_tour, the one reading of a rooted tour from it, recovers
each step of a path as the first argmin of the same sums the DP minimised,
so ties go to the smallest index: the smallest predecessor among equal path
costs and the smallest last terminal among equal tour costs. Those sums
only choose: a length is cycle_length of the order (geometry's length
rule), 0 for 0 or 1 points, 2*d out and back for two, and the same for
every cyclic order of at most 3 points. tsp_exact reads its whole set from
a table, group_cvrp each route of its exact partition, and BoundContext
every T*_R over a set that holds terminal 0.

The heuristic tours the distinct locations, numbered by first occurrence,
and emits each location's points consecutively, in index order. Its search
(Bentley 1992; Johnson & McGeoch 1997) rests on one neighbour index per
point set, _NeighbourIndex, which holds the points at unit scale as its
`sites`: scaled by the power of two that puts the largest |coordinate| in
[0.5, 1) (geometry.unit_scale), the one scale rule of the heuristic. The
walk, the search and the screen read the sites from the index, so a tour
does not change when the points are scaled by a power of two, and squared
distances do not underflow for coordinates as small as 1e-200. Its table
lists the K = NEIGHBOURS nearest other points of each point, ranked by
(squared distance, index): up to _DENSE_MAX points the first K columns of
one distance matrix sorted row by row, above it exactly through a grid. Its
query row(a) gives a's squared distances to every point, and closer(a, lim)
lists every point closer than a limit in the table's order. Three steps use
the index:
  - the nearest-neighbor walk steps to the first unvisited point of the
    current point's row, and ranks row(a) only when the whole row is
    visited; ties go to the smallest index, so the walk is the plain O(n^2)
    nearest-neighbor tour, bit for bit;
  - _local_search takes first-improvement 2-opt moves whose new edge at the
    processed point is shorter than the edge it removes, over the listed
    neighbours, or over closer(a, lim) when that edge is longer than the
    K-th neighbour: the listed ones first, then the rest, a slice of the
    sorted row or, on the grid path, row(a) ranked only when no listed
    neighbour decided the step;
  - its Or-opt moves put a segment of 1-3 points next to a listed neighbour.
A FIFO queue of points whose edges changed (don't-look bits) drives the
search. When it runs dry after a move, a confirming pass queues every point
again, and the search ends only when such a pass moves nothing, so the tour
is a 2-opt local optimum over all pairs of edges. From _SCREEN_MIN points
on, one numpy screen, _screen, runs at the start of the first confirming
pass: it evaluates every move improve could try at every point, with the
gates that go through hypot widened by _IMPROVE_EPS/2, more than the two
hypot implementations can differ, so a point it clears provably has no
move. From then on the search keeps each point's verdict, the screen's
clear or a call that found no move, and skips the point while it holds. A
verdict holds until a move changes what improve reads at the point, up to
the direction of the tour (_local_search states and proves the rule), so
a move drops only the verdicts near its endpoints and its reversed path,
for at most (endpoints + reversed path) x K work. A skipped call would have
moved nothing, so the moves, and so every tour, stay the same bit for bit.
A move must shorten the tour by more than _IMPROVE_EPS at the sites' scale,
so the search never returns a longer tour than it started from. Everything
is deterministic in the start point.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .geometry import (
    Point, as_xy, check_coordinates, check_int, check_permutation, dist, unit_scale,
)

EXACT_THRESHOLD = 14
TSP_MODES = ("auto", "heuristic")
# every cycle over at most this many distinct locations is optimal
CERTAIN_LOCATIONS = 3

NEIGHBOURS = 10  # listed nearest neighbours per point (K)
_GRID_LOAD = 4  # points per grid cell, on average
# points per neighbour query: no row depends on it, and a query's arrays
# grow with it. At n = 1000, 192 takes 5.5 ms against 8 ms for 64, for
# 0.6 MB more peak RSS; 256 is no faster and costs 1.0 MB
_QUERY_BLOCK = 192
# up to this many points, the neighbour index works from one distance matrix
# instead of the grid. Measured on a shared 2-vCPU Xeon (medians of 9 rounds
# over 10 random sets), index build dense against grid: 0.03 vs 0.17 ms at
# 15 points, 0.10 vs 0.42 at 65, 0.24 vs 0.61 at 128, 0.54 vs 0.65 at 160,
# 1.55 vs 1.18 at 256; a whole tsp_heuristic is faster dense up to 128
# points (3.2 vs 3.5 ms), even at 160 (3.6 vs 3.6) and slower at 256 (6.7 vs
# 6.1), where sorting the whole matrix costs more than the grid's build
_DENSE_MAX = 128
# from this many points on, _local_search screens its first confirming pass
# and keeps verdicts from there on. Measured on a shared 2-vCPU Xeon, CPU
# time of _local_search from the walk, screened over plain, medians of 7
# rounds over 200 random sets: 1.95 at 12 points, 1.49 at 15, 1.11 at 32,
# 1.05 at 40, 1.02 at 48 and 0.95 at 65; below that a screen costs more
# than the calls it saves
_SCREEN_MIN = 48

# strict-improvement threshold of a local-search move; prevents cycling on
# FP noise. The search reads a _NeighbourIndex's sites, whose largest
# |coordinate| is in [0.5, 1) (e = 0), so an edge length's rounding error,
# which grows with the coordinates' power of two 2^e, is that of unit scale.
_IMPROVE_EPS = 1e-12

# float64 candidates per gather block of a Held-Karp layer (n * n per mask
# column). Measured on a shared 2-vCPU Xeon, held_karp per call, medians of
# 21 interleaved rounds at 8,192 / 16,384 / 32,768 / 65,536 / 131,072:
# 1.04 / 0.94 / 0.91 / 1.34 / 1.15 ms over 12 terminals and 2.47 / 2.11 /
# 2.12 / 2.87 / 3.95 ms over 13, against 1.08 and 2.48 ms for one numpy step
# per predecessor. group_cvrp's _BLOCK_ENTRIES stays apart: its DP at k = 3
# took 1.08 ms in blocks of 8,192 and 1.33 ms in blocks of 32,768
_GATHER_ENTRIES = 32768


@dataclass(frozen=True)
class TspResult:
    """A cyclic visit order over the input indices, starting at 0, and its
    length; `certified_optimal` is set exactly when the cycle is provably
    optimal."""

    order: tuple[int, ...]
    length: float
    certified_optimal: bool


def cycle_length(points: Sequence[Point], order: Sequence[int]) -> float:
    """geometry.tour_length's rule over the as_xy rows of `points`: math.fsum
    of dist over the edges of the closed cycle `order`, 0.0 when it is empty."""
    xy = as_xy(points)[list(order)].tolist()
    return math.fsum(map(dist, xy, xy[1:] + xy[:1]))


@functools.cache
def subset_layers(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The masks 1 .. 2^n - 1 grouped by popcount p = 1 .. n, built once per n.

    Entry p - 1 is (masks, pos): the masks with p set bits in ascending order,
    in int16, and pos[r] the positions of the set bits of masks[r], ascending.
    The arrays are shared between callers and read-only. This is the one
    place masks are enumerated: an n above 15, whose masks do not fit in
    int16, raises ValueError.
    """
    if n > 15:
        raise ValueError(f"masks of {n} bits do not fit in int16")
    masks = np.arange(1 << n, dtype=np.int16)
    has = np.array([masks >> b & 1 for b in range(n)], dtype=bool).T
    count = has.sum(axis=1)
    layers = []
    for p in range(1, n + 1):
        ms = masks[count == p]
        pos = (np.flatnonzero(has[ms]) % n).reshape(len(ms), p)
        ms.flags.writeable = pos.flags.writeable = False
        layers.append((ms, pos))
    return tuple(layers)


@functools.cache
def held_karp_layers(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Held-Karp's pull tables for popcount p = 2 .. n, built once per n.

    Entry p - 2 is (masks, prev), both of shape (n, C(n - 1, p - 1)) in
    int16: row m of masks holds the masks with p set bits that contain bit
    m, ascending, and row m of prev the same masks without bit m. The
    arrays are shared between callers and read-only.
    """
    bits = np.arange(n)[:, None]
    layers = []
    for ms, _ in subset_layers(n)[1:]:
        masks = np.broadcast_to(ms, (n, len(ms)))[ms >> bits & 1 == 1].reshape(n, -1)
        prev = (masks ^ 1 << bits).astype(np.int16)
        masks.flags.writeable = prev.flags.writeable = False
        layers.append((masks, prev))
    return tuple(layers)


class HeldKarp(NamedTuple):
    """held_karp's table over the n terminals points[1:], rooted at
    points[0], filled up to `size` terminals: dp[m, mask], the shortest
    rooted path through the terminals of mask ending at m (inf unless m is
    in mask, and on masks of more than `size` terminals), and the distances
    d between terminals and d0 from the root. The optimal tour over mask
    plus the root costs min over m of dp[m, mask] + d0[m]."""

    dp: np.ndarray
    d: np.ndarray
    d0: np.ndarray


def held_karp(points: Sequence[Point], size: int | None = None) -> HeldKarp:
    """Shortest paths from points[0] over the subsets of at most `size` of
    the terminals points[1:], 1 <= size <= len(points) - 1 (all of them by
    default), one popcount layer of subsets at a time (Held & Karp 1962).

    dp[m, mask], the shortest path from the root through the terminals of
    mask ending at m, pulls min_j dp[j, mask ^ (1 << m)] + d[j, m]. A layer
    takes that minimum in blocks of its columns in the cached
    held_karp_layers(n): one gather of dp[j, prev] for every j at once, one
    add of d[j, m], one min over j, each block at most _GATHER_ENTRIES
    candidates. dp stays inf on the masks of more than `size` terminals.
    The table keeps no predecessor: held_karp_tour recovers each step from
    dp. Fewer than two points, a size above the terminals', and a size or
    coordinate failing geometry.check_int or check_coordinates raise
    ValueError, as do more than 15 terminals (subset_layers), before dp is
    allocated.
    """
    n = check_int(len(points), "|points|", 2) - 1
    size = n if size is None else check_int(size, "size", 1)
    if size > n:
        raise ValueError(f"size must be <= |points| - 1 = {n}, got {size}")
    xy = check_coordinates(points).tolist()
    layers = held_karp_layers(n)[: size - 1]
    # dist drops the signs of the differences: d is symmetric, bit for bit
    h = np.array([[dist(p, q) for q in xy] for p in xy])
    d, d0 = h[1:, 1:], h[0, 1:]
    dp = np.full((n, 1 << n), math.inf)
    ends = np.arange(n)
    dp[ends, 1 << ends] = d0
    cols = max(1, _GATHER_ENTRIES // (n * n))
    for masks, prev in layers:
        for c in range(0, masks.shape[1], cols):
            cand = dp.take(prev[:, c : c + cols], axis=1)  # [j, m, r]: dp[j, prev[m, r]]
            cand += d[:, :, None]
            dp[ends[:, None], masks[:, c : c + cols]] = cand.min(axis=0)
    return HeldKarp(dp, d, d0)


def held_karp_tour(points: Sequence[Point], hk: HeldKarp, mask: int) -> TspResult:
    """The optimal cycle over points[0] and the points i + 1 of the set bits i
    of `mask`, read from hk = held_karp(points, size), with at most `size`
    bits in mask: its order numbers the points as `points` does, from 0, and
    its length is cycle_length's.

    The path is recovered backwards from the root: the last terminal is the
    first argmin over j of dp[j, mask] + d0[j], the one before terminal `to`
    that of dp[j, mask] + d[to, j], the same sums the DP minimised, so ties go
    to the smallest index: the smallest last terminal among equal tour costs
    and the smallest predecessor among equal path costs. Over every point
    (mask 2^(n-1) - 1) it is tsp_exact. Over a subset S that holds points[0],
    it is tsp_exact(S) bit for bit: held_karp over S fills the same finite dp
    entries from the same distances, the entries outside S are inf and never a
    minimum, and the first argmin meets the same candidates in the same index
    order, so the order, and hence the length, is the same.

    A mask outside 0 .. 2^n - 1 for the table's n terminals, or one whose
    tour the table does not hold (more than `size` bits), raises ValueError:
    there every candidate of a step is inf.
    """
    n = len(hk.d0)
    mask = check_int(mask, "mask", 0)
    if mask >> n:
        raise ValueError(f"mask must be < 2**{n} for {n} terminals, got {mask}")
    order, to = [], hk.d0
    while mask:
        cand = hk.dp[:, mask] + to
        j = int(np.argmin(cand))
        if cand[j] == math.inf:
            raise ValueError(f"the table holds no tour over mask {mask:#b}: "
                             f"more terminals than its size")
        order.append(j + 1)
        mask ^= 1 << j
        to = hk.d[j]
    order = (0, *order[::-1])
    return TspResult(order, cycle_length(points, order), certified_optimal=True)


def tsp_exact(points: Sequence[Point]) -> TspResult:
    """Optimal tour by Held-Karp over points[1:], rooted at points[0]
    (held_karp_tour over every point).

    Rejects inputs larger than EXACT_THRESHOLD (2^n * n^2 work), and a
    coordinate that fails geometry.check_coordinates (ValueError).
    """
    n = len(points)
    if n > EXACT_THRESHOLD:
        raise ValueError(f"{n} points exceeds exact threshold {EXACT_THRESHOLD}")
    if n <= 1:
        check_coordinates(points)
        return TspResult(order=tuple(range(n)), length=0.0, certified_optimal=True)
    return held_karp_tour(points, held_karp(points), (1 << (n - 1)) - 1)


def tsp_heuristic(points: Sequence[Point], seed: int = 0) -> TspResult:
    """Nearest-neighbor walk from the location of point `seed % n`, then
    _local_search, over the distinct locations; each location's points follow
    one another in index order. A tour over at most 3 locations is optimal
    and certified; a longer one is a 2-opt local optimum over all pairs of
    edges. The result is deterministic for a given seed, and the same for
    the points scaled by a power of two. A coordinate or seed that fails
    geometry.check_coordinates or check_int raises ValueError."""
    seed = check_int(seed, "seed")
    pts = check_coordinates(points)
    first, loc = _locations(pts)
    m = len(first)
    if m <= CERTAIN_LOCATIONS:
        tour = list(range(m))
    else:
        index = _NeighbourIndex(pts[first])
        tour = _local_search(index, _neighbour_walk(index, int(loc[seed % len(pts)])))
    where = np.empty(m, dtype=np.int64)
    where[tour] = np.arange(m)
    order = tuple(np.argsort(where[loc], kind="stable").tolist())
    return TspResult(order=order, length=cycle_length(pts, order),
                     certified_optimal=m <= CERTAIN_LOCATIONS)


def _locations(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, loc): the distinct locations numbered by first occurrence, with
    first[l] the smallest index at location l and loc[i] the location of
    point i. Distinct points give first = loc = 0 .. n - 1."""
    key = np.lexsort((pts[:, 1], pts[:, 0]))  # stable: equal points by index
    new = np.ones(len(pts), dtype=bool)
    new[1:] = (pts[key[1:]] != pts[key[:-1]]).any(axis=1)
    first = np.sort(key[new])  # each location's smallest index, ascending
    loc = np.empty(len(pts), dtype=np.int64)
    loc[key] = np.searchsorted(first, key[new])[np.cumsum(new) - 1]
    return first, loc


class _NeighbourIndex:
    """One point set's neighbour table and the queries row(a) and
    closer(a, lim), over `sites`: the points at unit scale
    (geometry.unit_scale), which everything below reads.

    `table` is the (n, K) array of the K = min(NEIGHBOURS, n - 1) nearest
    other points of each point, ranked by (squared distance, index), and
    `d2` its squared distances, flat: row a sits at a * K .. a * K + K - 1,
    as it does in the memoryviews `rows`, `row_d2` and `row_d` (the plain
    distances, sqrt(d2)). A squared distance is (x_j - x_i)**2 +
    (y_j - y_i)**2, the value row(a) holds, so every query ranks the points
    as the walk and the search do.

    Up to _DENSE_MAX points (the dense path), one n x n matrix of squared
    distances, with the diagonal set to inf, is sorted once, row by row:
    np.argsort, then a stable re-sort of every row that holds equal entries,
    so each row runs in (d2, index) order; the sort is kept, the matrix is
    not. The table is its first K columns. Above it (the grid path),
    _grid_table builds the table and `_all` is None.
    """

    def __init__(self, pts: np.ndarray):
        self.sites = sites = unit_scale(pts)[0]
        n = len(sites)
        K = max(min(NEIGHBOURS, n - 1), 0)
        self._x, self._y = x, y = sites[:, 0], sites[:, 1]
        if n <= _DENSE_MAX:
            D = np.square(x - x[:, None])
            D += np.square(y - y[:, None])
            np.fill_diagonal(D, math.inf)
            order = np.argsort(D, axis=1)
            d2 = np.sort(D, axis=1)
            tied = (d2[:, 1:] == d2[:, :-1]).any(axis=1)
            order[tied] = np.argsort(D[tied], axis=1, kind="stable")
            # a's row of the sort sits at a * n .. a * n + n - 1, a itself
            # (at inf) last
            self._all = memoryview(order.reshape(-1))
            self._all_d2 = memoryview(d2.reshape(-1))
            self.table = np.ascontiguousarray(order[:, :K])
            self.d2 = d2[:, :K].reshape(-1)
        else:
            self._all = None
            self.table = _grid_table(sites)
            self.d2 = np.square(x[self.table] - x[:, None]).reshape(-1)
            self.d2 += np.square(y[self.table] - y[:, None]).reshape(-1)
        self._K = K
        self.rows = memoryview(self.table.reshape(-1))
        self.row_d2 = memoryview(self.d2)
        self.row_d = memoryview(np.sqrt(self.d2))

    @functools.cached_property
    def listers(self) -> tuple[memoryview, memoryview]:
        """(start, by): the points that list v among their K neighbours are
        by[start[v] : start[v + 1]], in no particular order; built on first
        use."""
        flat = self.table.reshape(-1)
        by = np.argsort(flat) // self._K
        start = np.zeros(len(self.sites) + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=len(self.sites)), out=start[1:])
        return memoryview(start), memoryview(by)

    def row(self, a: int) -> np.ndarray:
        """a's squared distances to every point, inf at a itself; a new
        array."""
        ex, ey = self._x - self._x[a], self._y - self._y[a]
        row = ex * ex + ey * ey
        row[a] = math.inf
        return row

    def closer(self, a: int, lim: float) -> Iterable[int]:
        """The points c != a with d2(a, c) < lim, in (d2, index) order.

        The dense path slices a's row of the sort where lim bisects it. The
        grid path yields a's listed neighbours closer than lim; when lim
        exceeds the K-th of them, it ranks row(a) for the rest, and only
        once the caller iterates that far.
        """
        if self._all is not None:
            n = len(self._x)
            k = a * n
            return self._all[k : bisect.bisect_left(self._all_d2, lim, k, k + n)]
        return self._closer_grid(a, lim)

    def _closer_grid(self, a: int, lim: float) -> Iterator[int]:
        K = self._K
        k = a * K
        end = bisect.bisect_left(self.row_d2, lim, k, k + K)
        yield from self.rows[k:end]
        if end == k + K:  # lim is beyond the K-th listed d2
            row = self.row(a)
            c = np.flatnonzero(row < lim)
            yield from c[np.argsort(row[c], kind="stable")][K:].tolist()


def _grid_table(pts: np.ndarray) -> np.ndarray:
    """The neighbour table through a grid (see _NeighbourIndex).

    The points are bucketed once into a grid of about _GRID_LOAD points per
    cell, and queried in blocks of at most _QUERY_BLOCK points. A point's
    candidates are the points in the square of cells within `ring` cells of
    its own. The point is done when its K-th candidate lies strictly closer
    than every edge of that square with cells beyond it; otherwise it is
    queried again with the ring doubled.
    """
    n = len(pts)
    K = min(NEIGHBOURS, n - 1)
    out = np.empty((n, max(K, 0)), dtype=np.int64)
    if K < 1:
        return out
    x, y = pts[:, 0], pts[:, 1]
    # nx x ny cells whose inner edges are the distinct quantiles of x and of
    # y, so that clustered points spread over them too, and no column or row
    # has zero width (a point on its edge would be at gap 0 until the ring
    # spanned the axis): cell (cx, cy) holds the points with
    # xedge[cx] <= x < xedge[cx + 1], and likewise in y
    side = max(1, round(math.sqrt(n / _GRID_LOAD)))
    inner = np.arange(1, side) * n // side
    xedge, yedge = (np.concatenate([[-math.inf], np.sort(v)[inner], [math.inf]])
                    for v in (x, y))
    xedge, yedge = (e[np.append(True, e[1:] > e[:-1])] for e in (xedge, yedge))
    nx, ny = len(xedge) - 1, len(yedge) - 1
    xy = np.column_stack([np.searchsorted(xedge[1:-1], x, side="right"),
                          np.searchsorted(yedge[1:-1], y, side="right")])
    cell = xy[:, 1] * nx + xy[:, 0]
    by_cell = np.argsort(cell, kind="stable")
    # cell c holds the points by_cell[first[c] : first[c + 1]]
    first = np.zeros(nx * ny + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=nx * ny), out=first[1:])
    # covers the rounding of a point's distance to an edge
    slack = 1e-14 * float(np.abs(pts).max())

    for b in range(0, n, _QUERY_BLOCK):
        q = np.arange(b, min(b + _QUERY_BLOCK, n))
        ring = 1
        while q.size:
            # the square's columns x0 .. x1 and rows y0 .. y1; row r of it is
            # the cell run [x0, x1] of grid row cy + r
            cx, cy = xy[q, 0], xy[q, 1]
            x0, x1 = np.maximum(cx - ring, 0), np.minimum(cx + ring, nx - 1)
            y0, y1 = np.maximum(cy - ring, 0), np.minimum(cy + ring, ny - 1)
            rows = cy[:, None] + np.arange(-ring, ring + 1)
            inside = (rows >= 0) & (rows < ny)
            rows = np.clip(rows, 0, ny - 1) * nx
            run_lo = np.where(inside, first[rows + x0[:, None]], 0).ravel()
            run_len = np.where(inside, first[rows + x1[:, None] + 1], 0).ravel() - run_lo
            owner = np.repeat(np.arange(len(q)).repeat(2 * ring + 1), run_len)
            offset = np.cumsum(run_len) - run_len
            cand = by_cell[np.arange(run_len.sum()) + np.repeat(run_lo - offset, run_len)]
            other = cand != q[owner]
            cand, owner = cand[other], owner[other]
            dx = x[cand] - x[q[owner]]
            dy = y[cand] - y[q[owner]]
            # one row per point, padded with (inf, n), ranked by d2, and by
            # (d2, index) where equal d2 meet among the first K + 1
            count = np.bincount(owner, minlength=len(q))
            col = np.arange(len(owner)) - (np.cumsum(count) - count)[owner]
            D = np.full((len(q), max(count.max(), K + 1)), math.inf)
            C = np.full(D.shape, n)
            D[owner, col], C[owner, col] = dx * dx + dy * dy, cand
            row = np.arange(len(q))[:, None]
            top = np.argsort(D, axis=1)[:, : K + 1]
            kth = D[row, top]
            tied = (kth[:, 1:] == kth[:, :-1]).any(axis=1) & (count >= K)
            if tied.any():
                top[tied] = np.lexsort((C[tied], D[tied]))[:, : K + 1]
            # the nearest edge of the square with cells beyond it (outer
            # edges are infinite)
            xq, yq = x[q], y[q]
            gap = np.minimum(np.minimum(xq - xedge[x0], xedge[x1 + 1] - xq),
                             np.minimum(yq - yedge[y0], yedge[y1 + 1] - yq))
            gap = np.maximum(gap - slack, 0.0)
            done = kth[:, K - 1] < gap * gap
            out[q[done]] = C[row[done], top[done, :K]]
            q = q[~done]
            ring *= 2
    return out


def _neighbour_walk(index: _NeighbourIndex, start: int) -> list[int]:
    """Nearest-neighbor tour from `start` over the points of `index`: each
    step moves to the closest unvisited point, ties to the smallest index.

    The first unvisited entry of the current point's neighbour row is that
    point; only when the whole row is visited does the step rank all points,
    by index.row.
    """
    n, K = index.table.shape
    rows = index.rows
    seen = bytearray(n)
    visited = np.frombuffer(seen, dtype=bool)  # a view: follows `seen`
    tour = [start]
    seen[start] = 1
    cur = start
    for _ in range(n - 1):
        for nxt in rows[cur * K : (cur + 1) * K]:
            if not seen[nxt]:
                break
        else:
            d2 = index.row(cur)
            d2[visited] = np.inf
            nxt = int(np.argmin(d2))
        seen[nxt] = 1
        tour.append(nxt)
        cur = nxt
    return tour


def _screen(index: _NeighbourIndex, tour: Sequence[int]) -> np.ndarray:
    """One flag per point of the cyclic `tour` over the sites of `index`
    (indexed by point): False proves that _local_search's improve(a) finds
    no move at a on this tour.

    It evaluates every candidate move that improve can try, in numpy, over
    tour-order arrays, with improve's rules: 2-opt on both sides over the
    listed neighbours with d2 < lim, skipping e == a; the five Or-opt
    segments, with their membership tests and both insertion steps, segments
    of 2 and 3 points only from n = 5 and 6. A point whose tour edge is
    longer than its K-th neighbour is flagged outright (the closer() path).
    The candidate (point, neighbour) pairs are compressed by np.nonzero
    before any hypot per pair.

    Every term reads what improve reads: np.hypot where it calls math.hypot,
    the index's row_d where improve does, so the integer gates and the
    d2 < lim and lim > kth gates are exact, bit for bit. The gates that go
    through hypot (the move deltas, gain > near and ac < gain) are widened
    by eps/2 = _IMPROVE_EPS/2, in the direction that flags more. Both hypots
    are within 1 ulp, so they differ by at most 2 ulp per term. Every
    |coordinate| of the sites is below 1 (e = 0), so each term is below 4,
    and a delta has at most five hypot terms and five roundings of sums
    below 16: the two evaluations differ by under 3e-14, against eps/2 =
    5e-13. So a move that improve takes (delta < -eps) reads below -eps/2
    here.
    """
    n = len(tour)
    K = index.table.shape[1]
    T = np.asarray(tour)
    at = np.empty(n, dtype=np.intp)  # the tour position of each point
    at[T] = np.arange(n)
    # by tour position, wrapped by W on both sides: position i, for
    # -W <= i < n + W, sits at W + i
    W = 4
    wrap = np.concatenate((T[n - W :], T, T[:W]))
    xw, yw = index.sites[wrap, 0], index.sites[wrap, 1]

    def at_offset(v: np.ndarray, s: int) -> np.ndarray:
        """v[W + i + s] for the positions i = 0 .. n - 1, as a view."""
        return v[W + s : W + s + n]

    def skip(s: int) -> np.ndarray:
        """The distances from each wrapped position to the one s later,
        wrapped alike."""
        return np.hypot(xw[:-s] - xw[s:], yw[:-s] - yw[s:])

    def hyp(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The distances between the positions i and j, each in -W .. n + W."""
        return np.hypot(xw[W + i] - xw[W + j], yw[W + i] - yw[W + j])

    def pairs(row: np.ndarray, lim: np.ndarray) -> tuple[np.ndarray, ...]:
        """(a, f, j): the entries row[a, t] < lim[j, a], with f = a * K + t,
        compressed first against each point's largest lim."""
        f = np.flatnonzero(row < lim.max(axis=0)[:, None])
        a = f // K
        j, p = np.nonzero(row.reshape(-1)[f] < lim[:, a])
        return a[p], f[p], j

    E = skip(1)  # E[W + i]: the tour edge (i, i + 1)
    table = index.table.reshape(-1)
    D2 = index.d2.reshape(n, K)  # by point, as the table
    half = _IMPROVE_EPS / 2

    # 2-opt on (a, f1) with e after c (side 0), and on (b1, a) with e before
    # c (side 1); a lim beyond the K-th listed d2 takes the closer() path
    x, y = at_offset(xw, 0), at_offset(yw, 0)
    lim = np.empty((2, n))
    for side, s in enumerate((1, -1)):
        ex, ey = at_offset(xw, s) - x, at_offset(yw, s) - y
        lim[side] = ex * ex + ey * ey
    lim = lim[:, at]  # by point
    flag = (lim > D2[:, K - 1]).any(axis=0)
    a, f, side = pairs(D2, lim)
    step = 1 - 2 * side
    i, c = at[a], at[table[f]]  # as tour positions
    e = c + step
    # (a, b) is the edge at i - side, (c, e) the one at c - side
    delta = (hyp(i, c) + hyp(i + step, e)) - E[W + i - side] - E[W + c - side]
    flag[a[(delta < -half) & (e % n != i)]] = True

    # Or-opt: the segments of m points, as (m, s1, z) with s1 the offset of
    # the segment's first position from a's and z that of its other end,
    # each with its gain; gain > near holds wherever some ac < gain does,
    # since row_d ascends
    segments = np.array([(1, 0, 0), (2, 0, 1), (2, -1, -1), (3, 0, 2), (3, -2, -2)])
    S2, S3, S4 = skip(2), skip(3), skip(4)
    gain = np.array([
        (at_offset(E, -1) + at_offset(E, 0)) - at_offset(S2, -1),
        (at_offset(E, -1) + at_offset(E, 1)) - at_offset(S3, -1),
        (at_offset(E, -2) + at_offset(E, 0)) - at_offset(S3, -2),
        (at_offset(E, -1) + at_offset(E, 2)) - at_offset(S4, -1),
        (at_offset(E, -3) + at_offset(E, 0)) - at_offset(S4, -3),
    ][: 1 if n < 5 else 3 if n < 6 else 5])[:, at]  # by point
    row_d = np.asarray(index.row_d)
    a, f, s = pairs(row_d.reshape(n, K), gain + half)
    m, s1, z = segments[s].T
    i = at[a]
    first = i + s1
    ac, g = row_d[f], gain[s, a]
    c = at[table[f]]
    out = (c - first) % n >= m
    for step in (1, -1):  # c2 after c, then before it; (c, c2) is the edge at min(c, c2)
        c2 = c + step
        delta = ((ac + hyp(i + z, c2)) - E[W + c + min(step, 0)]) - g
        flag[a[(delta < -half) & out & ((c2 - first) % n >= m)]] = True
    return flag


def _local_search(index: _NeighbourIndex, tour: Sequence[int]) -> list[int]:
    """First-improvement 2-opt and Or-opt from the cyclic `tour` over the
    sites of `index`, driven by a FIFO queue of active points (don't-look
    bits); returns the tour from point 0.

    Processing point a tries, in order, and applies the first move whose
    delta is below -eps = -_IMPROVE_EPS:
      - 2-opt on the edge (a, b) to a's successor, then to its predecessor:
        for each c closer to a than b, in (squared distance, index) order,
        replace (a, b) and the edge (c, e) on the same side of c by (a, c)
        and (b, e). These c are a's listed neighbours, or, when (a, b) is
        longer than a's K-th neighbour, every such point: index.closer,
        whose grid path ranks the points beyond the listed ones only when
        none of those gives a move;
      - Or-opt: a segment of 1-3 points with a at one end moves, forward or
        reversed, between a listed neighbour c of a and one of c's tour
        neighbours, with a next to c. c must be closer to a than the
        segment's removal gain.
    The endpoints of the changed edges join the queue. When the queue runs
    dry after a move, a confirming pass queues every point again, so the
    search ends with a full pass that moves nothing. Every improving 2-opt
    move has an endpoint whose new edge is shorter than the edge it removes,
    so the result is a 2-opt local optimum over all pairs. Only improving
    moves are taken, so the result is never longer than `tour`.

    From _SCREEN_MIN points on, the first confirming pass starts with
    _screen, and from then on the search keeps verdicts: known[a] says that
    improve(a) finds no move on the current tour, and a call at such a
    point is skipped. The screen's cleared points get one, and so does a
    call that moves nothing and read only a's listed neighbours; a tour
    edge longer than the K-th neighbour sends 2-opt through closer(), over
    points that no verdict follows. A cleared point provably has no move:
    the screen mirrors improve's gates, exactly where they compare the same
    bits and widened by eps/2 where they go through hypot, which covers the
    at most 3e-14 by which numpy's and math's hypot can move a delta (see
    _screen).

    A verdict holds until a move changes what improve(a) reads. Beyond the
    fixed points and distances, improve(a) reads the points within 3 tour
    positions of a (its edges, lims and Or-opt gains) and, for each listed
    neighbour c, whether c lies in one of a's segments and c's two tour
    neighbours: 2-opt pairs succ(c) with (a, succ a) and pred(c) with
    (pred a, a). A move with endpoints T changes the tour neighbours of the
    points of T and of no other point, and the direction of the tour only
    on a reversed path: 2-opt reverses the path between two endpoints (or
    the rest of the cycle, the same cycle), Or-opt at most its moved
    segment. So forget drops the verdict of a when
      - a lies within 3 positions of T: its window may have changed;
      - a lists a point of T, whose tour neighbours changed, or of the
        moved Or-opt segment, whose direction may have flipped;
      - after a 2-opt move, a and one of its listed neighbours lie on the
        two sides of the reversed path: their relative direction flipped,
        so 2-opt now pairs (a, succ a) with c's other tour neighbour. A pair
        straddles the path iff it straddles the rest of the cycle, so
        forget scans the shorter arc.
    That costs at most (|T| + the arc's length) x K steps, through the
    index's lists and their inverse (listers), never n x K. Every other
    verdict stays true. If a's window and its listed neighbours' tour
    neighbours keep their direction relative to a, improve(a) evaluates the
    same moves on the same bits. If all of them flipped together, as inside
    a reversed path, it still does: improve tries both sides, 2-opt on
    (a, succ a) with (c, succ c) and on (pred a, a) with (pred c, c), and
    the flip swaps the two, with lims and deltas that are the same sums of
    the same distances (hypot ignores signs, and addition commutes); the
    five Or-opt segments map onto each other with the same gains and the
    same far end z, and each c tries both of its tour neighbours. Only the
    order of the tries can change, and a verdict that no move exists does
    not depend on it. The screen evaluates both sides as improve does, so
    its clear is such a verdict. A skipped call would have moved nothing
    and changed nothing, so the queue, every move, and so the tour, are the
    same bit for bit.

    The tour is a position array; a move rewrites the shorter of the two
    tour arcs that give the same cycle, so a point's successor may become its
    predecessor. A start tour that is not a permutation of the points, its
    indices read by the integer rule, raises ValueError
    (geometry.check_permutation).
    """
    tour = check_permutation(tour, len(index.sites), "the start tour")
    n = len(tour)
    if n < 4:
        i = tour.index(0) if n else 0
        return tour[i:] + tour[:i]
    eps = _IMPROVE_EPS
    K = index.table.shape[1]
    xs, ys = index.sites[:, 0].tolist(), index.sites[:, 1].tolist()
    # point a's neighbours and their squared and plain distances sit at
    # a * K .. a * K + K - 1 of the index's memoryviews, which index as fast
    # as lists, without a Python object per entry
    rows, row_d2, row_d = index.rows, index.row_d2, index.row_d
    closer = index.closer
    pos = [0] * n
    for i, v in enumerate(tour):
        pos[v] = i
    hypot = math.hypot
    bisect_left = bisect.bisect_left
    # tour[i + 1 - n] and tour[i - 1] are the points after and before
    # position i, wrapping through negative indices without % n

    def arc(i: int, m: int) -> list[int]:
        """The m points from tour position i on."""
        if i + m <= n:
            return tour[i : i + m]
        return tour[i:] + tour[: i + m - n]

    def put(i: int, seq: list[int]) -> None:
        """Write seq over the arc from tour position i."""
        wrap = i + len(seq) - n
        if wrap <= 0:
            tour[i : i + len(seq)] = seq
        else:
            tour[i:] = seq[:-wrap]
            tour[:wrap] = seq[-wrap:]
        for k, v in enumerate(seq, i):
            pos[v] = k if k < n else k - n

    def reverse(u: int, v: int) -> None:
        """Reverse the path u .. v, or else the rest of the cycle."""
        i, m = pos[u], (pos[v] - pos[u]) % n + 1
        if 2 * m > n:
            i, m = (pos[v] + 1) % n, n - m
        seq = arc(i, m)
        seq.reverse()
        put(i, seq)

    def improve(a: int):
        """Apply the first improving move at a; return the endpoints of the
        changed edges, or None."""
        i = pos[a]
        f1, b1 = tour[i + 1 - n], tour[i - 1]
        ax, ay = xs[a], ys[a]
        fx, fy, bx, by = xs[f1], ys[f1], xs[b1], ys[b1]
        e_f = hypot(ax - fx, ay - fy)
        e_b = hypot(ax - bx, ay - by)
        k = a * K
        kth = row_d2[k + K - 1]
        # 2-opt on (a, f1): for each c closer to a than f1, with e after c,
        # a f1 .. c e -> a c .. f1 e
        ex, ey = fx - ax, fy - ay
        lim = ex * ex + ey * ey
        for c in (rows[k : bisect_left(row_d2, lim, k, k + K)] if lim <= kth
                  else closer(a, lim)):
            e = tour[pos[c] + 1 - n]
            if e == a:
                continue
            cx, cy, ex, ey = xs[c], ys[c], xs[e], ys[e]
            if (hypot(ax - cx, ay - cy) + hypot(fx - ex, fy - ey)) - e_f \
                    - hypot(cx - ex, cy - ey) < -eps:
                reverse(f1, c)
                return a, f1, c, e
        # 2-opt on (b1, a): for each c closer to a than b1, with e before c,
        # b1 a .. e c -> b1 e .. a c
        ex, ey = bx - ax, by - ay
        lim = ex * ex + ey * ey
        for c in (rows[k : bisect_left(row_d2, lim, k, k + K)] if lim <= kth
                  else closer(a, lim)):
            e = tour[pos[c] - 1]
            if e == a:
                continue
            cx, cy, ex, ey = xs[c], ys[c], xs[e], ys[e]
            if (hypot(ax - cx, ay - cy) + hypot(bx - ex, by - ey)) - e_b \
                    - hypot(cx - ex, cy - ey) < -eps:
                reverse(a, e)
                return a, b1, c, e
        # Or-opt: segments of m points with a at one end, tried in this order
        # as (m, s1, z, p, q) with s1 the first in tour order, z the other
        # end, p and q the points around the segment; each gain, what
        # removing the segment saves, is computed only when it is tried
        near = row_d[k]
        gain = e_b + e_f - hypot(bx - fx, by - fy)
        if gain > near and (moved := shift(a, 1, a, a, b1, f1, gain)):
            return moved
        if n < 5:
            return None
        f2, b2 = tour[i + 2 - n], tour[i - 2]
        f2x, f2y, b2x, b2y = xs[f2], ys[f2], xs[b2], ys[b2]
        gain = e_b + hypot(fx - f2x, fy - f2y) - hypot(bx - f2x, by - f2y)
        if gain > near and (moved := shift(a, 2, a, f1, b1, f2, gain)):
            return moved
        gain = hypot(b2x - bx, b2y - by) + e_f - hypot(b2x - fx, b2y - fy)
        if gain > near and (moved := shift(a, 2, b1, b1, b2, f1, gain)):
            return moved
        if n < 6:
            return None
        f3, b3 = tour[i + 3 - n], tour[i - 3]
        gain = e_b + hypot(f2x - xs[f3], f2y - ys[f3]) - hypot(bx - xs[f3], by - ys[f3])
        if gain > near and (moved := shift(a, 3, a, f2, b1, f3, gain)):
            return moved
        b3x, b3y = xs[b3], ys[b3]
        gain = hypot(b3x - b2x, b3y - b2y) + e_f - hypot(b3x - fx, b3y - fy)
        if gain > near:
            return shift(a, 3, b2, b2, b3, f1, gain)
        return None

    def shift(a: int, m: int, s1: int, z: int, p: int, q: int, gain: float):
        """Or-opt for one segment of improve: each listed neighbour c of a
        closer than `gain` tries the segment between itself and its
        successor c2 (c a .. z c2), then its predecessor (c2 z .. a c).
        Apply the first improving move; return the endpoints of the changed
        edges, or None."""
        zx, zy = xs[z], ys[z]
        first = pos[s1]
        k = a * K
        for t in range(k, k + K):
            ac = row_d[t]
            if ac >= gain:
                break
            c = rows[t]
            j = pos[c]
            if (j - first) % n < m:
                continue
            cx, cy = xs[c], ys[c]
            for step in (1, -1):
                c2 = tour[(j + step) % n]
                if (pos[c2] - first) % n < m:
                    continue
                x2, y2 = xs[c2], ys[c2]
                if (ac + hypot(zx - x2, zy - y2) - hypot(cx - x2, cy - y2)) \
                        - gain < -eps:
                    if step == 1:  # c a .. z c2
                        move(s1, m, q, c, a)
                    else:  # c2 z .. a c
                        move(s1, m, q, c2, z)
                    return p, q, a, z, c, c2
        return None

    def move(s1: int, m: int, q: int, u: int, head: int) -> None:
        """Move the segment of m points from s1 (followed by q) into the edge
        from u to its successor, starting with `head`."""
        seg = arc(pos[s1], m)
        if seg[0] != head:
            seg.reverse()
        gap = (pos[u] - pos[q]) % n + 1  # the points q .. u
        if 2 * gap + m <= n:  # rewrite s1 .. u as q .. u, seg
            i = pos[s1]
            put(i, arc((i + m) % n, gap) + seg)
        else:  # rewrite succ(u) .. s2 as seg, succ(u) .. p
            i = (pos[u] + 1) % n
            put(i, seg + arc(i, n - gap - m))

    def listed_only(a: int) -> bool:
        """Whether improve(a) read only a's listed neighbours: neither tour
        edge at a is longer than its K-th neighbour (improve's test, bit for
        bit)."""
        i = pos[a]
        kth = row_d2[a * K + K - 1]
        ax, ay = xs[a], ys[a]
        for b in (tour[i + 1 - n], tour[i - 1]):
            ex, ey = xs[b] - ax, ys[b] - ay
            if ex * ex + ey * ey > kth:
                return False
        return True

    def forget(touched: tuple) -> None:
        """Drop the verdicts that the move with endpoints `touched` can have
        changed: those within 3 positions of an endpoint; those of the points
        that list an endpoint or a point of the moved Or-opt segment; after a
        2-opt move, those of the points with a listed neighbour on the other
        side of the reversed path."""
        start, by = index.listers
        for v in touched:
            i = pos[v]
            for j in range(i - 3, i + 4):
                known[tour[j % n]] = 0
            for w in by[start[v] : start[v + 1]]:
                known[w] = 0
        if len(touched) == 6:  # Or-opt: the segment runs from a, next to c, to z
            _, _, a, z, c, _ = touched
            i = pos[a]
            mid = tour[(i + 1) % n] if tour[i - 1] == c else tour[i - 1]
            if a != z != mid:  # the middle point of 3
                for w in by[start[mid] : start[mid + 1]]:
                    known[w] = 0
            return
        # 2-opt: a c .. b e, or e b .. c a; the arc c .. b, or else the rest
        a, b, c, _ = touched
        i, j = (pos[b], pos[c]) if tour[pos[a] - 1] == c else (pos[c], pos[b])
        m = (j - i) % n + 1
        if 2 * m > n:
            i, m = (i + m) % n, n - m
        for v in arc(i, m):
            if known[v]:
                for u in rows[v * K : v * K + K]:
                    if (pos[u] - i) % n >= m:
                        known[v] = 0
                        break
            for w in by[start[v] : start[v + 1]]:
                if known[w] and (pos[w] - i) % n >= m:
                    known[w] = 0

    queue = deque(tour)
    queued = bytearray(b"\x01") * n
    moved = tracked = False
    # known[a]: a has no move on the current tour; tracked from the first
    # confirming pass on, from _SCREEN_MIN points
    known = bytearray(n)
    while queue:
        a = queue.popleft()
        queued[a] = 0
        if not known[a]:
            touched = improve(a)
            if touched:
                moved = True
                if tracked:
                    forget(touched)
                for v in touched:
                    if not queued[v]:
                        queued[v] = 1
                        queue.append(v)
            elif tracked and listed_only(a):
                known[a] = 1
        if not queue and moved:  # confirm with a full pass
            moved = False
            queue.extend(tour)
            queued = bytearray(b"\x01") * n
            if not tracked and n >= _SCREEN_MIN:
                tracked = True
                known = bytearray((~_screen(index, tour)).tobytes())
    return tour[pos[0]:] + tour[: pos[0]]


def check_tsp_mode(mode: str) -> None:
    if mode not in TSP_MODES:
        raise ValueError(f"unknown tsp mode: {mode!r}")


def tsp_dispatch(points: Sequence[Point], mode: str = "auto", seed: int = 0) -> TspResult:
    """A cycle over `points` that starts at point 0, certified exactly when it
    is provably optimal: the exact solver iff `mode` is `auto` and there are
    at most EXACT_THRESHOLD points, the heuristic otherwise. An unknown mode,
    a seed or a coordinate that fails geometry.check_int or check_coordinates
    raises ValueError on either path, at every size, also on an empty input."""
    check_tsp_mode(mode)
    seed = check_int(seed, "seed")
    if dispatch_exact(len(points), mode):
        return tsp_exact(points)
    return tsp_heuristic(points, seed)


def dispatch_exact(n: int, mode: str) -> bool:
    """Whether tsp_dispatch runs tsp_exact over n points in `mode`."""
    return mode == "auto" and n <= EXACT_THRESHOLD


def dispatch_certified(points: Sequence[Point], mode: str = "auto") -> bool:
    """Whether tsp_dispatch(points, mode) returns a certified tour, decided
    without touring: the exact path, or at most CERTAIN_LOCATIONS distinct
    locations. Raises ValueError as tsp_dispatch does."""
    check_tsp_mode(mode)
    xy = check_coordinates(points)
    return dispatch_exact(len(xy), mode) or len(_locations(xy)[0]) <= CERTAIN_LOCATIONS
