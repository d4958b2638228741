"""CVRP on a single sweep group: exact set-partition DP for small groups,
tour-splitting heuristic otherwise.

The exact path computes, for every subset of at most k terminals of the
group, the optimal tour cost through the depot (one run of tsp.held_karp,
stopped at k terminals, yields them all at once: the minimum over the last
terminal of dp + d0), then a set-partition DP over those capacity-feasible
blocks, which reads no larger subset's tour, one popcount layer at a time
over the read-only `partition_layers` tables, built once per (n, min(k, n))
in int16. Those tables hold only the masks the DP can reach from the whole
group: a mask M is reached iff popcount(M) >= n - low(M) * k, with low(M)
its lowest bit: every block removed on the way to M is anchored at a bit
below low(M), one block per bit, and any M within the bound is reached that
way (the proof in full is in partition_layers). They keep a third of the
(mask, block) pairs at n = 12, k = 6 and under a fifth at k <= 3. The DP
keeps each subset's cost only; the way back finds the winning block of each mask on its path as the
first argmin over that mask's row, whose blocks are in descending order, so
among equal sums the largest block wins, and tsp.held_karp_tour reads the
block's route from the table. The heuristic path cuts one TSP tour over the
group plus depot into segments of at most k terminals, taking the best of k
rotation offsets (cvrp_group_heuristic, which ITP runs as it is). The offsets
are screened in numpy first: an offset's total is a constant plus the sum of
its cuts' costs d(depot, a) + d(depot, b) - d(a, b), one column sum of a
(ceil(n / k), k) table each, and only the offsets within twice a proven
rounding bound of the least are summed by the exact rule, so the winner and
every length keep their bits (_offsets). solve_group runs
cvrp_group_heuristic, then improves each segment's route by depot_two_opt,
as the sweep of Gillett and Miller (1974) improves each route after the
cut; each stage reads the group's points itself, and checks first that
its indices (the split's order, the pass's routes) hold each of the group's
terminals once (geometry.check_permutation). A segment is a path of
the group tour, which is 2-opt optimal, so a 2-opt move between two of its
inner edges is a move of that tour with the same four edges and cannot
gain: only the moves that replace one of the route's two depot edges can.
The pass takes the best of them while one gains more than tsp._IMPROVE_EPS
at unit scale. The DP's sums and the pass's gains only choose: every Tour's
length is the fsum of its route's edges, geometry.tour_length bit for bit.

All solutions returned here use local indices 0..len(U)-1; callers remap.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    Point, Solution, Tour, check_coordinates, check_int, check_permutation, dist,
    tour_length, unit_scale,
)
from .tsp import (
    _IMPROVE_EPS, check_tsp_mode, held_karp, held_karp_tour, subset_layers, tsp_dispatch,
)

EXACT_GROUP_THRESHOLD = 12
# (mask, block) pairs per step of the set-partition DP: its float64
# temporaries stay at 64 KB each, in cache. At 12 terminals and k = 6 (238,592
# pairs, before the tables kept only reachable masks; 79,575 since) the DP
# took 1.2 ms per call in steps of 8192, 1.6 ms in whole layers (a shared
# 2-vCPU Xeon)
_BLOCK_ENTRIES = 8192
# binary64's unit roundoff: |fl(x) - x| <= _U * |x| for a rounded sum
_U = 2.0**-53


@dataclass(frozen=True)
class SolveConfig:
    tsp_mode: str = "auto"
    seed: int = 0

    def __post_init__(self) -> None:
        check_tsp_mode(self.tsp_mode)
        object.__setattr__(self, "seed", check_int(self.seed, "seed"))


@functools.cache
def partition_layers(n: int, k: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The set-partition DP's tables for popcount p = 1 .. n, built once per
    (n, k) with k <= n.

    Entry p - 1 is (masks, blocks, rest): masks holds the masks of
    tsp.subset_layers(n)'s layer that the DP reaches from the whole group,
    and row r of blocks lists the blocks that part[masks[r]] pulls from.
    Each holds the lowest bit of masks[r] and a pattern over its p - 1
    other bits with at most k - 1 set, the patterns in descending order;
    rest = masks[r] ^ blocks. All three are in int16, as every mask is, and
    shared between callers and read-only.

    A mask M != 0 is reached from the whole group iff popcount(M) >=
    n - low(M) * k, where low(M) is its lowest bit (pos[:, 0]):
      - each DP step removes one block that holds the current lowest bit, so
        every block removed on the way to M has its smallest bit below
        low(M). At most low(M) blocks do, each of at most k bits, so
        n - popcount(M) <= low(M) * k;
      - conversely, a mask that meets the bound is reached by anchoring one
        block at each bit below low(M) and giving those blocks the bits
        outside M, at most k to each.
    The rest of a reached mask is reached (it lost at most k bits and its
    lowest bit rose by at least one), so the DP of a kept mask reads only
    kept rests and the way back reads only kept rows: every value read, and
    every tour, keeps its bits. part stays 0 on the masks left out, and
    nothing reads it there.
    """
    layers = []
    for masks, pos in subset_layers(n):
        p = pos.shape[1]
        reachable = pos[:, 0] * k >= n - p
        masks, pos = masks[reachable], pos[reachable]
        masks.flags.writeable = False
        t = np.arange((1 << (p - 1)) - 1, -1, -1)
        t_bits = (t[:, None] >> np.arange(p - 1)) & 1
        t_bits = t_bits[t_bits.sum(axis=1) < k]
        blocks = ((1 << pos[:, 1:]) @ t_bits.T) | (1 << pos[:, :1])
        rest = (masks[:, None] ^ blocks).astype(np.int16)
        blocks = blocks.astype(np.int16)
        blocks.flags.writeable = rest.flags.writeable = False
        layers.append((masks, blocks, rest))
    return tuple(layers)


def cvrp_exact_small(U: Sequence[Point], depot: Point, k: int) -> Solution:
    """Minimum-total-length partition of U into tours of at most k terminals.

    Subset DP: optimal single-tour cost per subset of at most k terminals,
    then a set-partition DP over those subsets. Raises ValueError for |U| >
    EXACT_GROUP_THRESHOLD, a k that fails geometry.check_int and a coordinate
    that fails geometry.check_coordinates, the depot's too when U is empty.
    """
    n = len(U)
    if n > EXACT_GROUP_THRESHOLD:
        raise ValueError(
            f"{n} points exceeds exact group threshold {EXACT_GROUP_THRESHOLD}"
        )
    k = check_int(k, "capacity", 1)
    if n == 0:
        check_coordinates([depot], "depot")
        return Solution(())

    k = min(k, n)
    points = (depot, *U)
    hk = held_karp(points, k)  # no tour of more than k terminals is read
    cost = (hk.dp + hk.d0[:, None]).min(axis=0)  # each mask's tour; inf above k
    layers = partition_layers(n, k)
    # part[mask]: cheapest partition of mask into blocks of at most k
    # terminals. A block holds the lowest bit of mask and a submask of the
    # other bits, so part pulls from layers of lower popcount only.
    part = np.zeros(1 << n)
    for masks, blocks, rest in layers:
        rows = max(1, _BLOCK_ENTRIES // blocks.shape[1])
        for r in range(0, len(masks), rows):
            cand = cost.take(blocks[r : r + rows])  # take beats [] on int16
            cand += part.take(rest[r : r + rows])
            part[masks[r : r + rows]] = cand.min(axis=1)

    # the block of each mask on the way back: the first of equal sums, so
    # among equal sums the largest block wins
    tours = []
    mask = (1 << n) - 1
    while mask:
        masks, blocks, rest = layers[mask.bit_count() - 1]
        r = int(np.searchsorted(masks, mask))
        s = int(blocks[r, np.argmin(cost[blocks[r]] + part[rest[r]])])
        route = held_karp_tour(points, hk, s)
        tours.append(Tour(tuple(i - 1 for i in route.order[1:]), route.length))
        mask ^= s
    return Solution(tuple(tours))


def split_tour_sequence(
    U: Sequence[Point], depot: Point, seq: Sequence[int], k: int
) -> list[Tour]:
    """Cut the cyclic terminal sequence `seq` into consecutive segments of at
    most k terminals, trying the k rotation offsets and keeping the cheapest
    by the fsum of its segment lengths.

    Returns one Tour per segment of the winning offset, of length the fsum
    of the segment's edges (tour_length). Offset r puts the first r terminals
    in a short leading segment; ties prefer the smaller offset. Only the
    offsets that _offsets screens in are summed exactly; the others provably
    cannot reach or tie the least exact total. seq must order all of U
    (check_permutation), k pass check_int, and the depot and U, read once,
    check_coordinates (ValueError).
    """
    k = check_int(k, "capacity", 1)
    seq = check_permutation(seq, len(U), "the split order")
    rows = check_coordinates((depot, *U)).tolist()
    n = len(seq)
    pts = [rows[i + 1] for i in seq]
    dep = [dist(rows[0], p) for p in pts]
    legs = [dist(a, b) for a, b in zip(pts, pts[1:])]
    best_cost, best_cuts = math.inf, []
    for r in _offsets(dep, legs, k):
        starts = ([0] if r else []) + list(range(r, n, k))
        cuts = [(a, b, math.fsum([dep[a], *legs[a : b - 1], dep[b - 1]]))
                for a, b in zip(starts, starts[1:] + [n])]
        total = math.fsum(c for _, _, c in cuts)
        if total < best_cost:
            best_cost, best_cuts = total, cuts
    return [Tour(indices=tuple(seq[a:b]), length=c) for a, b, c in best_cuts]


def _offsets(dep: list[float], legs: list[float], k: int) -> list[int]:
    """The offsets r < min(k, n) whose exact total in split_tour_sequence can
    reach or tie the least one, ascending.

    With d_i = dep[i] and l_i = legs[i], offset r cuts the sequence at
    K(r) = {c : 0 < c < n, c = r mod k}, and the real sum of its segments'
    terms is S(r) = C + V(r), with C = sum(l) + d_0 + d_{n-1} and V(r) the
    sum over c in K(r) of g_c = d_(c-1) + d_c - l_(c-1): each cut drops a
    leg and adds the depot edges of the two ends it makes. C is the same for
    every offset, so the screen compares V~(r), the column sums of a
    zero-padded (m, k) table of the computed g_c, m = ceil(n / k), and E
    below bounds |V~(r) - (T(r) - C)|, T(r) the exact rule's total.

    The bound. With u = 2**-53, a rounded sum or difference x and a
    correctly rounded fsum satisfy |fl(x) - x| <= u |x| and <= u |fl(x)|
    (a sum in the subnormal range is exact), and adding m terms in any
    order errs by at most gamma_m = m u / (1 - m u) times the sum of their
    absolute values (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, 4.2).
      - g_c is computed as fl(w_c - l_(c-1)) with w_c = fl(d_(c-1) + d_c),
        so it is within u h_c of g_c, h_c = w_c + |fl(g_c)|, and V~(r) is
        within (u + gamma_(m-1)) H(r) <= gamma_m H(r) of V(r), H(r) the real
        sum of h_c over K(r). The column sums H~(r) of the rounded h_c are
        at least (1 - gamma_m) H(r), so |V~(r) - V(r)| <= E_V =
        gamma_m / (1 - gamma_m) max H~, which is at most
        m u (1 + 2**-20) max H~ for n <= 2**30.
      - The exact rule rounds each segment's fsum of non-negative terms,
        then the fsum of those: |T(r) - S(r)| <= (2u + u^2) S(r), and
        S(r) <= fsum(l) / (1 - u) + d_0 + d_{n-1} + max(V~, 0) + E_V.
    So E = E_V + (2u + u^2) times that bound on S(r). The code evaluates
    (1 + 2**-19) (e + 2u (fsum(l) + d_0 + d_{n-1} + max(V~, 0) + e)),
    e = m u max H~, plus 2**-1070: every term is non-negative, the factor
    covers u^2, 1 / (1 - u), the 2**-20 above and the eight roundings of
    the evaluation, and the last term the three products should they fall
    below 2**-1022.

    If r is the exact winner, T(r) <= T(s) for s the offset of least V~,
    so V~(r) <= T(r) - C + E <= T(s) - C + E <= V~(s) + 2E: r is kept
    (rounding is monotone, so comparing with fl(V~(s) + 2E) keeps it too).
    split_tour_sequence sums the kept offsets in ascending r under a strict
    <, so it returns the first exact minimum over all offsets. One offset
    needs no screen.
    """
    n = len(dep)
    width = min(k, n)
    if width <= 1:
        return list(range(width))
    m = -(-n // k)
    a = np.array(dep + legs)
    w = a[: n - 1] + a[1:n]
    table = np.zeros((2, m * k))  # rows g and h, column c % k, row c // k
    g, h = table[0, 1:n], table[1, 1:n]
    np.subtract(w, a[n:], out=g)
    np.abs(g, out=h)
    h += w
    v, hs = table.reshape(2, m, k).sum(axis=1)[:, :width].tolist()
    e = m * _U * max(hs)
    bound = (1 + 2.0**-19) * (e + 2 * _U * (
        math.fsum(legs) + dep[0] + dep[-1] + max(max(v), 0.0) + e)) + 2.0**-1070
    cap = min(v) + 2 * bound
    return [r for r, x in enumerate(v) if x <= cap]


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
    seq = [i - 1 for i in res.order[1:]]  # the depot leads; back to U indices
    return Solution(tuple(split_tour_sequence(U, depot, seq, k)))


def solve_group(
    U: Sequence[Point], depot: Point, k: int, config: SolveConfig = SolveConfig()
) -> Solution:
    """Exact partition for small groups, otherwise cvrp_group_heuristic with
    each of its routes then improved by depot_two_opt."""
    if len(U) <= EXACT_GROUP_THRESHOLD:
        return cvrp_exact_small(U, depot, k)
    sol = cvrp_group_heuristic(U, depot, k, config.tsp_mode, config.seed)
    return Solution(tuple(depot_two_opt(U, depot, sol.tours)))


def depot_two_opt(U: Sequence[Point], depot: Point, tours: Sequence[Tour]) -> list[Tour]:
    """Each route of `tours` after best-improvement 2-opt over its depot edges.

    On a route depot, s_1 .. s_m, depot the moves are "reverse s_1 .. s_j",
    which trades (depot, s_1) and (s_j, s_j+1) for (depot, s_j) and
    (s_1, s_j+1), and "reverse s_j .. s_m", which trades (s_j-1, s_j) and
    (s_m, depot) for (s_j-1, s_m) and (s_j, depot), for 1 <= j < m and
    1 < j <= m. Their gains are computed with dist on the sites at unit scale
    (geometry.unit_scale, the depot as row 0), so the moves do not depend on
    the points' power-of-two scale. While one gains more than _IMPROVE_EPS,
    the one of the largest gain is applied, the first among equals, head
    moves before tail moves. A changed route's length is tour_length of its
    route, and it replaces its tour only when strictly shorter, so no route
    gets longer and every route keeps its terminals. The routes must be the
    routes of the group U, their indices each of U's once
    (check_permutation), each route nonempty and its length tour_length of
    its route bit for bit, as check_feasible asks, and the depot and U, read
    once, must pass check_coordinates (ValueError). Every returned index is
    a plain int.
    """
    terminals = iter(check_permutation([i for t in tours for i in t.indices], len(U),
                                       "the routes' terminal list"))
    xy = check_coordinates((depot, *U))
    rows = xy.tolist()
    sites = list(zip(*unit_scale(xy)[0].T.tolist()))
    out = []
    for tour in tours:
        route = [i + 1 for i in itertools.islice(terminals, len(tour.indices))]
        if not route:
            raise ValueError("the routes hold an empty route")
        length = tour_length(rows[0], [rows[v] for v in route])
        if tour.length != length:
            raise ValueError(f"a route's tour length {tour.length!r} != route length "
                             f"{length!r}")
        indices = tuple(v - 1 for v in route)
        route = _depot_moves(sites, route)
        moved = tuple(v - 1 for v in route)
        if moved != indices:
            moved_length = tour_length(rows[0], [rows[v] for v in route])
            if moved_length < length:
                indices, length = moved, moved_length
        out.append(Tour(indices, length))
    return out


def _depot_moves(sites: list[tuple[float, float]], route: list[int]) -> list[int]:
    """`route` (rows of `sites`, the depot left out) after the depot-edge
    moves of depot_two_opt."""
    m = len(route)
    if m < 3:  # each move keeps the route or reverses all of it
        return route
    o, p = sites[0], [sites[v] for v in route]
    d0 = [dist(o, q) for q in p]
    legs = [dist(a, b) for a, b in zip(p, p[1:])]  # legs[j]: p[j] to p[j + 1]
    while True:
        # the gains of reversing p[: j + 1], then those of reversing p[j + 1 :]
        a, z, ha, hz = p[0], p[-1], d0[0], d0[-1]
        head = [ha + leg - d - dist(a, q) for leg, d, q in zip(legs, d0, p[1:])]
        tail = [hz + leg - d - dist(q, z) for leg, d, q in zip(legs, d0[1:], p)]
        hg, tg = max(head), max(tail)
        if hg <= _IMPROVE_EPS and tg <= _IMPROVE_EPS:
            return route
        if hg >= tg:  # the legs inside p[: j + 1] are legs[:j]
            j = head.index(hg)
            legs[j] = dist(a, p[j + 1])
            s, inner = slice(0, j + 1), slice(0, j)
        else:  # those inside p[j + 1 :] are legs[j + 1 :]
            j = tail.index(tg)
            legs[j] = dist(p[j], z)
            s = inner = slice(j + 1, m)
        legs[inner] = legs[inner][::-1]
        for seq in (route, p, d0):
            seq[s] = seq[s][::-1]
