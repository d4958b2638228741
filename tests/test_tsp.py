import bisect
import functools
import inspect
import itertools
import math
from collections import deque
from typing import Sequence

import numpy as np
import pytest

import sweepcvrp.tsp as tsp
from sweepcvrp.bruteforce import tsp_brute_force
from sweepcvrp.geometry import Point, as_xy, check_coordinates, dist
from sweepcvrp.tsp import (
    _IMPROVE_EPS,
    EXACT_THRESHOLD,
    NEIGHBOURS,
    TSP_MODES,
    _local_search,
    _neighbour_walk,
    _NeighbourIndex,
    _screen,
    cycle_length,
    tsp_dispatch,
    tsp_exact,
    tsp_heuristic,
)

from helpers import SCALE_EXPONENTS, random_points, run_in_child, within_ulps

SQUARE = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]


class TestExact:
    def test_single_point(self):
        res = tsp_exact([Point(2, 3)])
        assert res.length == 0.0
        assert res.certified_optimal

    def test_out_and_back(self):
        res = tsp_exact([Point(0, 0), Point(0, 3)])
        assert res.order == (0, 1) and res.length == 6.0

    def test_unit_square(self):
        res = tsp_exact(SQUARE)
        assert res.length == pytest.approx(4.0, abs=1e-9)
        assert res.length == pytest.approx(tsp_brute_force(SQUARE), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = int(rng.integers(0, 9))
            pts = random_points(rng, n)
            res = tsp_exact(pts)
            assert res.length == pytest.approx(tsp_brute_force(pts), abs=1e-9)
            assert res.certified_optimal
            assert res.length == pytest.approx(cycle_length(pts, res.order),
                                               rel=1e-9, abs=1e-9)
            assert sorted(res.order) == list(range(n))

    def test_rejects_oversize(self):
        pts = random_points(np.random.default_rng(0), 15)
        with pytest.raises(ValueError, match="exceeds exact threshold"):
            tsp_exact(pts)


class TestHeuristic:
    def test_unit_square_reaches_optimum(self):
        res = tsp_heuristic(SQUARE, seed=0)
        assert res.length == pytest.approx(4.0, abs=1e-9)
        assert not res.certified_optimal

    def test_tiny_inputs_equal_exact(self):
        rng = np.random.default_rng(29)
        for n in (0, 1, 2, 3):
            pts = random_points(rng, n)
            h = tsp_heuristic(pts, seed=5)
            e = tsp_exact(pts)
            assert h.length == pytest.approx(e.length, abs=1e-12)

    def test_within_factor_of_exact(self):
        rng = np.random.default_rng(31)
        pts = random_points(rng, 10)
        h = tsp_heuristic(pts, seed=42)
        e = tsp_exact(pts)
        assert h.length <= 1.25 * e.length + 1e-9

    def test_never_below_exact(self):
        rng = np.random.default_rng(37)
        for trial in range(25):
            n = int(rng.integers(4, 12))
            pts = random_points(rng, n)
            h = tsp_heuristic(pts, seed=trial)
            e = tsp_exact(pts)
            assert h.length >= e.length - 1e-9

    def test_two_opt_local_optimum(self):
        rng = np.random.default_rng(41)
        pts = random_points(rng, 30)
        res = tsp_heuristic(pts, seed=3)
        order = list(res.order)
        n = len(order)
        # full scan: no 2-opt move may strictly improve
        for i in range(n - 1):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                a, b = pts[order[i]], pts[order[i + 1]]
                c, d = pts[order[j]], pts[order[(j + 1) % n]]
                delta = dist(a, c) + dist(b, d) - dist(a, b) - dist(c, d)
                assert delta >= -1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        pts = random_points(rng, 60)
        r1 = tsp_heuristic(pts, seed=9)
        r2 = tsp_heuristic(pts, seed=9)
        assert r1.order == r2.order
        assert r1.length == r2.length


class TestInvariance:
    @staticmethod
    def _transform(pts, angle, dx, dy):
        c, s = math.cos(angle), math.sin(angle)
        return [Point(c * p.x - s * p.y + dx, s * p.x + c * p.y + dy) for p in pts]

    def test_exact_rigid_motion(self):
        rng = np.random.default_rng(47)
        pts = random_points(rng, 9)
        base = tsp_exact(pts).length
        for angle, dx, dy in [(0.7, 2, -1), (2.1, -5, 0.3), (math.pi, 0, 0)]:
            moved = self._transform(pts, angle, dx, dy)
            assert tsp_exact(moved).length == pytest.approx(base, abs=1e-9)

    def test_heuristic_translation(self):
        rng = np.random.default_rng(53)
        pts = random_points(rng, 25)
        base = tsp_heuristic(pts, seed=1).length
        moved = [Point(p.x + 10, p.y - 4) for p in pts]
        assert tsp_heuristic(moved, seed=1).length == pytest.approx(base, abs=1e-9)

    def test_heuristic_rotation(self):
        rng = np.random.default_rng(57)
        pts = random_points(rng, 25)
        base = tsp_heuristic(pts, seed=2).length
        for angle in (0.35, 1.9):
            rotated = self._transform(pts, angle, 0, 0)
            assert tsp_heuristic(rotated, seed=2).length == pytest.approx(base, abs=1e-9)


class TestDispatch:
    def test_auto_small_certified(self):
        pts = random_points(np.random.default_rng(59), 5)
        assert tsp_dispatch(pts, "auto").certified_optimal

    def test_auto_large_not_certified(self):
        pts = random_points(np.random.default_rng(61), 100)
        assert not tsp_dispatch(pts, "auto").certified_optimal

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown tsp mode"):
            tsp_dispatch([], "fastest")

    def test_exact_is_not_a_mode(self):
        # a caller that wants an optimal tour or an error calls tsp_exact
        pts = random_points(np.random.default_rng(67), 5)
        with pytest.raises(ValueError, match="unknown tsp mode"):
            tsp_dispatch(pts, "exact")


class TestContract:
    """tsp_dispatch returns a cycle that starts at point 0, certified exactly
    when it is provably optimal."""

    @pytest.mark.parametrize("mode", TSP_MODES)
    def test_starts_at_zero_certified_iff_optimal(self, mode):
        rng = np.random.default_rng(101)
        for n in (*range(21), 300):
            pts = random_points(rng, n)
            res = tsp_dispatch(pts, mode, seed=n)
            assert sorted(res.order) == list(range(n)), n
            assert res.order[:1] == (0,)[:n], n
            optimal = (mode == "auto" and n <= EXACT_THRESHOLD) or n <= 3
            assert res.certified_optimal == optimal, n

    def test_local_search_of_few_points_starts_at_zero(self):
        pts = np.random.default_rng(103).random((3, 2))
        assert _local_search(_NeighbourIndex(pts), [2, 0, 1]) == [0, 1, 2]
        assert _local_search(_NeighbourIndex(pts[:0]), []) == []


class TestTuples:
    """Plain (x, y) tuples are points: both solvers read the converted array."""

    @pytest.mark.parametrize("n", (2, 5, 14, 15, 129))
    def test_tuples_and_points_agree(self, n):
        pts = random_points(np.random.default_rng(n), n)
        tuples = [(p.x, p.y) for p in pts]
        solvers = [tsp_heuristic, tsp_dispatch] + [tsp_exact] * (n <= EXACT_THRESHOLD)
        for solve in solvers:
            assert solve(tuples) == solve(pts), solve.__name__

    def test_cycle_length_reads_any_pair_form(self):
        pts = random_points(np.random.default_rng(5), 7)
        order = (0, 3, 1, 6, 2, 5, 4)
        want = math.fsum(dist(pts[order[i - 1]], pts[order[i]]) for i in range(7))
        xy = np.array(pts)
        assert cycle_length(pts, order) == cycle_length(xy, order) == want
        assert cycle_length(xy.tolist(), list(order)) == want

    def test_cycle_length_of_no_edge_is_zero(self):
        # 0 points sum no edge and 1 point one edge of length hypot(0, 0)
        p = Point(0.25, -3.0)
        for points, order in (([], ()), ([p], (0,)), ([p, Point(1.0, 2.0)], [1])):
            for form in (points, [tuple(q) for q in points], np.array(points).reshape(-1, 2)):
                assert repr(cycle_length(form, order)) == "0.0"


def _dist_reference(p: Point, q: Point) -> float:
    """The former body of geometry.dist."""
    return math.hypot(p.x - q.x, p.y - q.y)


def _hypots_reference(dx: np.ndarray, dy: np.ndarray) -> list[float]:
    """The former tsp._hypots: math.hypot of each pair of differences."""
    return list(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()))


def _bits(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


class TestDistanceRule:
    """dist is math.dist: the bits of math.hypot of Point differences, and of
    math.hypot over numpy difference arrays, which cycle_length and
    held_karp's d and d0 were computed by."""

    TINY = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 2.2250738585072014e-308)

    def _sets(self):
        rng = np.random.default_rng(2027)
        sets = [rng.random((n, 2)) * 2 - 1 for n in (2, 5, 9, 14)]
        sets.append(np.repeat(rng.random((3, 2)), 3, axis=0))  # co-located
        sets.append(np.outer(rng.random(8), [0.6, -0.8]) + 0.25)  # collinear
        # subnormal differences and signed zeros
        sets.append(np.array(list(itertools.product(self.TINY[:4], repeat=2))))
        sets.append(rng.choice(self.TINY, size=(12, 2)))
        return [np.ldexp(xy, e) for xy in sets for e in SCALE_EXPONENTS]

    def test_dist_is_the_former_rule(self):
        for xy in self._sets():
            pts = _as_points(xy)
            for (p, a), (q, b) in itertools.product(zip(pts, xy), repeat=2):
                want = _dist_reference(p, q).hex()
                assert dist(p, q).hex() == dist(a, b).hex() == dist(tuple(p), list(q)).hex() \
                    == want

    def test_cycle_length_is_the_former_rule(self):
        rng = np.random.default_rng(31)
        # an edge out and back sums to exactly twice its length: no rounding
        # of the sum can hide a one-ulp difference in it
        pairs = list(rng.random((2000, 2, 2)) * 2 - 1)
        for xy in self._sets() + pairs:
            for order in (range(len(xy)), rng.permutation(len(xy))):
                at = as_xy(xy)[list(order)]
                step = at - np.concatenate((at[1:], at[:1]))
                want = math.fsum(_hypots_reference(step[:, 0], step[:, 1]))
                assert cycle_length(_as_points(xy), order).hex() == want.hex()

    def test_held_karp_distances_are_the_former_rule(self):
        for xy in self._sets():
            pts = _as_points(xy)
            hk = tsp.held_karp(pts, 1)
            at = check_coordinates(pts)
            step = at[:, None] - at
            h = np.array(_hypots_reference(step[..., 0], step[..., 1])).reshape(len(at), -1)
            assert _bits(hk.d) == _bits(h[1:, 1:]) and _bits(hk.d0) == _bits(h[0, 1:])


class TestColocated:
    """The heuristic solves over the distinct locations and emits each
    location's points consecutively, in index order."""

    def test_many_copies_of_few_sites(self, monkeypatch):
        sites = np.random.default_rng(0).random((10, 2))
        pts = _as_points(np.repeat(sites, 500, axis=0))
        seen = []
        real = tsp._NeighbourIndex
        monkeypatch.setattr(tsp, "_NeighbourIndex", lambda p: seen.append(len(p)) or real(p))
        res = tsp_heuristic(pts, seed=0)
        assert seen == [10]
        # the kernel before the neighbour-list search gave 3.3083 here
        assert res.length <= 3.3083
        blocks = np.array(res.order).reshape(10, 500)
        assert (blocks == blocks[:, :1] + np.arange(500)).all()
        assert res.order[0] == 0 and not res.certified_optimal

    def test_at_most_three_locations_certified(self):
        a, b, c = Point(0, 0), Point(3, 0), Point(0, 4)
        res = tsp_heuristic([a, b, a, c, b], seed=4)
        assert res.order == (0, 2, 1, 4, 3)
        assert res.length == 12.0 and res.certified_optimal
        res = tsp_heuristic([a] * 9, seed=2)
        assert res.order == tuple(range(9)) and res.length == 0.0
        assert res.certified_optimal

    def test_copies_follow_their_location(self):
        # copies join the tour of the distinct points, next to their first
        # occurrence, and the walk starts at the location of point seed % n
        rng = np.random.default_rng(107)
        base = random_points(rng, 20)
        pts = base + [base[i] for i in (3, 3, 17, 0)]
        for seed, base_seed in ((0, 0), (21, 3), (23, 0)):
            res = tsp_heuristic(pts, seed)
            ref = tsp_heuristic(base, base_seed)
            order = list(res.order)
            assert [v for v in order if v < 20] == list(ref.order)
            for i, j in ((3, 20), (20, 21), (17, 22), (0, 23)):
                assert order.index(j) == order.index(i) + 1
            assert res.length == ref.length


def _nearest_neighbor_reference(pts: np.ndarray, start: int) -> np.ndarray:
    """The O(n^2) nearest-neighbor construction that _neighbour_walk replaced:
    each step ranks every point. The walk must return the same tour, bit for
    bit."""
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


def _two_opt_reference(pts: np.ndarray, tour: np.ndarray,
                       eps: float = _IMPROVE_EPS) -> np.ndarray:
    """The first-improvement 2-opt kernel that _local_search replaced, the
    quality reference: edge pairs (i, j) scanned lexicographically, with the
    j-scan vectorized, and passes repeated until none improves."""
    n = len(tour)
    if n < 4:
        return tour
    x = np.append(pts[tour, 0], pts[tour[0], 0])
    y = np.append(pts[tour, 1], pts[tour[0], 1])
    e = np.hypot(x[:-1] - x[1:], y[:-1] - y[1:])  # e[p]: edge (p, p + 1)
    improved = True
    while improved:
        improved = False
        i = 0
        while i < n - 2:
            jmax = n - 1 if i > 0 else n - 2  # (0, n-1) shares a node
            h_ac = np.hypot(x[i] - x[i + 2 : jmax + 1], y[i] - y[i + 2 : jmax + 1])
            h_bd = np.hypot(x[i + 1] - x[i + 3 : jmax + 2],
                            y[i + 1] - y[i + 3 : jmax + 2])
            hit = (h_ac + h_bd) - e[i] - e[i + 2 : jmax + 1] < -eps
            k = int(hit.argmax())
            if hit[k]:
                j = i + 2 + k
                tour[i + 1 : j + 1] = tour[i + 1 : j + 1][::-1]
                x[i + 1 : j + 1] = x[i + 1 : j + 1][::-1]
                y[i + 1 : j + 1] = y[i + 1 : j + 1][::-1]
                e[i + 1 : j] = e[i + 1 : j][::-1]
                e[i], e[j] = h_ac[k], h_bd[k]
                improved = True
            else:
                i += 1
    return tour


# The _local_search kernel before its inner loop was made leaner, kept
# verbatim as the reference: _local_search must take the same moves in the
# same order and so return the same tour, bit for bit.
def _local_search_reference(pts: np.ndarray, tour: Sequence[int],
                            nbrs: np.ndarray) -> list[int]:
    """First-improvement 2-opt and Or-opt from the cyclic `tour`, driven by a
    FIFO queue of active points (don't-look bits); returns the tour from point 0.

    Processing point a tries, in order, and applies the first move whose
    delta is below -eps = -_IMPROVE_EPS:
      - 2-opt on the edge (a, b) to a's successor, then to its predecessor:
        for each c closer to a than b, in (squared distance, index) order,
        replace (a, b) and the edge (c, e) on the same side of c by (a, c)
        and (b, e). These c are a's listed neighbours, or, when (a, b) is
        longer than a's K-th neighbour, every such point;
      - Or-opt: a segment of 1-3 points with a at one end moves, forward or
        reversed, between a listed neighbour c of a and one of c's tour
        neighbours, with a next to c. c must be closer to a than the
        segment's removal gain.
    The endpoints of the changed edges join the queue. When the queue runs
    dry after a move, a confirming pass queues every point again, so the
    search ends with a full pass that moves nothing. Every improving 2-opt move has an endpoint
    whose new edge is shorter than the edge it removes, so the result is a
    2-opt local optimum over all pairs. Only improving moves are taken, so
    the result is never longer than `tour`.

    The tour is a position array; a move rewrites the shorter of the two
    tour arcs that give the same cycle, so a point's successor may become its
    predecessor. A start tour that is not a permutation of the points raises
    ValueError.
    """
    tour = [int(v) for v in tour]
    n = len(tour)
    if sorted(tour) != list(range(len(pts))):
        raise ValueError("the start tour is not a permutation of the points")
    if n < 4:
        i = tour.index(0) if n else 0
        return tour[i:] + tour[:i]
    eps = _IMPROVE_EPS
    K = nbrs.shape[1]
    x, y = pts[:, 0], pts[:, 1]
    xs, ys = x.tolist(), y.tolist()
    # point a's neighbours and their squared and plain distances sit at
    # a * K .. a * K + K - 1; memoryviews index as fast as lists, without a
    # Python object per entry
    rows = memoryview(nbrs.reshape(-1))
    d2 = np.square(x[nbrs] - x[:, None]).reshape(-1)
    d2 += np.square(y[nbrs] - y[:, None]).reshape(-1)
    row_d2, row_d = memoryview(d2), memoryview(np.sqrt(d2))
    pos = [0] * n
    for i, v in enumerate(tour):
        pos[v] = i
    hypot = math.hypot

    def d(a: int, b: int) -> float:
        return hypot(xs[a] - xs[b], ys[a] - ys[b])

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

    def closer(a: int, b: int) -> Sequence[int]:
        """The points c with d2(a, c) < d2(a, b), in (d2, index) order."""
        ex, ey = xs[b] - xs[a], ys[b] - ys[a]
        lim = ex * ex + ey * ey
        k = a * K
        if lim <= row_d2[k + K - 1]:
            return rows[k : bisect.bisect_left(row_d2, lim, k, k + K)]
        ex, ey = x - xs[a], y - ys[a]
        row = ex * ex + ey * ey
        c = np.flatnonzero(row < lim)
        return [v for v in c[np.argsort(row[c], kind="stable")].tolist() if v != a]

    def improve(a: int):
        """Apply the first improving move at a; return the endpoints of the
        changed edges, or None."""
        i = pos[a]
        f1, b1 = tour[(i + 1) % n], tour[i - 1]
        ax, ay = xs[a], ys[a]
        e_f = hypot(ax - xs[f1], ay - ys[f1])
        e_b = hypot(ax - xs[b1], ay - ys[b1])
        for step, b, ab in ((1, f1, e_f), (-1, b1, e_b)):  # 2-opt
            bx, by = xs[b], ys[b]
            for c in closer(a, b):
                e = tour[(pos[c] + step) % n]
                if e == a:
                    continue
                cx, cy, ex, ey = xs[c], ys[c], xs[e], ys[e]
                if (hypot(ax - cx, ay - cy) + hypot(bx - ex, by - ey)) - ab \
                        - hypot(cx - ex, cy - ey) < -eps:
                    if step == 1:
                        reverse(b, c)  # a b .. c e -> a c .. b e
                    else:
                        reverse(a, e)  # b a .. e c -> b e .. a c
                    return a, b, c, e
        # Or-opt: segments of m points with a at one end, as (m, s1, z, p, q)
        # with s1 the first in tour order, z the other end, p and q the
        # points around the segment; the gain is what removing it saves
        segments = [(1, a, a, b1, f1, e_b + e_f - d(b1, f1))]
        if n >= 5:
            f2, b2 = tour[(i + 2) % n], tour[i - 2]
            segments += [(2, a, f1, b1, f2, e_b + d(f1, f2) - d(b1, f2)),
                         (2, b1, b1, b2, f1, d(b2, b1) + e_f - d(b2, f1))]
        if n >= 6:
            f3, b3 = tour[(i + 3) % n], tour[i - 3]
            segments += [(3, a, f2, b1, f3, e_b + d(f2, f3) - d(b1, f3)),
                         (3, b2, b2, b3, f1, d(b3, b2) + e_f - d(b3, f1))]
        k = a * K
        for m, s1, z, p, q, gain in segments:
            if gain <= row_d[k]:  # no listed neighbour is close enough
                continue
            zx, zy = xs[z], ys[z]
            first = pos[s1]
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

    queue = deque(tour)
    queued = bytearray(b"\x01") * n
    moved = False
    while queue:
        a = queue.popleft()
        queued[a] = 0
        touched = improve(a)
        if touched:
            moved = True
            for v in touched:
                if not queued[v]:
                    queued[v] = 1
                    queue.append(v)
        if not queue and moved:  # confirm with a full pass
            moved = False
            queue.extend(tour)
            queued = bytearray(b"\x01") * n
    return tour[pos[0]:] + tour[: pos[0]]


class _LoggingEps(float):
    """A move threshold that logs the bits of every delta compared with its
    negation: as a float subclass, `delta < -eps` calls (-eps).__gt__(delta)
    first."""

    def __new__(cls, value: float, log: list[str]):
        e = super().__new__(cls, value)
        e.log = log
        return e

    def __neg__(self) -> "_LoggingEps":
        return _LoggingEps(-float(self), self.log)

    def __gt__(self, delta: float) -> bool:
        self.log.append(delta.hex())
        return float.__gt__(self, delta)


def _logging_deque(log: list) -> type:
    """A deque that logs ("call", a) for each point a it hands out: the
    reference calls improve(a) once per popleft, and _local_search does too
    unless the screen cleared a, so the entries split the delta log into
    calls, a cleared one with no deltas."""

    class LoggingDeque(deque):
        def popleft(self):
            a = super().popleft()
            log.append(("call", a))
            return a

    return LoggingDeque


def _logged_run(kernel, *args):
    """(tour, calls) of kernel(*args): _local_search_reference(sites, start,
    nbrs) or _local_search(index, start). calls lists each improve call as
    (a, deltas): the point, and the bits of every move delta the call
    compared with the threshold, in order. Equal deltas pin every sum's
    order, although no decision sits within rounding of the threshold on
    these inputs."""
    log: list = []
    eps = _LoggingEps(_IMPROVE_EPS, log)
    queue = _logging_deque(log)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tsp, "_IMPROVE_EPS", eps)  # read by _local_search
        mp.setitem(globals(), "_IMPROVE_EPS", eps)  # by the reference
        mp.setattr(tsp, "deque", queue)
        mp.setitem(globals(), "deque", queue)
        tour = kernel(*args)
    calls: list = []
    for entry in log:
        if isinstance(entry, tuple):
            calls.append((entry[1], []))
        else:
            calls[-1][1].append(entry)
    return tour, [(a, tuple(deltas)) for a, deltas in calls]


def _runs_with_deltas(pts: np.ndarray, start: list[int], nbrs: np.ndarray):
    """The _logged_run of _local_search_reference over the table `nbrs` and
    the sites of the index of `pts`, whose table it is, then of
    _local_search over that index."""
    index = _NeighbourIndex(pts)
    assert np.array_equal(index.table, nbrs)
    return [_logged_run(_local_search_reference, index.sites, start, nbrs),
            _logged_run(_local_search, index, start)]


def _assert_same_moves(ref_calls: list, calls: list) -> int:
    """Position by position, the screened search handed out the reference's
    points, and each of its calls is the reference's, delta bits and all,
    or a cleared call that logged no deltas where the reference's moved
    nothing; returns the number of cleared calls whose reference logged
    deltas."""
    assert [a for a, _ in calls] == [a for a, _ in ref_calls]
    cleared = 0
    for ref, call in zip(ref_calls, calls):
        if call != ref:
            assert call[1] == (), (ref, call)
            assert all(float.fromhex(d) >= -_IMPROVE_EPS for d in ref[1]), ref
            cleared += 1
    return cleared


def _best_moves(pts: np.ndarray, tour: list[int], nbrs: np.ndarray):
    """(best, best_np): for each point a, the smallest delta of the moves
    that improve can try at a on the cyclic `tour`, by the reference
    kernel's rules and with math.hypot, and the delta of that same move with
    np.hypot for every math.hypot; inf where it tries none. A point has a
    move exactly when best < -eps, whatever the order of the tries. A point
    whose 2-opt would rank all points (a tour edge longer than its K-th
    neighbour) gets -inf: the screen must flag it outright."""
    n, K = nbrs.shape
    x, y = pts[:, 0], pts[:, 1]
    xs, ys = x.tolist(), y.tolist()
    d2 = np.square(x[nbrs] - x[:, None]) + np.square(y[nbrs] - y[:, None])
    rows, row_d, row_d2 = nbrs.tolist(), np.sqrt(d2).tolist(), d2.tolist()
    pos = [0] * n
    for i, v in enumerate(tour):
        pos[v] = i

    def math_d(a, b):
        return math.hypot(xs[a] - xs[b], ys[a] - ys[b])

    def np_d(a, b):
        return float(np.hypot(xs[a] - xs[b], ys[a] - ys[b]))

    best, best_np = np.full(n, math.inf), np.full(n, math.inf)
    for a in range(n):
        i = pos[a]
        f1, b1, f2, b2, f3, b3 = (tour[(i + s) % n] for s in (1, -1, 2, -2, 3, -3))
        tries = []  # (delta with math.hypot, the delta as a function of d)
        lims = []
        for b in (f1, b1):
            ex, ey = xs[b] - xs[a], ys[b] - ys[a]
            lims.append(ex * ex + ey * ey)
        if max(lims) > row_d2[a][K - 1]:
            best[a] = best_np[a] = -math.inf
            continue
        for (step, b), lim in zip(((1, f1), (-1, b1)), lims):  # 2-opt
            for c in (c for c, v in zip(rows[a], row_d2[a]) if v < lim):
                e = tour[(pos[c] + step) % n]
                if e != a:
                    def delta(d, b=b, c=c, e=e):
                        return (d(a, c) + d(b, e)) - d(a, b) - d(c, e)
                    tries.append((delta(math_d), delta))
        # Or-opt: (m, s1, z, gain) as in the reference
        segments = [(1, a, a, lambda d: d(b1, a) + d(a, f1) - d(b1, f1))]
        if n >= 5:
            segments += [(2, a, f1, lambda d: d(b1, a) + d(f1, f2) - d(b1, f2)),
                         (2, b1, b1, lambda d: d(b2, b1) + d(a, f1) - d(b2, f1))]
        if n >= 6:
            segments += [(3, a, f2, lambda d: d(b1, a) + d(f2, f3) - d(b1, f3)),
                         (3, b2, b2, lambda d: d(b3, b2) + d(a, f1) - d(b3, f1))]
        for m, s1, z, gain in segments:
            first = pos[s1]
            g = gain(math_d)
            for ac, c in zip(row_d[a], rows[a]):
                if ac >= g:
                    break
                if (pos[c] - first) % n < m:
                    continue
                for step in (1, -1):
                    c2 = tour[(pos[c] + step) % n]
                    if (pos[c2] - first) % n >= m:
                        def delta(d, ac=ac, c=c, c2=c2, z=z, gain=gain):
                            return ((ac + d(z, c2)) - d(c, c2)) - gain(d)
                        tries.append((((ac + math_d(z, c2)) - math_d(c, c2)) - g, delta))
        if tries:
            best[a], delta = min(tries, key=lambda t: t[0])
            best_np[a] = delta(np_d)
    return best, best_np


def _closer_all_reference(pts: np.ndarray, a: int, lim: float) -> list[int]:
    """The all-points query of _local_search before the neighbour index,
    kept verbatim as the reference for _NeighbourIndex.closer."""
    x, y = pts[:, 0], pts[:, 1]
    xs = x.tolist()
    ys = y.tolist()

    def closer_all(a: int, lim: float) -> list[int]:
        """The points c with d2(a, c) < lim, in (d2, index) order, over all
        points: the case where lim exceeds a's K-th listed neighbour."""
        ex, ey = x - xs[a], y - ys[a]
        row = ex * ex + ey * ey
        c = np.flatnonzero(row < lim)
        return [v for v in c[np.argsort(row[c], kind="stable")].tolist() if v != a]

    return closer_all(a, lim)


def _neighbours_brute_force(pts: np.ndarray) -> np.ndarray:
    n = len(pts)
    K = max(min(NEIGHBOURS, n - 1), 0)
    rows = []
    for i in range(n):
        dx = pts[:, 0] - pts[i, 0]
        dy = pts[:, 1] - pts[i, 1]
        ranked = np.lexsort((np.arange(n), dx * dx + dy * dy))
        rows.append([j for j in ranked if j != i][:K])
    return np.array(rows, dtype=np.int64).reshape(n, K)


def _best_2opt_delta(pts: np.ndarray, order) -> float:
    """The smallest length change of any 2-opt move on the cyclic tour, over
    all pairs of non-adjacent edges."""
    p = pts[np.asarray(order)]
    q = np.roll(p, -1, axis=0)  # q[i] follows p[i]
    n = len(p)
    i, j = np.triu_indices(n, 2)
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]

    def d(a, b):
        return np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])

    delta = d(p[i], p[j]) + d(q[i], q[j]) - d(p[i], q[i]) - d(p[j], q[j])
    return float(delta.min()) if delta.size else 0.0


def _length(pts: np.ndarray, order) -> float:
    return cycle_length(_as_points(pts), [int(v) for v in order])


def _kernel_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(71)
    cases = {f"random-{n}": rng.random((n, 2)) for n in (4, 5, 17, 64, 300)}
    base = rng.random((12, 2))
    cases["duplicates"] = np.vstack([base, base[:7], base[3:5]])
    t = rng.permutation(25) / 24.0
    cases["collinear"] = np.column_stack([0.2 + 0.5 * t, 0.1 + 0.3 * t])
    cases["all-equal"] = np.full((9, 2), 0.375)
    # Collinear at coordinate scale 1e4: every 2-opt delta that is zero in
    # exact arithmetic carries rounding noise (about 1e-12), which the move
    # threshold must absorb: _IMPROVE_EPS at the index's unit scale, 2^14 *
    # 1e-12 (about 1.6e-8) at the case's own.
    far = np.random.default_rng(1)
    u = far.normal(size=2)
    u /= np.hypot(*u)
    cases["collinear-far"] = np.outer(far.random(30) * 1e4, u)
    # a dense cluster and a few far points: the grid query widens its ring
    cases["clusters"] = np.vstack([0.01 * rng.random((40, 2)), 5 + rng.random((5, 2))])
    # one x value, and two: repeated x quantiles, once zero-width grid columns
    cases["vertical-line"] = np.column_stack([np.full(200, 0.3), rng.random(200)])
    cases["two-columns"] = np.column_stack([rng.choice([0.25, 0.75], 200),
                                            rng.random(200)])
    # a 12 x 12 integer lattice at scale 1/16, where squared distances are
    # exact, in shuffled index order: the 9th to 12th nearest of an inner
    # point are equally far, so equal d2 straddle the K-th column
    lattice = np.stack(np.meshgrid(np.arange(12), np.arange(12)), axis=-1) / 16
    cases["lattice"] = np.random.default_rng(12).permutation(lattice.reshape(-1, 2))
    return cases


KERNEL_CASES = _kernel_cases()


class TestTwoOptKernel:
    """The neighbour table, the nearest-neighbor walk and _local_search
    against brute force and the reference kernels they replaced."""

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_neighbours_match_brute_force(self, name):
        pts = KERNEL_CASES[name]
        assert np.array_equal(_NeighbourIndex(pts).table, _neighbours_brute_force(pts))

    @pytest.mark.parametrize("block", [1, 7, 256, 10**6])
    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_neighbours_independent_of_block(self, name, block, monkeypatch):
        # a point's row does not depend on which points share its query
        monkeypatch.setattr(tsp, "_DENSE_MAX", 0)  # the grid path
        monkeypatch.setattr(tsp, "_QUERY_BLOCK", block)
        pts = KERNEL_CASES[name]
        assert np.array_equal(_NeighbourIndex(pts).table, _neighbours_brute_force(pts))

    @pytest.mark.parametrize("dense_max", [0, 10**6])  # the grid, the dense path
    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_index_table_on_both_paths(self, name, dense_max, monkeypatch):
        monkeypatch.setattr(tsp, "_DENSE_MAX", dense_max)
        pts = KERNEL_CASES[name]
        index = _NeighbourIndex(pts)
        nbrs = _neighbours_brute_force(pts)
        assert np.array_equal(index.table, nbrs)
        # the squared distances that _local_search computed from the table,
        # over the sites
        x, y = index.sites[:, 0], index.sites[:, 1]
        d2 = np.square(x[nbrs] - x[:, None]).reshape(-1)
        d2 += np.square(y[nbrs] - y[:, None]).reshape(-1)
        assert index.d2.tobytes() == d2.tobytes()
        # the sites are at unit scale, so the points scaled by any power of
        # two give the same sites, table and d2, bit for bit
        assert 0.5 <= np.abs(index.sites).max() < 1
        for e in SCALE_EXPONENTS:
            scaled = _NeighbourIndex(np.ldexp(pts, e))
            for got, want in ((scaled.sites, index.sites), (scaled.table, index.table),
                              (scaled.d2, index.d2)):
                assert got.tobytes() == want.tobytes(), e

    def test_row_is_the_dense_matrix_row(self):
        # row(a) computes what the dense path's distance matrix held, which
        # the index no longer keeps, bit for bit
        rng = np.random.default_rng(137)
        for _ in range(20):
            pts = rng.random((int(rng.integers(4, 129)), 2))
            index = _NeighbourIndex(pts)
            x, y = index.sites[:, 0], index.sites[:, 1]
            D = np.square(x - x[:, None])
            D += np.square(y - y[:, None])
            np.fill_diagonal(D, math.inf)
            assert all(index.row(a).tobytes() == D[a].tobytes() for a in range(len(pts)))

    @pytest.mark.parametrize("dense_max", [0, 10**6])
    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_closer_matches_reference(self, name, dense_max, monkeypatch):
        # at lims between a point's nearest and farthest d2, and at each
        # listed d2, where `<` must leave the equal entries out
        monkeypatch.setattr(tsp, "_DENSE_MAX", dense_max)
        index = _NeighbourIndex(KERNEL_CASES[name])
        pts = index.sites
        n = len(pts)
        K = index.table.shape[1]
        rng = np.random.default_rng(n)
        for a in range(n) if n <= 64 else rng.choice(n, 40, replace=False):
            a = int(a)
            d2 = np.square(pts[:, 0] - pts[a, 0]) + np.square(pts[:, 1] - pts[a, 1])
            d2 = np.sort(np.delete(d2, a))
            lims = [*rng.uniform(d2[0], d2[-1], 6), *index.d2[a * K : a * K + K],
                    np.nextafter(d2[-1], math.inf)]
            for lim in map(float, lims):
                assert list(index.closer(a, lim)) == _closer_all_reference(pts, a, lim)

    def test_lattice_ties_straddle_kth(self):
        pts = KERNEL_CASES["lattice"]
        K = NEIGHBOURS
        d2 = np.square(pts[:, None, 0] - pts[:, 0]) + np.square(pts[:, None, 1] - pts[:, 1])
        d2 = np.sort(d2, axis=1)[:, 1:]  # each point's own 0 first
        assert (d2[:, K - 1] == d2[:, K]).any()

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_same_tour_on_both_paths(self, name, monkeypatch):
        pts = KERNEL_CASES[name]
        start = np.random.default_rng(len(pts)).permutation(len(pts)).tolist()
        tours = []
        for dense_max in (0, 10**6):
            monkeypatch.setattr(tsp, "_DENSE_MAX", dense_max)
            tours.append(_local_search(_NeighbourIndex(pts), start))
        assert tours[0] == tours[1]

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_same_moves_as_reference(self, name):
        pts = KERNEL_CASES[name]
        n = len(pts)
        index = _NeighbourIndex(pts)
        nbrs = index.table
        starts = [_neighbour_walk(index, s) for s in sorted({0, 1, n // 2, n - 1})]
        starts.append(np.random.default_rng(n).permutation(n).tolist())
        for start in starts:
            (ref, ref_calls), (tour, calls) = _runs_with_deltas(pts, start, nbrs)
            assert tour == ref, start
            if n > tsp._DENSE_MAX:  # screened: cleared calls log no deltas
                _assert_same_moves(ref_calls, calls)
            else:
                assert calls == ref_calls, start

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_same_moves_as_reference_few_points(self, n):
        # Or-opt tries segments of 2 points from n = 5 and of 3 from n = 6;
        # each search runs plain, and every other one again with every
        # confirming pass screened
        rng = np.random.default_rng(100 + n)
        moved = cleared = 0
        for trial in range(40):
            pts = rng.random((n, 2))
            nbrs = _NeighbourIndex(pts).table
            start = rng.permutation(n).tolist()
            (ref, ref_calls), (tour, calls) = _runs_with_deltas(pts, start, nbrs)
            assert tour == ref and calls == ref_calls, pts
            moved += tour != start[start.index(0):] + start[: start.index(0)]
            if trial % 2:
                continue
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tsp, "_DENSE_MAX", 0)
                screened, calls = _logged_run(_local_search, _NeighbourIndex(pts), start)
            assert screened == ref, pts
            cleared += _assert_same_moves(ref_calls, calls)
        assert moved  # the comparison covers tours that the search changed
        assert cleared  # and searches whose screen cleared calls

    @pytest.mark.parametrize("n", range(NEIGHBOURS + 3))
    def test_neighbours_of_few_points(self, n):
        # up to n = K + 1 every row lists all other points
        pts = np.random.default_rng(n).random((n, 2))
        assert np.array_equal(_NeighbourIndex(pts).table, _neighbours_brute_force(pts))

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_same_tours_as_reference(self, name):
        # the walk's start tours are the reference nearest-neighbor tours
        pts = KERNEL_CASES[name]
        n = len(pts)
        index = _NeighbourIndex(pts)
        nbrs = index.table
        ranked_all = False
        for start in range(n) if n <= 64 else (0, 1, n // 2, n - 1):
            expected = _nearest_neighbor_reference(pts, start).tolist()
            assert _neighbour_walk(index, start) == expected, start
            ranked_all |= any(b not in nbrs[a] for a, b in zip(expected, expected[1:]))
        if n > 20:
            assert ranked_all  # some step found its whole row visited

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_local_optimum(self, name):
        pts = KERNEL_CASES[name]
        n = len(pts)
        index = _NeighbourIndex(pts)
        scale = max(1.0, float(np.abs(pts).max()))
        for start in sorted({0, 1, n // 2, n - 1}):
            walk = _neighbour_walk(index, start)
            tour = _local_search(index, walk)
            assert sorted(tour) == list(range(n))
            assert _best_2opt_delta(pts, tour) >= -1e-9 * scale
            assert _length(pts, tour) <= _length(pts, walk)

    def test_mean_length_at_most_reference(self):
        rng = np.random.default_rng(83)
        new, old = [], []
        for trial in range(20):
            pts = rng.random((300, 2))
            new.append(tsp_heuristic(_as_points(pts), seed=trial).length)
            ref = _two_opt_reference(pts, _nearest_neighbor_reference(pts, trial))
            old.append(_length(pts, ref))
        assert np.mean(new) <= np.mean(old)

    def test_never_longer_than_start_tour(self):
        rng = np.random.default_rng(89)
        for n in (4, 5, 6, 7, 30, 200):
            pts = rng.random((n, 2))
            index = _NeighbourIndex(pts)
            local_optimum = _two_opt_reference(pts, _nearest_neighbor_reference(pts, 0))
            for start in (rng.permutation(n).tolist(), local_optimum.tolist()):
                tour = _local_search(index, start)
                assert sorted(tour) == list(range(n)) and tour[0] == 0
                assert _best_2opt_delta(pts, tour) >= -1e-9
                assert _length(pts, tour) <= _length(pts, start)

    @pytest.mark.parametrize("start", [[0, 1, 2, 2, 4], [0, 1, 2, 3], [0, 1, 2, 3, 5]])
    def test_rejects_non_permutation(self, start):
        pts = np.random.default_rng(97).random((5, 2))
        with pytest.raises(ValueError, match="not a permutation"):
            _local_search(_NeighbourIndex(pts), start)


# the screen's checks, as (index path, power of two, tours): the grid path
# on all three tours at unit scale; on the walk, the dense path, and the
# grid path over the case scaled by 2^-600, 2^-200 and 2^200, which the
# index brings back to unit scale
SCREEN_RUNS = [(0, 0, 3), (10**6, 0, 1), (0, -600, 1), (0, -200, 1), (0, 200, 1)]


@functools.cache
def _screen_tours(name: str) -> tuple[tuple[int, ...], ...]:
    """Tours of a kernel case to screen: the nearest-neighbor walk from point
    0, a random tour, and the local optimum from the walk with one point in
    ten swapped with its successor, which leaves moves among listed
    neighbours, where the screen does its work."""
    pts = KERNEL_CASES[name]
    n = len(pts)
    index = _NeighbourIndex(pts)
    walk = _neighbour_walk(index, 0)
    rng = np.random.default_rng(n)
    swapped = _local_search(index, walk)
    for i in rng.choice(n - 1, max(1, n // 10), replace=False):
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    return tuple(walk), tuple(rng.permutation(n).tolist()), tuple(swapped)


@functools.cache
def _screen_oracle(name: str, e: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """_best_moves on tour k of _screen_tours(name), over the sites of the
    index of the kernel case scaled by 2^e; the table is the same on both
    index paths."""
    index = _NeighbourIndex(np.ldexp(KERNEL_CASES[name], e))
    return _best_moves(index.sites, list(_screen_tours(name)[k]), index.table)


class TestScreen:
    """_screen's False flag proves that improve finds no move at a point, and
    the confirming pass it drives takes the reference kernel's moves."""

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_unflagged_points_have_no_move(self, name, monkeypatch):
        for dense_max, e, tours in SCREEN_RUNS:
            monkeypatch.setattr(tsp, "_DENSE_MAX", dense_max)
            index = _NeighbourIndex(np.ldexp(KERNEL_CASES[name], e))
            for k, tour in enumerate(map(list, _screen_tours(name)[:tours])):
                best, _ = _screen_oracle(name, e, k)
                flags = _screen(index, tour)
                assert not (best[~flags] < -_IMPROVE_EPS).any(), (dense_max, e)

    def test_flags_moves_at_the_threshold(self, monkeypatch):
        # with eps one ulp short of a move's |delta|, improve takes that move
        # and the screen must flag it: at the first two such points of each
        # tour, and at every move that np.hypot reads shallower than
        # math.hypot, which only the eps/2 widening flags
        shallow = 0
        for name, pts in KERNEL_CASES.items():
            index = _NeighbourIndex(pts)
            for k, tour in enumerate(map(list, _screen_tours(name))):
                best, best_np = _screen_oracle(name, 0, k)
                probe = np.isfinite(best) & (best <= -_IMPROVE_EPS)
                for a in np.flatnonzero(probe & ((np.cumsum(probe) <= 2) | (best_np > best))):
                    eps = float(np.nextafter(-best[a], 0))
                    monkeypatch.setattr(tsp, "_IMPROVE_EPS", eps)
                    flags = _screen(index, tour)
                    assert flags[a] and not (best[~flags] < -eps).any(), (name, a)
                    shallow += best_np[a] > best[a]
        assert shallow >= 3

    def test_few_flags_at_a_local_optimum(self):
        pts = KERNEL_CASES["random-300"]
        index = _NeighbourIndex(pts)
        flags = _screen(index, _local_search(index, _neighbour_walk(index, 0)))
        assert flags.sum() < 0.1 * len(pts)

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_screened_search_takes_the_reference_moves(self, name, monkeypatch):
        # every confirming pass screened: the reference's tour, and its log
        # call by call, with cleared calls empty where the reference's moved
        # nothing; with every point flagged, the reference's log bit for bit
        monkeypatch.setattr(tsp, "_DENSE_MAX", 0)
        index = _NeighbourIndex(KERNEL_CASES[name])
        def flag_all(index, tour):
            return np.ones(len(tour), dtype=bool)

        walk, _, swapped = map(list, _screen_tours(name))
        for start in (walk, swapped):
            ref, ref_calls = _logged_run(_local_search_reference, index.sites, start, index.table)
            tour, calls = _logged_run(_local_search, index, start)
            assert tour == ref, start
            _assert_same_moves(ref_calls, calls)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tsp, "_screen", flag_all)
                assert _logged_run(_local_search, index, start) == (ref, ref_calls)


def _tsp_exact_reference(points):
    """The pure-Python push-style Held-Karp that tsp_exact replaced; tsp_exact
    must return the same order and length, bit for bit."""
    n = len(points)
    if n <= 1:
        return tuple(range(n)), 0.0
    if n == 2:
        return (0, 1), 2.0 * dist(points[0], points[1])
    d = [[dist(points[i], points[j]) for j in range(n)] for i in range(n)]
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
    return tuple(order), length


def _as_points(coords) -> list[Point]:
    return [Point(float(x), float(y)) for x, y in coords]


def _exact_cases() -> dict[str, list[Point]]:
    rng = np.random.default_rng(73)
    cases = {f"random-{n}": _as_points(rng.random((n, 2))) for n in range(15)}
    base = rng.random((8, 2))
    cases["duplicates"] = _as_points(np.vstack([base, base[:5], base[2:3]]))
    t = rng.permutation(14) / 13.0
    cases["collinear"] = _as_points(np.column_stack([0.2 + 0.5 * t, 0.1 + 0.3 * t]))
    cases["all-equal"] = _as_points(np.full((13, 2), 0.375))
    # integer lattice: many equal path and tour costs
    cases["grid"] = _as_points([(i % 4, i // 4) for i in range(12)])
    return cases


EXACT_CASES = _exact_cases()


class TestExactReference:
    @pytest.mark.parametrize("name", list(EXACT_CASES))
    def test_same_tour_as_reference(self, name):
        pts = EXACT_CASES[name]
        res = tsp_exact(pts)
        order, length = _tsp_exact_reference(pts)
        assert res.order == order
        # the length is its cycle's, within an ulp per edge of the DP's sum
        assert type(res.length) is float and res.length == cycle_length(pts, order)
        assert within_ulps(res.length, length, len(pts))


class TestLengthRule:
    def test_three_points_one_length_on_both_paths(self):
        # both paths certify the one cycle over 3 points; the exact path
        # reported its DP's left-to-right sum, which differed from the
        # heuristic's fsum on 366 of these 2,000 sets
        rng = np.random.default_rng(137)
        for _ in range(2000):
            pts = random_points(rng, 3)
            auto, heuristic = tsp_dispatch(pts, "auto"), tsp_dispatch(pts, "heuristic")
            assert auto.certified_optimal and heuristic.certified_optimal
            assert auto.length == heuristic.length, pts

    @pytest.mark.parametrize("n", range(2, EXACT_THRESHOLD + 1))
    def test_exact_length_from_any_start_either_way(self, n):
        rng = np.random.default_rng(151 + n)
        t = rng.permutation(n) / (n - 1)
        sets = [random_points(rng, n) for _ in range(3)]
        sets.append([Point(0.2 + 0.5 * v, 0.1 + 0.3 * v) for v in t.tolist()])
        sets.append([sets[0][i % max(1, n // 3)] for i in range(n)])  # duplicates
        for pts in sets:
            res = tsp_exact(pts)
            order = list(res.order)
            for s in range(n):
                turn = order[s:] + order[:s]
                assert res.length == cycle_length(pts, turn) == cycle_length(pts, turn[::-1])


class TestTwoOptScale:
    @staticmethod
    def _collinear_far(scale):
        rng = np.random.default_rng(0)
        u = rng.normal(size=2)
        u /= np.hypot(*u)
        return np.outer(rng.random(30) * scale, u)

    def test_threshold_scales_with_coordinates(self, monkeypatch):
        # the search sees the sites at unit scale, the same bits at every
        # power of two, so its threshold is _IMPROVE_EPS there, follows the
        # points' power of two, and leaves the tour as it is
        seen = []

        def spy(pts):
            index = real(pts)
            seen.append(index.sites.tobytes())
            return index

        real = tsp._NeighbourIndex
        monkeypatch.setattr(tsp, "_NeighbourIndex", spy)
        for pts in (np.random.default_rng(79).random((300, 2)), self._collinear_far(1e5)):
            seen.clear()
            base = tsp_heuristic(_as_points(pts), seed=0).order
            for e in (-560, -200, 30, 400):
                assert tsp_heuristic(_as_points(np.ldexp(pts, e)), seed=0).order == base
            assert seen == seen[:1] * 5
            assert 0.5 <= np.abs(np.frombuffer(seen[0])).max() < 1

    def test_direct_search_follows_a_power_of_two(self):
        # a search over sites given at 2^-200 takes the moves it takes at
        # unit scale, delta bits and all: its index brings them back. A
        # threshold floored at 1e-12 at 2^-200 took none and returned the
        # start walk
        pts = np.random.default_rng(83).random((300, 2))
        runs = []
        for e in (0, -200):
            index = _NeighbourIndex(np.ldexp(pts, e))
            walk = _neighbour_walk(index, 0)
            runs.append((walk, _logged_run(_local_search, index, walk)))
        assert runs[1] == runs[0]
        walk, (tour, _) = runs[0]
        assert tour != walk

    def test_one_scale_rule(self):
        # unit_scale runs once per heuristic tour, in _NeighbourIndex, and
        # the search and the screen take only the index and a tour
        source = inspect.getsource(tsp)
        assert source.count("unit_scale(") == 1
        assert "unit_scale(" in inspect.getsource(_NeighbourIndex.__init__)
        assert not hasattr(tsp, "_move_eps")
        for f in (_local_search, _screen):
            assert list(inspect.signature(f).parameters) == ["index", "tour"]

    def test_tiny_coordinates_are_fast(self):
        # at 1e-170 the squared distances underflowed to 0, and the
        # neighbour query took 8 s over 5,000 points
        code = (
            "import numpy as np\n"
            "from sweepcvrp.geometry import Point\n"
            "from sweepcvrp.tsp import tsp_heuristic\n"
            "xy = np.random.default_rng(0).random((5000, 2)) * 1e-170\n"
            "res = tsp_heuristic([Point(*p) for p in xy.tolist()])\n"
            "assert sorted(res.order) == list(range(5000))\n"
        )
        run_in_child(code, timeout=5)

    def test_collinear_far_terminates(self):
        # 30 collinear points at scale 1e5 looped on rounding noise with an
        # absolute threshold; run it in a child so a hang fails, not stalls
        code = (
            "import numpy as np\n"
            "from sweepcvrp.geometry import Point\n"
            "from sweepcvrp.tsp import tsp_heuristic\n"
            "rng = np.random.default_rng(0)\n"
            "u = rng.normal(size=2)\n"
            "u /= np.hypot(*u)\n"
            "pts = np.outer(rng.random(30) * 1e5, u)\n"
            "res = tsp_heuristic([Point(float(x), float(y)) for x, y in pts], seed=0)\n"
            "assert sorted(res.order) == list(range(30))\n"
        )
        run_in_child(code, timeout=60)

    def test_out_of_range_coordinates_raise(self):
        # squared differences of coordinates beyond 1e150 overflow, and the
        # neighbour query looped forever on the infinite distances
        code = (
            "import math\n"
            "import numpy as np\n"
            "from sweepcvrp.geometry import Point\n"
            "from sweepcvrp.tsp import tsp_heuristic\n"
            "pts = [Point(*p) for p in np.random.default_rng(0).random((20, 2)).tolist()]\n"
            "tsp_heuristic([*pts[:5], Point(1e150, 0.5), *pts[6:]])\n"
            "for bad in (1e160, -1e160, math.inf, math.nan):\n"
            "    try:\n"
            "        tsp_heuristic([*pts[:5], Point(bad, 0.5), *pts[6:]])\n"
            "    except ValueError as exc:\n"
            "        assert 'coordinates must be finite with |c| <= 1e+150' in str(exc)\n"
            "    else:\n"
            "        raise AssertionError(bad)\n"
        )
        run_in_child(code, timeout=20)

    def test_vertical_line_is_fast(self):
        # 10,000 points with one x value took 33 s when repeated quantiles
        # made zero-width grid columns
        code = (
            "import numpy as np\n"
            "from sweepcvrp.tsp import _NeighbourIndex\n"
            "y = np.random.default_rng(0).random(10000)\n"
            "nbrs = _NeighbourIndex(np.column_stack([np.full(10000, 0.3), y])).table\n"
            "rank = np.argsort(np.argsort(y))\n"
            "assert (np.abs(rank[nbrs] - rank[:, None]) <= 10).all()\n"
        )
        run_in_child(code, timeout=10)


class TestExactCoordinates:
    def test_out_of_range_coordinates_raise(self):
        # on a NaN, reading the Held-Karp path toggled a mask forever and the
        # exact solvers never returned; diameter returned a number that
        # depended on the interpreter. One child runs every call, so a
        # hang fails in seconds instead of stalling the suite
        code = (
            "import math\n"
            "from sweepcvrp.geometry import MAX_COORD, Point, diameter\n"
            "from sweepcvrp.group_cvrp import cvrp_exact_small\n"
            "from sweepcvrp.tsp import tsp_dispatch, tsp_exact\n"
            "calls = {\n"
            "    'tsp_exact': tsp_exact,\n"
            "    'tsp_dispatch': lambda P: tsp_dispatch(P, mode='auto'),\n"
            "    'cvrp_exact_small': lambda P: cvrp_exact_small(P[1:], P[0], 2),\n"
            "    'diameter': diameter,\n"
            "}\n"
            "good = [Point(0.5, 0.5), Point(0.0, 0.0), Point(1.0, 1.0), Point(0.25, 0.75)]\n"
            "for call in calls.values():\n"
            "    call(good)\n"
            "    call([*good[:2], Point(MAX_COORD, -MAX_COORD), *good[3:]])\n"
            "bads = (math.nan, math.inf, -math.inf, math.nextafter(MAX_COORD, math.inf), -1e160)\n"
            "def must_raise(name, call, arg):\n"
            "    try:\n"
            "        call(arg)\n"
            "    except ValueError as exc:\n"
            "        assert 'coordinates must be finite with |c| <= 1e+150' in str(exc), (name, exc)\n"
            "    else:\n"
            "        raise AssertionError((name, arg))\n"
            "for name, call in calls.items():\n"
            "    for bad in bads:\n"
            "        # the root (tsp) or depot (group DP) first, then a terminal\n"
            "        for at in (0, 2):\n"
            "            for p in (Point(bad, 0.5), Point(0.5, bad)):\n"
            "                must_raise(name, call, [*good[:at], p, *good[at + 1:]])\n"
            "# the root alone and the depot alone: the size-0/1 branches check too\n"
            "alone = {\n"
            "    'tsp_exact': lambda p: tsp_exact([p]),\n"
            "    'tsp_dispatch auto': lambda p: tsp_dispatch([p], mode='auto'),\n"
            "    'tsp_dispatch heuristic': lambda p: tsp_dispatch([p], mode='heuristic'),\n"
            "    'cvrp_exact_small': lambda p: cvrp_exact_small([], p, 1),\n"
            "}\n"
            "for name, call in alone.items():\n"
            "    call(Point(MAX_COORD, -MAX_COORD))\n"
            "    for bad in bads:\n"
            "        for p in (Point(bad, 0.5), Point(0.5, bad)):\n"
            "            must_raise(name, call, p)\n"
        )
        run_in_child(code, timeout=20)
