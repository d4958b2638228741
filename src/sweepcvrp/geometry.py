"""Planar geometry substrate: points, CVRP instances, tours, sweep ordering,
and the file I/O for instances and command outputs.

All coordinates are IEEE-754 binary64. A point is any (x, y) pair, read by
index, and the distance of two points is dist, which is math.dist: math.hypot
of the coordinate differences. A point set is read through one conversion
rule, as_xy: an ndarray is reshaped to (x, y) rows, and any other sequence
must hold only (x, y) pairs, such as Points or tuples. Each coordinate
converts as np.asarray(..., dtype=float) converts it, so strings such as
"1.5" are read as numbers and None as NaN; an entry that is not a pair
raises ValueError instead of being regrouped with its neighbours. Readers
convert and check in one call, check_coordinates, at every size; an Instance
keeps the float Points it returns. Every count, capacity and seed is read by
one integer rule, check_int: a bool or a numpy integer becomes a plain int,
and a float, a string, None or a value below the caller's least raises
ValueError. Every tour order and route set is read by one permutation rule,
check_permutation: each index is read by the integer rule, and the indices
must hold each of 0 .. n - 1 exactly once.
A closed walk's length is the math.fsum of dist over its edges
(tour_length; tsp.cycle_length): correctly rounded, so no edge order,
direction, start or solver moves a bit. Each terminal's depot distance is
computed once, in one place: Instance.depot_distances.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import operator
import os
import stat
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence, TextIO

import numpy as np


class Point(NamedTuple):
    x: float
    y: float


dist = math.dist


# the largest |coordinate|: a squared coordinate difference is then at most
# 4e300, and a squared distance at most 8e300, both finite
MAX_COORD = 1e150


def as_xy(points) -> np.ndarray:
    """The points as an (n, 2) float array: an ndarray reshaped to (x, y)
    rows, any other sequence converted by one np.fromiter over its pairs.
    A sequence entry that is not an (x, y) pair raises ValueError."""
    if isinstance(points, np.ndarray):
        return np.asarray(points, dtype=float).reshape(-1, 2)
    try:
        pairs = set(map(len, points)) <= {2}
    except TypeError:  # an entry without a length, such as a bare number
        pairs = False
    if not pairs:
        raise ValueError("points must be (x, y) pairs")
    return np.fromiter(itertools.chain.from_iterable(points), dtype=float,
                       count=2 * len(points)).reshape(-1, 2)


def check_coordinates(points, what: str = "coordinate") -> np.ndarray:
    """as_xy(points) if every coordinate is finite with |c| <= MAX_COORD;
    else raise ValueError, naming the first bad point a `what`."""
    xy = as_xy(points)
    ok = (np.abs(xy) <= MAX_COORD).all(axis=1)  # NaN fails too
    if not ok.all():
        p = Point(*xy[ok.argmin()].tolist())
        kind = "too large" if all(map(math.isfinite, p)) else "non-finite"
        raise ValueError(f"{kind} {what}: {p}; coordinates must be finite "
                         f"with |c| <= {MAX_COORD:g}")
    return xy


def check_int(value, what: str, least: int | None = None) -> int:
    """`value` as a plain int by operator.index; ValueError, naming it a `what`,
    for a value without __index__ (a float, a string, None) or below `least`."""
    try:
        v = int(operator.index(value))
    except TypeError:
        raise ValueError(f"{what} must be an int, got {value!r}") from None
    if least is not None and v < least:
        raise ValueError(f"{what} must be >= {least}, got {v}")
    return v


def check_permutation(indices, n: int, what: str) -> list[int]:
    """`indices` as a list of plain ints, each read by check_int; ValueError,
    naming them a `what`, for an index check_int rejects (a float, None) or
    unless they hold each of 0 .. n - 1 exactly once."""
    values = list(indices)
    if any(type(v) is not int for v in values):  # check_int costs 5x this scan
        values = [check_int(v, f"{what} index") for v in values]
    if sorted(values) != list(range(n)):
        raise ValueError(f"{what} is not a permutation of range({n})")
    return values


@dataclass(frozen=True)
class Instance:
    """A unit-demand CVRP instance: terminals, a depot, and a capacity.

    The terminal list is ordered (indices are meaningful) and may contain
    duplicate coordinates. The depot and terminals, in any pair form, must
    pass check_coordinates (the depot first) and are kept as float Points;
    the capacity is read by check_int and must satisfy 1 <= k <= max(n, 1).
    """

    terminals: tuple[Point, ...]
    depot: Point
    capacity: int

    def __post_init__(self) -> None:
        k = check_int(self.capacity, "capacity", 1)
        (depot,) = check_coordinates([self.depot], "depot").tolist()
        terminals = tuple(map(Point._make, check_coordinates(self.terminals).tolist()))
        n = len(terminals)
        if k > max(n, 1):
            raise ValueError(f"capacity {k} exceeds max(n, 1) = {max(n, 1)}")
        object.__setattr__(self, "capacity", k)
        object.__setattr__(self, "depot", Point._make(depot))
        object.__setattr__(self, "terminals", terminals)

    @property
    def n(self) -> int:
        return len(self.terminals)

    @cached_property
    def depot_distances(self) -> tuple[float, ...]:
        """dist(depot, v) per terminal, in order: the one place it is computed."""
        return tuple(dist(self.depot, v) for v in self.terminals)


@dataclass(frozen=True)
class Tour:
    """One depot-rooted tour. `indices` are instance terminal indices in
    visit order; `length` is tour_length of the route depot -> first -> ...
    -> last -> depot, bit for bit, the same for the reversed order."""

    indices: tuple[int, ...]
    length: float


@dataclass(frozen=True)
class Solution:
    """A solution is its tours; its cost follows from them."""

    tours: tuple[Tour, ...]

    @property
    def total_cost(self) -> float:
        """math.fsum of the tour lengths, in tour order."""
        return math.fsum(t.length for t in self.tours)


def tour_length(depot: Point, points: Sequence[Point]) -> float:
    """Length of the closed tour depot -> points -> depot (the length rule)."""
    route = [depot, *points]
    return math.fsum(map(dist, route, route[1:] + route[:1]))


def check_feasible(instance: Instance, solution: Solution) -> None:
    """Raise ValueError unless `solution` is a feasible solution of `instance`:
    every terminal in exactly one tour, every tour of 1 .. capacity terminals,
    and every tour length exactly tour_length of its route."""
    check_permutation([i for t in solution.tours for i in t.indices], instance.n,
                      "infeasible solution: the tours' terminal list")
    for t in solution.tours:
        if not 1 <= len(t.indices) <= instance.capacity:
            raise ValueError(f"infeasible solution: a tour of {len(t.indices)} "
                             f"terminals, capacity {instance.capacity}")
        route = tour_length(instance.depot, [instance.terminals[i] for i in t.indices])
        if t.length != route:
            raise ValueError(f"infeasible solution: tour length {t.length!r} "
                             f"!= route length {route!r}")


def polar_angle(p: Point, depot: Point) -> float:
    """Polar angle of p with respect to depot, normalized to [0, 2*pi).

    A terminal coinciding with the depot gets angle 0 (and therefore sorts
    first); any consistent choice preserves the contiguous-group structure
    the sweep relies on.
    """
    if p[0] == depot[0] and p[1] == depot[1]:
        return 0.0
    angle = math.atan2(p[1] - depot[1], p[0] - depot[0])
    if angle < 0.0:
        angle += 2.0 * math.pi
    if angle >= 2.0 * math.pi:  # guard against rounding at the wrap
        angle = 0.0
    return angle


def sweep_sort(instance: Instance) -> list[int]:
    """Terminal indices ordered by nondecreasing polar angle around the depot.

    Ties broken by nondecreasing distance to the depot, then by original
    index (the sort is stable by construction of the key).
    """
    depot, d = instance.depot, instance.depot_distances
    return sorted(range(instance.n),
                  key=lambda i: (polar_angle(instance.terminals[i], depot), d[i], i))


def unit_scale(xy: np.ndarray) -> tuple[np.ndarray, int]:
    """(xy * 2**-e, e) for e the power of two of the largest |coordinate|,
    which puts it in [0.5, 1), and e = 0 when every coordinate is 0 or there
    is none: the package's one rule for that exponent.

    A power of two scales exactly (bar a coordinate below about 2**-1022
    times the largest), so what is computed from the result does not depend
    on the input's power-of-two scale, and squared coordinate differences
    stay clear of overflow and, unless points differ only in such tiny
    coordinates, of underflow. Coordinates whose largest is already in
    [0.5, 1) come back unchanged.
    """
    top = float(np.abs(xy).max()) if xy.size else 0.0
    e = math.frexp(top)[1]
    return np.ldexp(xy, -e), e


def diameter(points) -> float:
    """Maximum pairwise distance; 0 for fewer than two points.

    The points (check_coordinates) go to unit scale (unit_scale), where
    _inside drops only points strictly inside their convex hull, and D is
    the root of the maximum of dx*dx + dy*dy over the pairs of the rest, one
    numpy row per point, scaled back. No endpoint of a farthest pair is
    strictly inside the hull: if p, q are at distance D and p were, a
    small step from p away from q stays in the hull and ends farther than D
    from q, but |x - q| is convex in x, so its maximum over the hull is its
    maximum over the points, D. So every farthest pair survives, ties
    included, and the survivors hold every hull vertex. Scaling the points
    by a power of two scales D by it, bit for bit, and D is exact where
    products of raw coordinates of 1e-200 would underflow to 0. Squares are
    IEEE products, not `**2` (libm `pow`), so D is the same bits for every
    input size and libm.
    """
    xy, e = unit_scale(check_coordinates(points))
    xy = xy[~_inside(xy)]
    xs, ys = xy[:, 0], xy[:, 1]
    best = 0.0
    for i in range(len(xy) - 1):
        dx = xs[i + 1 :] - xs[i]
        dy = ys[i + 1 :] - ys[i]
        best = max(best, float(np.max(dx * dx + dy * dy)))
    return math.ldexp(math.sqrt(best), e)


# the rounding margin of _inside's orientation test at unit scale
_ORIENT_MARGIN = 2.0**-47


def _inside(xy: np.ndarray) -> np.ndarray:
    """One flag per row of xy (at unit scale, every |coordinate| < 1): True
    only for a point strictly inside the convex hull of the rows.

    The polygon is the rows extreme in the 8 directions +-x, +-(x + y),
    +-y, +-(x - y), in that (counterclockwise) order, consecutive equal
    rows dropped, and a point is flagged when it is strictly left of every
    directed edge. For any closed sequence of points v_i, convex or not,
    such a point p is interior to their hull: otherwise a line through p
    has every v_i on one closed side, and with p at the origin and that
    side as the upper half-plane each v_i has an angle in [0, pi], none at
    p; v_i x v_(i+1) > 0 then says the angle grows from v_i to v_(i+1), all
    the way round the cycle, which cannot be. So a rounded x + y or x - y
    that picks a vertex off the hull costs filtering, not correctness.

    The test reads cross = (b - a) x (p - a) > _ORIENT_MARGIN. The four
    differences are below 2 and each errs by at most u |.| (u = 2**-53;
    below 2**-1022 a difference is exact), the two products are below 4
    and err by at most 4((1 + u)^3 - 1) + 2**-1074 each, and the final
    difference by at most u times its at most 8.0001: under 33u + 2**-1073
    in all, far below the margin 2**-47 = 64u. So a flagged point is
    strictly left of every edge in exact arithmetic.
    """
    if not len(xy):
        return np.zeros(0, dtype=bool)
    xs, ys = xy[:, 0], xy[:, 1]
    s, d = xs + ys, xs - ys
    poly = [xy[i] for i in (xs.argmax(), s.argmax(), ys.argmax(), d.argmin(),
                            xs.argmin(), s.argmin(), ys.argmin(), d.argmax())]
    poly = [v for v, w in zip(poly, poly[1:] + poly[:1]) if (v != w).any()]
    inside = np.full(len(xy), len(poly) >= 3)  # fewer vertices enclose nothing
    for a, b in zip(poly, poly[1:] + poly[:1]):
        inside &= (b[0] - a[0]) * (ys - a[1]) - (b[1] - a[1]) * (xs - a[0]) > _ORIENT_MARGIN
    return inside


# --- text formats --------------------------------------------------------------
#
# Instance: line 1 `n k depot_x depot_y`, then `x y` per terminal, space-
# separated; floats by repr, so they round-trip exactly. Output records
# (experiment rows, bound reports) write their fields in order by field_text.


def field_text(value) -> str:
    """`true`/`false` for a bool, repr for a float (round-trips, `inf` for
    infinity), str for anything else."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def write_instance(instance: Instance, fp: TextIO) -> None:
    fp.write(
        f"{instance.n} {instance.capacity} {instance.depot.x!r} {instance.depot.y!r}\n"
    )
    for p in instance.terminals:
        fp.write(f"{p.x!r} {p.y!r}\n")


def read_instance(fp: TextIO) -> Instance:
    header = fp.readline().split()
    if len(header) != 4:
        raise ValueError("instance header must be `n k depot_x depot_y`")
    counts = []
    for name, token in zip("nk", header):
        try:
            counts.append(int(token))
        except ValueError:
            raise ValueError(f"line 1: instance header {name} must be an int, "
                             f"got {token!r}") from None
    n, k = check_int(counts[0], "line 1: instance header n", 0), counts[1]
    terminals = []
    for line_no in range(n):
        fields = fp.readline().split()
        if len(fields) != 2:
            raise ValueError(f"terminal line {line_no + 2}: expected `x y`")
        terminals.append(fields)
    for line_no, line in enumerate(fp, start=n + 2):
        if line.strip():
            raise ValueError(f"line {line_no}: content after the {n} terminal lines")
    return Instance(terminals=terminals, depot=header[2:], capacity=k)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fp:
        return read_instance(fp)


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        write_instance(instance, fp)


@contextlib.contextmanager
def output_file(path: str | None) -> Iterator[TextIO | None]:
    """Open `path` for a long computation's output before it starts.

    A path that cannot be opened for writing raises here, before any work.
    Opening does not change a file that is already there. The block writes
    to the yielded buffer; if it completes, the buffer replaces the file's
    content. If it raises (an interrupt too), a file that was already there
    keeps its bytes, and a file that this call created is removed. A `None`
    path yields `None`.
    """
    if path is None:
        yield None
        return
    created = not os.path.lexists(path)
    fp = open(path, "a", encoding="utf-8")
    buffer = io.StringIO()
    try:
        yield buffer
    except BaseException:
        fp.close()
        if created and os.path.isfile(path):
            os.remove(path)
        raise
    with fp:
        if stat.S_ISREG(os.fstat(fp.fileno()).st_mode):
            fp.truncate(0)  # devices such as /dev/null cannot be truncated
        fp.write(buffer.getvalue())
