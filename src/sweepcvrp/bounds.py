"""Radial/local cost bounds on the optimal CVRP value.

For a clipping radius R (a nonnegative float, or math.inf for the unclipped
radial cost):

  rad_R  = (2/k) * sum over terminals of min{d(depot, v), R}
  T*_R   = optimal TSP length over {v : d(depot, v) >= R}   (no depot added)

  lower bound:  opt >= T*_R + rad_R - (3 pi / 2) D
  upper bound:  sweep cost <= T*_0 + rad_inf + (3 pi / 2) D * ceil(n/(M k))

with D the diameter of the terminals plus depot. The lower bound is only a
valid certificate when T*_R comes from a provably optimal tour (the exact
solver, or any tour over at most 3 locations): a heuristic tour
overestimates T*_R, so such values are flagged rather than trusted.

T*_R depends on R only through its point set, so it is decided and cached
by that set: R = 0, or any R up to the nearest depot distance, gives one
T*_R. It is tsp_dispatch's tour over the set, except where the set is every
terminal and that tour would be uncertified (above the exact threshold, or
in heuristic mode, over more than 3 locations). There T*_R is ITP's tour of
the same instance, mode and seed with the depot left out (its routes joined
in route order): an upper estimate only, flagged uncertified like any
heuristic tour, that saves touring the terminals a second time.

math.inf is the distinguished "unclipped" R value; the set {d >= inf} is
empty and T*_inf = 0 exactly.

BoundContext.local is the one implementation of T*_R. A context assembles
the Bound(value, certified) records of one instance for one (tsp_mode,
seed): D once, each rad_R once per R and each T*_R once per point set, so
T*_0 serves lb_r0, every upper bound, and lb_rstar where R* keeps every
terminal. Where T*_0 is exact, the context keeps the one Held-Karp table it
is read from, held_karp(terminals) as tsp_exact builds it, rooted at
terminal 0, and once it is built reads from it every T*_R whose set holds
terminal 0 (tsp.held_karp_tour): tsp_exact over that set, bit for bit,
without a second table. Before that, such a smaller set takes tsp_dispatch,
the same bits without the whole table (a one-shot local_cost or
lower_bound). Callers make a fresh context per instance and drop it
afterwards; nothing is cached across contexts.
local_cost, lower_bound, upper_bound_formula and compute_bounds are
one-shot wrappers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, astuple, dataclass, fields
from functools import cached_property
from typing import NamedTuple

from .closedform import choose_radius
from .geometry import (
    Instance, Point, Solution, as_xy, check_feasible, check_int, diameter, field_text,
)
from .itp import itp_solve
from .tsp import (
    HeldKarp, check_tsp_mode, cycle_length, dispatch_certified, dispatch_exact, held_karp,
    held_karp_tour, tsp_dispatch,
)


class Bound(NamedTuple):
    value: float
    certified: bool  # the value is a proof, not an estimate


def _check_radius(R: float) -> float:
    """R as a float, for any numbers.Real R >= 0; one beyond the float range
    reads as inf (it clips nothing, and its >=R set is empty)."""
    if not isinstance(R, numbers.Real):
        raise ValueError(f"R must be a real number, got {R!r}")
    try:
        R = float(R)
    except OverflowError:
        R = math.inf if R > 0 else -math.inf
    if not R >= 0.0:  # also rejects nan
        raise ValueError(f"R must be >= 0 or inf, got {R}")
    return R


def radial_cost(instance: Instance, R: float) -> float:
    """(2/k) * sum of depot distances clipped at R."""
    R = _check_radius(R)
    return (2.0 / instance.capacity) * math.fsum(min(d, R) for d in instance.depot_distances)


def local_subset(instance: Instance, R: float) -> list[int]:
    """Indices of terminals at distance >= R from the depot; R is checked."""
    R = _check_radius(R)
    return [i for i, d in enumerate(instance.depot_distances) if d >= R]


def local_cost(instance: Instance, R: float, tsp_mode: str = "auto", seed: int = 0) -> Bound:
    """BoundContext.local on a fresh context: Bound(T*_R, certified)."""
    return BoundContext(instance, tsp_mode, seed).local(R)


def instance_diameter(instance: Instance) -> float:
    return diameter([*instance.terminals, instance.depot])


def choose_R(depot: Point) -> float:
    """The analysis radius R = (3/4) E d(depot, v) for v uniform on the unit
    square (depot coordinates interpreted in unit-square units)."""
    return choose_radius(depot[0], depot[1])


@dataclass(frozen=True)
class BoundsReport:
    R: float  # may be math.inf
    rad_R: float
    local_R: float
    local_certified: bool
    D: float
    lower: float
    upper: float
    M: int

    def to_dict(self) -> dict:
        """The fields by name; JSON has no infinity, so R = inf becomes "inf"
        (only R can be infinite: Instance rejects non-finite coordinates)."""
        return {k: "inf" if v == math.inf else v for k, v in asdict(self).items()}

    def to_csv_row(self) -> str:
        return ",".join(map(field_text, astuple(self)))


BoundsReport.CSV_HEADER = ",".join(f.name for f in fields(BoundsReport))


class BoundContext:
    """The bound ingredients of one instance: D once, rad_R per R, T*_R per point set.

    `local` is the one implementation of T*_R (see the module docstring);
    rad_R and D come from radial_cost and instance_diameter, so every bound
    equals, bit for bit, what the one-shot functions return. On the exact
    path the context keeps `table`, T*_0's Held-Karp table, and once T*_0
    has built it reads from it every set that holds terminal 0, so one
    table serves T*_0, lb_rstar and every other such T*_R. `itp`, if
    given, is ITP's solution of the same instance, tsp_mode and seed,
    checked by geometry.check_feasible; where T*_R over every terminal is
    ITP's tour, the context reads it from `itp`, and without it solves ITP
    itself on first need. That tour is ITP's routes joined in route order,
    the terminal order of ITP's one TSP tour, which is why ITP's routes get
    no group_cvrp.depot_two_opt pass. tsp_mode and seed are checked on
    construction.
    """

    def __init__(self, instance: Instance, tsp_mode: str = "auto", seed: int = 0,
                 itp: Solution | None = None):
        check_tsp_mode(tsp_mode)
        self.instance = instance
        self.tsp_mode = tsp_mode
        self.seed = check_int(seed, "seed")
        if itp is not None:
            try:
                check_feasible(instance, itp)
            except ValueError as exc:
                raise ValueError(f"itp must be a solution of this instance: {exc}") from None
        self.itp = itp
        self._local: dict[int, Bound] = {}  # by the size of the >=R set
        self._radial: dict[float, float] = {}

    @cached_property
    def D(self) -> float:
        return instance_diameter(self.instance)

    @cached_property
    def table(self) -> HeldKarp | None:
        """held_karp(terminals), the table tsp_exact reads T*_0 from,
        built on first need; None where tsp_dispatch over the terminals is
        not tsp_exact's Held-Karp (heuristic mode, above EXACT_THRESHOLD, or
        fewer than 2 terminals)."""
        terminals = self.instance.terminals
        if len(terminals) < 2 or not dispatch_exact(len(terminals), self.tsp_mode):
            return None
        return held_karp(terminals)

    def local(self, R: float) -> Bound:
        """Bound(T*_R, certified), once per >=R set (the sets nest, so a size
        names one): read from `table` where the set holds terminal 0 and is
        every terminal or the table is built already, ITP's tour
        (uncertified) where the set is every terminal and tsp_dispatch would
        not certify it, and tsp_dispatch's tour otherwise."""
        subset = local_subset(self.instance, R)
        size = len(subset)
        if size in self._local:
            return self._local[size]
        terminals = self.instance.terminals
        points = [terminals[i] for i in subset]
        # a smaller set reads T*_0's table only once it is built: tsp_dispatch
        # gives it the same bits without the whole table
        table = self.table if size == self.instance.n else vars(self).get("table")
        if subset[:1] == [0] and table is not None:
            mask = sum(1 << (i - 1) for i in subset[1:])
            bound = Bound(held_karp_tour(terminals, table, mask).length, True)
        elif size == self.instance.n and not dispatch_certified(
                xy := as_xy(points), self.tsp_mode):
            if self.itp is None:
                self.itp = itp_solve(self.instance, self.tsp_mode, self.seed)
            order = [i for tour in self.itp.tours for i in tour.indices]
            bound = Bound(cycle_length(xy, order), False)
        else:
            result = tsp_dispatch(points, mode=self.tsp_mode, seed=self.seed)
            bound = Bound(result.length, result.certified_optimal)
        self._local[size] = bound
        return bound

    def radial(self, R: float) -> float:
        R = _check_radius(R)
        if R not in self._radial:
            self._radial[R] = radial_cost(self.instance, R)
        return self._radial[R]

    def lower(self, R: float) -> Bound:
        """T*_R + rad_R - (3 pi / 2) D, certified only with a certified
        T*_R; lower bounds may be vacuous (negative) and that is fine."""
        local, certified = self.local(R)
        return Bound(local + self.radial(R) - 1.5 * math.pi * self.D, certified)

    def lower_bounds(self, rstar: float) -> dict[str, Bound]:
        """The lower bounds at R = 0, rstar and inf, by RatioRow column."""
        return {"lb_r0": self.lower(0.0), "lb_rstar": self.lower(rstar),
                "lb_rinf": self.lower(math.inf)}

    def upper(self, M: int) -> Bound:
        """The sweep-cost upper bound
        T*_0 + rad_inf + (3 pi / 2) D ceil(n/(M k)).

        It holds when the group subproblems are solved exactly, and it is a
        certificate only when T*_0 is exact (certified False records the
        caveat otherwise)."""
        block = check_int(M, "M", 1) * self.instance.capacity
        t_zero, certified = self.local(0.0)
        groups = math.ceil(self.instance.n / block)
        value = t_zero + self.radial(math.inf) + 1.5 * math.pi * self.D * groups
        return Bound(value, certified)

    def report(self, R: float, M: int) -> BoundsReport:
        """Every bound ingredient at one R; R and M are checked before any tour."""
        R = _check_radius(R)
        M = check_int(M, "M", 1)
        upper = self.upper(M).value
        lower, certified = self.lower(R)
        return BoundsReport(
            R=R, rad_R=self.radial(R), local_R=self.local(R).value,
            local_certified=certified, D=self.D, lower=lower, upper=upper, M=M,
        )


def lower_bound(
    instance: Instance, R: float, tsp_mode: str = "auto", seed: int = 0
) -> Bound:
    """BoundContext.lower on a fresh context."""
    return BoundContext(instance, tsp_mode, seed).lower(R)


def upper_bound_formula(
    instance: Instance, M: int, tsp_mode: str = "auto", seed: int = 0
) -> Bound:
    """BoundContext.upper on a fresh context."""
    return BoundContext(instance, tsp_mode, seed).upper(M)


def compute_bounds(
    instance: Instance, R: float, M: int,
    tsp_mode: str = "auto", seed: int = 0,
) -> BoundsReport:
    """BoundContext.report on a fresh context: at R = 0, T*_0 is built once
    for both the lower and the upper bound."""
    return BoundContext(instance, tsp_mode, seed).report(R, M)
