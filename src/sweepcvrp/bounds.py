"""Radial/local cost bounds on the optimal CVRP value.

For a clipping radius R (a nonnegative float, or math.inf for the unclipped
radial cost):

  rad_R  = (2/k) * sum over terminals of min{d(depot, v), R}
  T*_R   = optimal TSP length over {v : d(depot, v) >= R}   (no depot added)

  lower bound:  opt >= T*_R + rad_R - (3 pi / 2) D
  upper bound:  sweep cost <= T*_0 + rad_inf + (3 pi / 2) D * ceil(n/(M k))

with D the diameter of the terminals plus depot. The lower bound is only a
valid certificate when T*_R comes from the exact TSP solver: a heuristic
tour overestimates T*_R, so such values are flagged rather than trusted.

math.inf is the distinguished "unclipped" R value; the set {d >= inf} is
empty and T*_inf = 0 exactly.

BoundContext assembles the bounds of one instance for one (tsp_mode, seed):
it computes D once and each rad_R and (T*_R, certified) the first time R is
asked for, so T*_0 serves lb_r0 and every upper bound. Its scope is that one
instance: callers make a fresh context per instance and drop it afterwards,
and nothing is cached across contexts. lower_bound, upper_bound_formula and
compute_bounds are one-shot wrappers over a fresh context.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, fields
from functools import cached_property

from .closedform import choose_radius
from .geometry import Instance, Point, diameter, dist, field_text
from .tsp import check_tsp_mode, tsp_dispatch


def _check_radius(R: float) -> None:
    if R < 0.0 or math.isnan(R):
        raise ValueError(f"R must be >= 0 or inf, got {R}")


def radial_cost(instance: Instance, R: float) -> float:
    """(2/k) * sum of depot distances clipped at R."""
    _check_radius(R)
    depot = instance.depot
    return (2.0 / instance.capacity) * math.fsum(
        min(dist(depot, v), R) for v in instance.terminals
    )


def local_subset(instance: Instance, R: float) -> list[int]:
    """Indices of terminals at distance >= R from the depot."""
    depot = instance.depot
    return [i for i, v in enumerate(instance.terminals) if dist(depot, v) >= R]


def local_cost(
    instance: Instance, R: float, tsp_mode: str = "auto", seed: int = 0
) -> tuple[float, bool]:
    """(T*_R, certified): TSP length over the >=R terminals; certified is
    True iff the exact solver produced it (subsets of size <= 1 are 0 and
    trivially certified)."""
    _check_radius(R)
    check_tsp_mode(tsp_mode)
    subset = local_subset(instance, R)
    if len(subset) <= 1:
        return 0.0, True
    points = [instance.terminals[i] for i in subset]
    result = tsp_dispatch(points, mode=tsp_mode, seed=seed)
    return result.length, result.certified_optimal


def instance_diameter(instance: Instance) -> float:
    return diameter([*instance.terminals, instance.depot])


def choose_R(depot: Point) -> float:
    """The analysis radius R = (3/4) E d(depot, v) for v uniform on the unit
    square (depot coordinates interpreted in unit-square units)."""
    return choose_radius(depot.x, depot.y)


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
    """The bound ingredients of one instance, each computed at most once.

    Values come from local_cost, radial_cost and instance_diameter, so every
    bound equals, bit for bit, what the one-shot functions return.
    """

    def __init__(self, instance: Instance, tsp_mode: str = "auto", seed: int = 0):
        self.instance = instance
        self.tsp_mode = tsp_mode
        self.seed = seed
        self._local: dict[float, tuple[float, bool]] = {}
        self._radial: dict[float, float] = {}

    @cached_property
    def D(self) -> float:
        return instance_diameter(self.instance)

    def local(self, R: float) -> tuple[float, bool]:
        """(T*_R, certified), as local_cost."""
        if R not in self._local:
            self._local[R] = local_cost(self.instance, R, self.tsp_mode, self.seed)
        return self._local[R]

    def radial(self, R: float) -> float:
        if R not in self._radial:
            self._radial[R] = radial_cost(self.instance, R)
        return self._radial[R]

    def lower(self, R: float) -> tuple[float, bool]:
        """(value, valid): value = T*_R + rad_R - (3 pi / 2) D. Valid only
        with a certified T*_R; lower bounds may be vacuous (negative) and
        that is fine."""
        local, certified = self.local(R)
        return local + self.radial(R) - 1.5 * math.pi * self.D, certified

    def upper(self, M: int) -> tuple[float, bool]:
        """(value, certified) for the sweep-cost upper bound
        T*_0 + rad_inf + (3 pi / 2) D ceil(n/(M k)).

        It holds when the group subproblems are solved exactly, and it is a
        certificate only when T*_0 is exact (certified False records the
        caveat otherwise)."""
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        t_zero, certified = self.local(0.0)
        groups = math.ceil(self.instance.n / (M * self.instance.capacity))
        value = t_zero + self.radial(math.inf) + 1.5 * math.pi * self.D * groups
        return value, certified

    def report(self, R: float, M: int) -> BoundsReport:
        """Every bound ingredient at one R."""
        lower, certified = self.lower(R)
        upper, _ = self.upper(M)
        return BoundsReport(
            R=R, rad_R=self.radial(R), local_R=self.local(R)[0],
            local_certified=certified, D=self.D, lower=lower, upper=upper, M=M,
        )


def lower_bound(
    instance: Instance, R: float, tsp_mode: str = "auto", seed: int = 0
) -> tuple[float, bool]:
    """BoundContext.lower on a fresh context."""
    return BoundContext(instance, tsp_mode, seed).lower(R)


def upper_bound_formula(
    instance: Instance, M: int, tsp_mode: str = "auto", seed: int = 0
) -> tuple[float, bool]:
    """BoundContext.upper on a fresh context."""
    return BoundContext(instance, tsp_mode, seed).upper(M)


def compute_bounds(
    instance: Instance, R: float, M: int,
    tsp_mode: str = "auto", seed: int = 0,
) -> BoundsReport:
    """BoundContext.report on a fresh context: at R = 0, T*_0 is built once
    for both the lower and the upper bound."""
    return BoundContext(instance, tsp_mode, seed).report(R, M)
