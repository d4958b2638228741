"""Instance generation and the ratio-experiment harness.

Instances are reproducible: terminal coordinates come from the Philox 4x64
counter-based generator (numpy's implementation) keyed with the given seed,
mapped to [0,1) with the standard 53-bit scheme ((word >> 11) * 2^-53),
x then y per terminal in terminal order.

The experiment runner emits one CSV row per (seed, algorithm): RatioRow's
fields in order, as geometry.field_text writes them (bools as true/false):

  seed,n,k,M,algo,cost,lb_r0,lb_rstar,lb_rinf,best_lb,ub,ratio,certified,
  best_certified_lb,certified_ratio

The lb_* columns are BoundContext.lower_bounds' Bound values at R = 0,
(3/4) E d(depot, v) and inf: best_lb is the largest, best_certified_lb the
largest certified one (R = inf always is). `certified` is false when a tour
not proven optimal entered any lb_*: `ratio` = cost / best_lb is then
indicative, while certified_ratio = cost / best_certified_lb is a proof.
A ratio is nan at a denominator <= 0; small-instance mode divides `ratio` by
the optimum, the group DP cvrp_exact_small over every terminal, and so takes
at most its EXACT_GROUP_THRESHOLD terminals. Comment lines (`#`) are caveats
the parser skips.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass, field, fields
from typing import TextIO

import numpy as np

# lower_bound and upper_bound_formula are not called here any more, but stay
# importable from this module: perfbench's traced run wraps them at this site.
from .bounds import BoundContext, choose_R, lower_bound, upper_bound_formula  # noqa: F401
from .geometry import (Instance, Point, Solution, check_coordinates, check_feasible,
                       check_int, field_text)
from .group_cvrp import EXACT_GROUP_THRESHOLD, SolveConfig, cvrp_exact_small
from .itp import itp_solve
from .sweep import sweep_solve
from .tsp import check_tsp_mode

ALGOS = ("sweep", "itp")


def solve(
    instance: Instance, algo: str, M: int, tsp_mode: str = "auto", seed: int = 0
) -> Solution:
    """The solution of the algorithm named `algo` (one of ALGOS): the sweep
    with group size factor M, or ITP, which ignores M. The solvers are read
    from this module at call time, so a traced run can replace them here.
    Raises ValueError if M fails check_int with least 1, for every algo, or
    if the solver returns an infeasible solution."""
    M = check_int(M, "M", 1)
    if algo == "sweep":
        solution = sweep_solve(instance, M, SolveConfig(tsp_mode=tsp_mode, seed=seed))
    elif algo == "itp":
        solution = itp_solve(instance, tsp_mode=tsp_mode, seed=seed)
    else:
        raise ValueError(f"unknown algo {algo!r}")
    check_feasible(instance, solution)
    return solution


def check_seed(seed: int) -> int:
    """An instance seed as a plain int: a Philox key, 0 .. 2**128 - 1, read
    by check_int; ValueError naming the seed otherwise."""
    seed = check_int(seed, "seed", 0)
    if seed >= 2 ** 128:
        raise ValueError(f"seed must be < 2**128, got {seed}")
    return seed


def gen_instance(n: int, k: int, depot: Point, seed: int) -> Instance:
    """n i.i.d. uniform terminals on the unit square; deterministic in seed
    (check_seed)."""
    n, seed = check_int(n, "n", 0), check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return Instance(terminals=rng.random((n, 2)), depot=depot, capacity=k)


def resolve_k(n: int, k_fixed: int | None = None, k_alpha: float | None = None) -> int:
    """Fixed integer capacity, or k = ceil(n^alpha) for alpha in [0, 1]: any
    numbers.Real k_alpha in that range, read as a float."""
    if (k_fixed is None) == (k_alpha is None):
        raise ValueError("specify exactly one of k_fixed, k_alpha")
    if k_fixed is not None:
        k = check_int(k_fixed, "k_fixed")
    else:
        if not isinstance(k_alpha, numbers.Real):
            raise ValueError(f"k_alpha must be a real number, got {k_alpha!r}")
        if not 0.0 <= k_alpha <= 1.0:  # also rejects nan
            raise ValueError(f"k_alpha must be in [0, 1], got {k_alpha}")
        k = math.ceil(n ** float(k_alpha)) if n > 0 else 1
    if not 1 <= k <= max(n, 1):
        raise ValueError(f"k = {k} outside 1..max(n,1) for n = {n}")
    return k


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    depot: Point
    M: int
    seeds: tuple[int, ...]
    k_fixed: int | None = None
    k_alpha: float | None = None
    algos: tuple[str, ...] = ALGOS
    tsp_mode: str = "auto"
    small_instance_mode: bool = False  # the exact optimum as ratio denominator

    def __post_init__(self) -> None:
        if not self.algos or len(set(self.algos)) != len(self.algos):
            raise ValueError(f"algos must be distinct and nonempty, got {self.algos!r}")
        seeds = tuple(check_int(seed, "seed") for seed in self.seeds)
        if not seeds or len(set(seeds)) != len(seeds):
            raise ValueError(f"seeds must be distinct and nonempty, got {self.seeds!r}")
        for seed in seeds:
            try:
                check_seed(seed)
            except ValueError as exc:
                raise ValueError(f"seeds must be in 0 .. 2**128 - 1, got {self.seeds!r}: "
                                 f"{exc}") from None
        object.__setattr__(self, "seeds", seeds)
        for algo in self.algos:
            if algo not in ALGOS:
                raise ValueError(f"unknown algo {algo!r}")
        (depot,) = check_coordinates([self.depot], "depot").tolist()
        object.__setattr__(self, "depot", Point._make(depot))
        check_tsp_mode(self.tsp_mode)
        object.__setattr__(self, "M", check_int(self.M, "M", 1))
        object.__setattr__(self, "n", check_int(self.n, "n", 0))
        resolve_k(self.n, self.k_fixed, self.k_alpha)  # validate early
        if self.small_instance_mode and self.n > EXACT_GROUP_THRESHOLD:
            raise ValueError(f"small-instance mode takes at most {EXACT_GROUP_THRESHOLD} "
                             f"terminals, got n = {self.n}")

    @property
    def k(self) -> int:
        return resolve_k(self.n, self.k_fixed, self.k_alpha)


@dataclass(frozen=True)
class RatioRow:
    seed: int
    n: int
    k: int
    M: int
    algo: str
    cost: float
    lb_r0: float
    lb_rstar: float
    lb_rinf: float
    best_lb: float
    ub: float
    ratio: float
    certified: bool
    best_certified_lb: float
    certified_ratio: float

    def to_csv(self) -> str:
        return ",".join(map(field_text, astuple(self)))


CSV_HEADER = ",".join(f.name for f in fields(RatioRow))


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


# field annotation (a string under postponed annotations) -> field_text inverse
_FROM_TEXT = {"int": int, "float": float, "str": str, "bool": _parse_bool}


def parse_csv_row(line: str) -> RatioRow:
    values = line.strip().split(",")
    columns = fields(RatioRow)
    if len(values) != len(columns):
        raise ValueError(f"expected {len(columns)} fields, got {len(values)}: {line!r}")
    return RatioRow(*(_FROM_TEXT[c.type](v) for c, v in zip(columns, values)))


def read_csv(fp: TextIO) -> list[RatioRow]:
    rows = []
    for line in fp:
        line = line.strip()
        if not line or line.startswith("#") or line == CSV_HEADER:
            continue
        rows.append(parse_csv_row(line))
    return rows


@dataclass
class ExperimentResult:
    rows: list[RatioRow] = field(default_factory=list)
    caveats: list[str] = field(default_factory=list)

    @property
    def best_certified_lb(self) -> dict[int, float]:
        """{seed: best_certified_lb} of the rows; perfbench reads it until ROADMAP item 1."""
        return {row.seed: row.best_certified_lb for row in self.rows}


def _ratio(cost: float, lb: float) -> float:
    return cost / lb if lb > 0.0 else math.nan


def run_ratio_experiment(config: ExperimentConfig) -> ExperimentResult:
    """One row per (seed, algo), seeds in the given order."""
    k = config.k
    rstar = choose_R(config.depot)
    result = ExperimentResult()
    result.caveats.append(
        "observational desk-scale run; the asymptotic regime (M >= 1e5, "
        "n -> inf) is out of reach, so ratios are empirical, not bounds"
    )
    if config.small_instance_mode:
        result.caveats.append("ratio denominator is the optimum (exact group DP)")

    for seed in config.seeds:
        instance = gen_instance(config.n, k, config.depot, seed)
        solutions = {algo: solve(instance, algo, config.M, config.tsp_mode, seed)
                     for algo in config.algos}
        # T*_0 may be ITP's tour with the depot shortcut (see bounds)
        bounds = BoundContext(instance, config.tsp_mode, seed, solutions.get("itp"))
        lbs = bounds.lower_bounds(rstar)
        best_lb = max(b.value for b in lbs.values())
        certified = all(b.certified for b in lbs.values())
        best_certified_lb = max(b.value for b in lbs.values() if b.certified)

        denominator = best_lb
        if config.small_instance_mode:
            denominator = cvrp_exact_small(instance.terminals, instance.depot,
                                           instance.capacity).total_cost

        for algo, solution in solutions.items():
            cost = solution.total_cost
            M = 1 if algo == "itp" else config.M  # ITP has no groups: bounded at M = 1
            result.rows.append(RatioRow(
                seed=seed, n=config.n, k=k, M=M, algo=algo, cost=cost,
                **{name: b.value for name, b in lbs.items()}, best_lb=best_lb,
                ub=bounds.upper(M).value, ratio=_ratio(cost, denominator),
                certified=certified, best_certified_lb=best_certified_lb,
                certified_ratio=_ratio(cost, best_certified_lb),
            ))
    return result


def write_csv(result: ExperimentResult, fp: TextIO) -> None:
    for caveat in result.caveats:
        fp.write(f"# {caveat}\n")
    fp.write(CSV_HEADER + "\n")
    for row in result.rows:
        fp.write(row.to_csv() + "\n")


def mean_certified_ratio(result: ExperimentResult, algo: str = "sweep") -> float:
    """Mean of the rows' certified_ratio over seeds, for one algo, nan left out."""
    ratios = [row.certified_ratio for row in result.rows
              if row.algo == algo and not math.isnan(row.certified_ratio)]
    if not ratios:
        return math.nan
    return math.fsum(ratios) / len(ratios)
