"""Instance generation and the ratio-experiment harness.

Instances are reproducible: terminal coordinates come from the Philox 4x64
counter-based generator (numpy's implementation) keyed with the given seed,
mapped to [0,1) with the standard 53-bit scheme ((word >> 11) * 2^-53),
x then y per terminal in terminal order.

The experiment runner emits one CSV row per (seed, algorithm): RatioRow's
fields in order, as geometry.field_text writes them (bools as true/false):

  seed,n,k,M,algo,cost,lb_r0,lb_rstar,lb_rinf,best_lb,ub,ratio,certified

Lower bounds are evaluated at R = 0, R = (3/4) E d(depot, v) and R = inf;
best_lb is the largest of the three. `certified` is false whenever a
heuristic TSP entered any of the lower bounds, which makes the ratio
indicative rather than a certificate. In small-instance mode the ratio
denominator is the brute-force optimum instead of best_lb. Comment lines
starting with `#` carry caveats and are skipped by the parser.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from typing import TextIO

import numpy as np

# lower_bound and upper_bound_formula are not called here any more, but stay
# importable from this module: perfbench's traced run wraps them at this site.
from .bounds import BoundContext, choose_R, lower_bound, upper_bound_formula  # noqa: F401
from .bruteforce import brute_force_opt
from .geometry import Instance, Point, Solution, field_text
from .group_cvrp import SolveConfig
from .itp import itp_solve
from .sweep import sweep_solve
from .tsp import check_tsp_mode

ALGOS = ("sweep", "itp")


def solve(
    instance: Instance, algo: str, M: int, tsp_mode: str = "auto", seed: int = 0
) -> Solution:
    """The solution of the algorithm named `algo` (one of ALGOS): the sweep
    with group size factor M, or ITP, which ignores M. The solvers are read
    from this module at call time, so a traced run can replace them here."""
    if algo == "sweep":
        return sweep_solve(instance, M, SolveConfig(tsp_mode=tsp_mode, seed=seed))
    if algo == "itp":
        return itp_solve(instance, tsp_mode=tsp_mode, seed=seed)
    raise ValueError(f"unknown algo {algo!r}")


def gen_instance(n: int, k: int, depot: Point, seed: int) -> Instance:
    """n i.i.d. uniform terminals on the unit square; deterministic in seed."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    coords = rng.random((n, 2))
    terminals = tuple(Point(float(x), float(y)) for x, y in coords)
    return Instance(terminals=terminals, depot=depot, capacity=k)


def resolve_k(n: int, k_fixed: int | None = None, k_alpha: float | None = None) -> int:
    """Fixed capacity, or k = ceil(n^alpha) for alpha in [0, 1]."""
    if (k_fixed is None) == (k_alpha is None):
        raise ValueError("specify exactly one of k_fixed, k_alpha")
    if k_fixed is not None:
        k = k_fixed
    else:
        if not 0.0 <= k_alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {k_alpha}")
        k = math.ceil(n ** k_alpha) if n > 0 else 1
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
    small_instance_mode: bool = False  # brute-force opt as ratio denominator

    def __post_init__(self) -> None:
        if not self.algos or len(set(self.algos)) != len(self.algos):
            raise ValueError(f"algos must be distinct and nonempty, got {self.algos!r}")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct and nonempty, got {self.seeds!r}")
        for algo in self.algos:
            if algo not in ALGOS:
                raise ValueError(f"unknown algo {algo!r}")
        if not (math.isfinite(self.depot.x) and math.isfinite(self.depot.y)):
            raise ValueError(f"non-finite depot: {self.depot}")
        check_tsp_mode(self.tsp_mode)
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        resolve_k(self.n, self.k_fixed, self.k_alpha)  # validate early

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
    # per-seed largest lower bound among the certified ones (R=inf always is)
    best_certified_lb: dict[int, float] = field(default_factory=dict)
    caveats: list[str] = field(default_factory=list)


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
        result.caveats.append("ratio denominator is the brute-force optimum")

    for seed in config.seeds:
        instance = gen_instance(config.n, k, config.depot, seed)
        bounds = BoundContext(instance, config.tsp_mode, seed)
        lbs, valid = zip(*(bounds.lower(R) for R in (0.0, rstar, math.inf)))
        best_lb = max(lbs)
        certified = all(valid)
        result.best_certified_lb[seed] = max(v for v, ok in zip(lbs, valid) if ok)

        if config.small_instance_mode:
            denominator = brute_force_opt(instance)
        else:
            denominator = best_lb

        for algo in config.algos:
            cost = solve(instance, algo, config.M, config.tsp_mode, seed).total_cost
            M = 1 if algo == "itp" else config.M  # ITP has no groups: bounded at M = 1
            ub, _ = bounds.upper(M)
            ratio = cost / denominator if denominator > 0.0 else math.nan
            result.rows.append(RatioRow(
                seed=seed, n=config.n, k=k, M=M, algo=algo, cost=cost,
                lb_r0=lbs[0], lb_rstar=lbs[1], lb_rinf=lbs[2],
                best_lb=best_lb, ub=ub, ratio=ratio, certified=certified,
            ))
    return result


def write_csv(result: ExperimentResult, fp: TextIO) -> None:
    for caveat in result.caveats:
        fp.write(f"# {caveat}\n")
    fp.write(CSV_HEADER + "\n")
    for row in result.rows:
        fp.write(row.to_csv() + "\n")


def mean_certified_ratio(result: ExperimentResult, algo: str = "sweep") -> float:
    """Mean of cost / best-certified-lower-bound over seeds, for one algo."""
    ratios = [
        row.cost / result.best_certified_lb[row.seed]
        for row in result.rows
        if row.algo == algo and result.best_certified_lb[row.seed] > 0.0
    ]
    if not ratios:
        return math.nan
    return math.fsum(ratios) / len(ratios)
