"""Shared test utilities: random instance builders, a child-process runner,
checks of the length rule, and the package's feasibility check
`check_feasible`, re-exported."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np

import sweepcvrp
from sweepcvrp.geometry import Instance, Point, check_feasible, dist  # noqa: F401

# a child interpreter imports the package from the same source tree
_CHILD_ENV = {**os.environ,
              "PYTHONPATH": os.path.dirname(os.path.dirname(sweepcvrp.__file__))}


def run_in_child(code: str, timeout: float) -> None:
    """Run `code` in a fresh interpreter; a failure or a hang (killed after
    `timeout` seconds) fails the calling test instead of stalling it."""
    subprocess.run([sys.executable, "-c", code], env=_CHILD_ENV, check=True,
                   timeout=timeout)


def random_points(rng: np.random.Generator, n: int, lo: float = 0.0,
                  hi: float = 1.0) -> list[Point]:
    coords = rng.uniform(lo, hi, size=(n, 2))
    return [Point(float(x), float(y)) for x, y in coords]


def random_instance(rng: np.random.Generator, max_n: int = 10,
                    max_k: int = 3, min_n: int = 1) -> Instance:
    n = int(rng.integers(min_n, max_n + 1))
    k = int(rng.integers(1, min(max_k, n) + 1))
    depot = Point(float(rng.uniform(-0.5, 1.5)), float(rng.uniform(-0.5, 1.5)))
    return Instance(terminals=tuple(random_points(rng, n)), depot=depot,
                    capacity=k)


# powers of two, 2**e, at which the package must behave alike
SCALE_EXPONENTS = (-600, -40, 0, 400)


def scaled_instance(instance: Instance, e: int) -> Instance:
    """`instance` with every coordinate times 2**e, exactly."""
    def at(p: Point) -> Point:
        return Point(math.ldexp(p.x, e), math.ldexp(p.y, e))

    return Instance(terminals=tuple(map(at, instance.terminals)),
                    depot=at(instance.depot), capacity=instance.capacity)


def shuffled_edge_sum(rng: np.random.Generator, route) -> float:
    """math.fsum of the closed route's edges (geometry.dist), taken in a
    random order: the length rule, read independently of the edge order."""
    edges = [dist(a, b) for a, b in zip(route, [*route[1:], *route[:1]])]
    return math.fsum(rng.permutation(edges).tolist())


def within_ulps(value: float, reference: float, m: int) -> bool:
    """|value - reference| is at most m ulps of the larger: a correctly
    rounded sum of m nonnegative terms lies that close to their IEEE sum in
    any order."""
    return abs(value - reference) <= m * math.ulp(max(abs(value), abs(reference)))
