"""Shared test utilities: random instance builders, and the package's
feasibility check `check_feasible`, re-exported."""

from __future__ import annotations

import numpy as np

from sweepcvrp.geometry import Instance, Point, check_feasible  # noqa: F401


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
