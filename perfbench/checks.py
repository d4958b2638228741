"""The benchmark's own correctness checks, independent of the package's tests.

Each check is counted as attempted; a check that fails or raises counts as
failed, so `failed / attempted` is the run's failure fraction.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field

# Lengths live on the unit square; recomputed sums may differ from the
# package's in the last bits, so compare with a relative tolerance.
REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def run(self, what: str, fn, *args):
        """Call fn(*args); an exception is a failed check and returns None."""
        try:
            return fn(*args)
        except Exception:  # a crash in the code under test is a failure, not an abort
            self.check(False, f"{what} raised:\n{traceback.format_exc()}")
            return None

    def identical(self, a, b, what: str) -> bool:
        """Bit-identical outputs (floats compared by repr)."""
        return self.check(repr(a) == repr(b), f"{what}: {a!r} != {b!r}")


def _hypot(p, q) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def route_length(depot, stops) -> float:
    """depot -> stops in order -> depot."""
    if not stops:
        return 0.0
    legs = [_hypot(depot, stops[0]), _hypot(stops[-1], depot)]
    legs += [_hypot(a, b) for a, b in zip(stops, stops[1:])]
    return math.fsum(legs)


def check_solution(checks: Checks, instance, solution, k: int, cost: float,
                   what: str) -> None:
    """Feasibility of a CVRP solution and agreement of its reported cost."""
    n = len(instance.terminals)
    visited = sorted(i for tour in solution.tours for i in tour.indices)
    checks.check(visited == list(range(n)),
                 f"{what}: terminals not visited exactly once")
    checks.check(all(1 <= len(t.indices) <= k for t in solution.tours),
                 f"{what}: a tour is empty or exceeds capacity {k}")
    lengths = []
    for t in solution.tours:
        if not all(0 <= i < n for i in t.indices):
            lengths.append(math.inf)
            continue
        lengths.append(route_length(
            instance.depot, [instance.terminals[i] for i in t.indices]))
    checks.check(all(close(a, t.length) for a, t in zip(lengths, solution.tours)),
                 f"{what}: a tour length does not match its route")
    checks.check(close(math.fsum(lengths), cost),
                 f"{what}: recomputed total {math.fsum(lengths)!r} != cost {cost!r}")
