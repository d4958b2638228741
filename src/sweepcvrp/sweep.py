"""Sweep-partition CVRP solver: sort terminals by polar angle around the
depot, cut the sorted sequence into consecutive groups of M*k terminals
(the last group may be smaller), and solve each group independently.

Group boundaries follow the sorted index blocks exactly; there is no
re-balancing or post-exchange between adjacent tours.
"""

from __future__ import annotations

from .geometry import Instance, Solution, Tour, make_solution, sweep_sort
from .group_cvrp import SolveConfig, solve_group


def sweep_groups(instance: Instance, M: int) -> list[list[int]]:
    """Consecutive blocks of M*k terminal indices in sweep order."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    order = sweep_sort(instance)
    block = M * instance.capacity
    return [order[i : i + block] for i in range(0, len(order), block)]


def sweep_solve(
    instance: Instance, M: int, config: SolveConfig = SolveConfig()
) -> Solution:
    """Sweep-partition solution; deterministic for fixed instance, M, seed."""
    tours: list[Tour] = []
    for group in sweep_groups(instance, M):
        U = [instance.terminals[i] for i in group]
        solution = solve_group(U, instance.depot, instance.capacity, config)
        tours.extend(
            Tour(indices=tuple(group[i] for i in t.indices), length=t.length)
            for t in solution.tours
        )
    return make_solution(tours)
