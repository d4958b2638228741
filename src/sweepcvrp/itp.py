"""Iterated tour partitioning baseline: one global TSP tour over all
terminals plus the depot, split into capacity-feasible segments with the
best of k rotation offsets (Haimovich and Rinnooy Kan 1985).

ITP carries no depot_two_opt pass, unlike the sweep's groups: the routes
it returns, read in route order, are the heuristic T*_0 tour of
bounds.BoundContext.local, so ITP's split must stay the classical one; a
pass that reorients routes would lengthen that tour."""

from __future__ import annotations

from .geometry import Instance, Solution
from .group_cvrp import cvrp_group_heuristic


def itp_solve(instance: Instance, tsp_mode: str = "auto", seed: int = 0) -> Solution:
    """Classical ITP; with an exact TSP the cost is at most
    TSP(V + depot) + (2/k) * sum of depot distances."""
    return cvrp_group_heuristic(
        list(instance.terminals), instance.depot, instance.capacity,
        tsp_mode=tsp_mode, seed=seed,
    )
