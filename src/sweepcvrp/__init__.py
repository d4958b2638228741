"""Sweep-partition CVRP solver, radial/local bound certificates, and the
validated-numerics verification of the underlying constants."""

from .bounds import (
    BoundContext,
    BoundsReport,
    choose_R,
    compute_bounds,
    local_cost,
    lower_bound,
    radial_cost,
    upper_bound_formula,
)
from .closedform import g1, g2, g3, g_all
from .experiments import ExperimentConfig, gen_instance, run_ratio_experiment
from .geometry import (
    Instance,
    Point,
    Solution,
    Tour,
    diameter,
    load_instance,
    polar_angle,
    save_instance,
    sweep_sort,
)
from .group_cvrp import SolveConfig, cvrp_exact_small, cvrp_group_heuristic, solve_group
from .interval import Interval, iv_g
from .itp import itp_solve
from .netverify import (
    NetCertificate,
    enumerate_net,
    verify_all,
    verify_far_field,
    verify_point,
)
from .sweep import sweep_solve
from .tsp import TspResult, tsp_dispatch, tsp_exact, tsp_heuristic

__version__ = "0.1.0"

__all__ = [
    "BoundContext", "BoundsReport", "ExperimentConfig", "Instance", "Interval",
    "NetCertificate", "Point", "Solution", "SolveConfig", "Tour", "TspResult",
    "choose_R", "compute_bounds", "cvrp_exact_small", "cvrp_group_heuristic",
    "diameter", "enumerate_net", "g1", "g2", "g3", "g_all", "gen_instance",
    "itp_solve", "iv_g", "load_instance", "local_cost", "lower_bound",
    "polar_angle", "radial_cost", "run_ratio_experiment", "save_instance",
    "solve_group", "sweep_solve", "sweep_sort", "tsp_dispatch", "tsp_exact",
    "tsp_heuristic", "upper_bound_formula", "verify_all", "verify_far_field",
    "verify_point",
]
