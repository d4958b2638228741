"""Acceptance suite: one test per criterion, each printing a PASS line.

Environment switches for the full-scale variants (defaults are CI-sized):
  RUN_FULL_NET=1   criterion 1 at stride 1 (all 2,814,378 net points)
  RUN_FULL_OBS=1   criterion 8 at n=5000, 20 seeds
"""

import itertools
import math
import os
import time

import numpy as np

from sweepcvrp.bounds import choose_R, lower_bound, upper_bound_formula
from sweepcvrp.bruteforce import brute_force_opt, cvrp_brute_force, tsp_brute_force
from sweepcvrp.closedform import g1, g2, g3, g_all
from sweepcvrp.experiments import ExperimentConfig, mean_certified_ratio, run_ratio_experiment
from sweepcvrp.geometry import Instance, Point, diameter
from sweepcvrp.group_cvrp import cvrp_exact_small
from sweepcvrp.itp import itp_solve
from sweepcvrp.netverify import lipschitz_slacks, net_size, verify_all
from sweepcvrp.sweep import sweep_solve
from sweepcvrp.tsp import tsp_exact

from helpers import random_points

SQRT2 = math.sqrt(2.0)
FAR = 3.0 * SQRT2


def test_criterion_1_net_verification():
    full = os.environ.get("RUN_FULL_NET") == "1"
    stride = 1 if full else 50
    start = time.perf_counter()
    cert = verify_all(stride=stride, threads=2)
    elapsed = time.perf_counter() - start
    assert cert.passed, cert
    assert cert.points_checked == net_size(stride)
    assert cert.min_margin_g2 >= 0.0025
    assert cert.min_margin_g3 >= 0.0096
    assert cert.lipschitz_slack_g2 > 0.0
    assert cert.lipschitz_slack_g3 > 0.0
    if not full:
        assert elapsed < 10.0, f"stride-50 CI run took {elapsed:.1f}s"
    # the slack chain evaluated rigorously
    slack2, slack3 = lipschitz_slacks()
    assert slack2.lo > 0.0 and slack3.lo > 0.0
    print(
        f"\nACCEPTANCE 1 (net verification, stride {stride}): PASS — "
        f"{cert.points_checked} points, min margins {cert.min_margin_g2:.6f}/"
        f"{cert.min_margin_g3:.6f}, slacks {cert.lipschitz_slack_g2:.3e}/"
        f"{cert.lipschitz_slack_g3:.3e}, {elapsed:.1f}s"
    )


def test_criterion_2_closed_form_constants():
    target = (SQRT2 + math.log(1 + SQRT2)) / 6
    err_center = abs(g1(0.5, 0.5) - target)
    assert err_center <= 1e-12
    far_points = [
        (1 + FAR, 0.5), (10.0, 10.0), (-5.0, 0.5), (0.5, -7.0),
        (-4.0, -4.0), (6.0, -2.0), (0.25, 1 + FAR),
    ]
    worst = 0.0
    for a, b in far_points:
        v1, v2, v3, _ = g_all(a, b)
        assert abs(v2 - 0.75 * v1) <= 1e-12
        assert v3 == 1.0
        worst = max(worst, abs(v2 - 0.75 * v1))
    print(
        f"\nACCEPTANCE 2 (closed-form constants): PASS — center g1 error "
        f"{err_center:.2e}, far-field g2 error <= {worst:.2e}, g3 exactly 1"
    )


def test_criterion_3_monte_carlo_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    samples = 1_000_000
    for trial in range(100):
        a, b = rng.uniform(-1, 2, size=2)
        v = rng.random((samples, 2))
        d = np.hypot(v[:, 0] - a, v[:, 1] - b)
        v1, v2, v3, R = g_all(a, b)
        se1 = float(d.std()) / math.sqrt(samples)
        assert abs(v1 - float(d.mean())) <= 4 * se1, (trial, a, b, "g1")
        clipped = np.minimum(d, R)
        se2 = float(clipped.std()) / math.sqrt(samples)
        assert abs(v2 - float(clipped.mean())) <= 4 * se2, (trial, a, b, "g2")
        p = float((d > R).mean())
        se3 = max(math.sqrt(p * (1 - p) / samples), 1.0 / samples)
        assert abs(v3 - p) <= 4 * se3, (trial, a, b, "g3")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 3 (Monte Carlo oracle): PASS — 100 depots x 1e6 "
        f"samples within 4 standard errors for g1, g2, g3; {elapsed:.1f}s"
    )


def _sandwich_cases():
    """Criterion 4's 200 instances, each with its four random radii and its
    M, drawn in the order the test has always drawn them."""
    rng = np.random.default_rng(987)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, min(3, n) + 1))
        depot = Point(float(rng.uniform(-0.5, 1.5)), float(rng.uniform(-0.5, 1.5)))
        inst = Instance(terminals=tuple(random_points(rng, n)), depot=depot,
                        capacity=k)
        radii = [float(r) for r in rng.uniform(0.0, 3.0, size=4)]
        yield inst, radii, int(rng.integers(1, 4))


def test_criterion_4_sandwich():
    start = time.perf_counter()
    instances = 0
    for trial, (inst, random_radii, M) in enumerate(_sandwich_cases()):
        instances += 1
        depot = inst.depot
        opt = brute_force_opt(inst)
        radii = [0.0, choose_R(depot), math.inf] + random_radii
        assert len(radii) == 7
        for R in radii:
            value, valid = lower_bound(inst, R)
            assert valid
            assert value <= opt + 1e-9, (trial, R, value, opt)
        sweep_cost = sweep_solve(inst, M).total_cost
        ub, certified = upper_bound_formula(inst, M)
        assert certified
        assert opt - 1e-9 <= sweep_cost <= ub + 1e-9, (trial, M)
        itp_cost = itp_solve(inst).total_cost
        ub1, certified1 = upper_bound_formula(inst, 1)
        assert certified1
        assert itp_cost <= ub1 + 1e-9, trial
    assert instances == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 4 (sandwich, {instances} instances x 7 radii): PASS — "
        f"lower <= opt <= sweep <= upper and itp <= upper; {elapsed:.1f}s"
    )


# The partition oracle before it dropped partial partitions, kept verbatim as
# the reference: the pruned search must return the same value.
def _iter_partitions_reference(items, max_block: int):
    """All set partitions of `items` into blocks of size <= max_block.
    The first remaining item anchors each block, so every partition appears
    exactly once."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for size in range(0, min(max_block - 1, len(rest)) + 1):
        for combo in itertools.combinations(rest, size):
            chosen = set(combo)
            block = (first, *combo)
            remaining = [x for x in rest if x not in chosen]
            for sub in _iter_partitions_reference(remaining, max_block):
                yield [block, *sub]


def _cvrp_brute_force_reference(U, depot: Point, k: int) -> float:
    """Optimal CVRP value by enumerating every partition into blocks of at
    most k terminals, each served by a brute-force TSP tour through the
    depot."""
    n = len(U)
    if n == 0:
        return 0.0
    block_cost: dict[frozenset[int], float] = {}

    def cost_of(block: tuple[int, ...]) -> float:
        key = frozenset(block)
        cached = block_cost.get(key)
        if cached is None:
            cached = tsp_brute_force([depot, *(U[i] for i in block)])
            block_cost[key] = cached
        return cached

    best = math.inf
    for partition in _iter_partitions_reference(range(n), k):
        total = math.fsum(cost_of(block) for block in partition)
        if total < best:
            best = total
    return best


def test_criterion_4_pruned_oracle_equals_full_enumeration():
    for trial, (inst, _, _) in enumerate(_sandwich_cases()):
        U = list(inst.terminals)
        assert (cvrp_brute_force(U, inst.depot, inst.capacity)
                == _cvrp_brute_force_reference(U, inst.depot, inst.capacity)), trial


def test_criterion_5_lipschitz():
    rng = np.random.default_rng(555)
    lip3 = 3.0 + SQRT2
    pairs = 10_000
    for _ in range(pairs):
        a = float(rng.uniform(-2, 3))
        b = float(rng.uniform(-2, 3))
        angle = float(rng.uniform(0, 2 * math.pi))
        step = float(rng.uniform(0, 0.1))
        a2, b2 = a + step * math.cos(angle), b + step * math.sin(angle)
        d = math.hypot(a2 - a, b2 - b)
        assert abs(g1(a2, b2) - g1(a, b)) <= d + 1e-9
        assert abs(g2(a2, b2) - g2(a, b)) <= d + 1e-9
        assert abs(g3(a2, b2) - g3(a, b)) <= lip3 * d + 1e-9
    print(
        f"\nACCEPTANCE 5 (Lipschitz continuity): PASS — {pairs} pairs within "
        f"the constants 1, 1, 3+sqrt(2)"
    )


def test_criterion_6_diameter_vs_expected_distance():
    rng = np.random.default_rng(666)
    corners = [Point(0, 0), Point(0, 1), Point(1, 0), Point(1, 1)]
    count = 0
    while count < 1000:
        a = float(rng.uniform(-FAR - 1, FAR + 2))
        b = float(rng.uniform(-FAR - 1, FAR + 2))
        dx = max(0.0, -a, a - 1.0)
        dy = max(0.0, -b, b - 1.0)
        if math.hypot(dx, dy) > FAR:
            continue
        count += 1
        D = diameter([*corners, Point(a, b)])
        assert D <= 5.0 * g1(a, b) + 1e-9, (a, b)
    print(
        "\nACCEPTANCE 6 (diameter bound): PASS — 1000 depots satisfy "
        "diam(square + depot) <= 5 E d(depot, v)"
    )


def test_criterion_7_solver_oracles():
    rng = np.random.default_rng(777)
    for trial in range(100):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        U = random_points(rng, n)
        depot = Point(float(rng.uniform(-1, 2)), float(rng.uniform(-1, 2)))
        dp = cvrp_exact_small(U, depot, k).total_cost
        brute = cvrp_brute_force(U, depot, k)
        assert abs(dp - brute) <= 1e-9, (trial, n, k)
    sizes = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 8, 7, 6, 5, 9]
    for trial, n in enumerate(sizes):
        pts = random_points(rng, n)
        assert abs(tsp_exact(pts).length - tsp_brute_force(pts)) <= 1e-9, (trial, n)
    print(
        "\nACCEPTANCE 7 (solver oracles): PASS — 100 partition-enumeration "
        "checks and 16 permutation TSP checks"
    )


def test_criterion_8_observational_ratio():
    full = os.environ.get("RUN_FULL_OBS") == "1"
    if full:
        n, seeds, label = 5000, tuple(range(20)), "full"
    else:
        n, seeds, label = 500, (0, 1, 2), "reduced"
    k = math.ceil(math.sqrt(n))
    config = ExperimentConfig(
        n=n, depot=Point(0.5, 0.5), M=2, seeds=seeds, k_fixed=k,
        algos=("sweep",), tsp_mode="auto",
    )
    start = time.perf_counter()
    result = run_ratio_experiment(config)
    elapsed = time.perf_counter() - start
    mean = mean_certified_ratio(result, "sweep")
    assert math.isfinite(mean)
    assert mean >= 1.0 - 1e-9  # certified lower bound can never exceed cost
    print(
        f"\nACCEPTANCE 8 (observational, {label} scale, not pass/fail): "
        f"n={n}, k={k}, M=2, {len(seeds)} seeds -> mean sol/best-certified-"
        f"lower-bound = {mean:.4f} ({elapsed:.1f}s). The asymptotic 1.55 "
        f"regime (M >= 1e5) is not reachable at desk scale; this number is "
        f"observational only."
    )
