"""The benchmark in perfbench/ patches package attributes by name and calls
package functions positionally; both must keep resolving, or the traced
benchmark run breaks while every other test passes."""

import dataclasses
import sys
from pathlib import Path

import pytest

import sweepcvrp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def test_every_traced_site_resolves(workloads):
    missing = [f"{module.__name__}.{name}" for module, name, _ in workloads._SITES
               if not callable(getattr(module, name, None))]
    assert missing == []


def test_positional_package_calls():
    inst = sweepcvrp.gen_instance(5, 2, sweepcvrp.Point(0.5, 0.5), 3)
    value, valid = sweepcvrp.lower_bound(inst, 0.0, "auto", 3)
    assert valid and isinstance(value, float)
    itp = sweepcvrp.itp_solve(inst, "auto", 3)
    sweep = sweepcvrp.sweep_solve(inst, 2, sweepcvrp.SolveConfig(seed=3))
    for sol in (itp, sweep):
        assert sorted(i for t in sol.tours for i in t.indices) == list(range(5))
    U = list(inst.terminals)
    assert sweepcvrp.cvrp_exact_small(U, inst.depot, 3).total_cost > 0.0
    assert sweepcvrp.tsp_exact(U).certified_optimal


def test_record_reads():
    """The keywords and attributes perfbench's checks read off the
    experiment and certificate records."""
    config = sweepcvrp.ExperimentConfig(
        n=5, depot=sweepcvrp.Point(0.5, 0.5), M=2, seeds=(3, 4), k_fixed=2,
        algos=("sweep", "itp"))
    result = sweepcvrp.run_ratio_experiment(dataclasses.replace(config, seeds=(3,)))
    merged = sweepcvrp.experiments.ExperimentResult(caveats=list(result.caveats))
    merged.rows.extend(result.rows)
    merged.best_certified_lb.update(result.best_certified_lb)
    assert [(r.seed, r.algo) for r in merged.rows] == [(3, "sweep"), (3, "itp")]
    for row in merged.rows:
        assert row.lb_r0 <= row.cost <= row.ub
        assert max(row.lb_rstar, row.lb_rinf) <= row.cost
    assert set(merged.best_certified_lb) == {3}
    assert merged.best_certified_lb == {r.seed: r.best_certified_lb for r in merged.rows}

    cert = sweepcvrp.verify_all(stride=400)
    assert cert.passed and cert.points_checked == sweepcvrp.netverify.net_size(400)
    assert cert.min_margin_g2 > 0.0 and cert.min_margin_g3 > 0.0
    assert cert.lipschitz_slack_g2 > 0.0 and cert.lipschitz_slack_g3 > 0.0
    assert cert.canonical_dict()["pass"] is True
