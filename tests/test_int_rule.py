"""The integer rule: every count, capacity, size and seed that the package
reads goes through geometry.check_int, which takes anything with __index__
(a bool or a numpy integer too) as a plain int and raises ValueError, naming
the parameter, for a float, a string or None and below the least value."""

import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

import sweepcvrp.group_cvrp as group_cvrp
import sweepcvrp.netverify as netverify
import sweepcvrp.tsp as tsp
from sweepcvrp.bounds import (
    BoundContext, compute_bounds, local_cost, lower_bound, upper_bound_formula,
)
from sweepcvrp.experiments import (
    ExperimentConfig, gen_instance, read_csv, resolve_k, run_ratio_experiment, solve,
    write_csv,
)
from sweepcvrp.geometry import Instance, Point, check_int
from sweepcvrp.group_cvrp import SolveConfig, cvrp_exact_small, split_tour_sequence
from sweepcvrp.interval import iv_g
from sweepcvrp.itp import itp_solve
from sweepcvrp.netverify import enumerate_net, net_size, verify_all
from sweepcvrp.sweep import sweep_groups, sweep_solve

SRC = Path(tsp.__file__).resolve().parent
O = Point(0.5, 0.5)
TERMINALS = ((0.1, 0.2), (0.9, 0.3), (0.4, 0.8), (0.7, 0.6), (0.2, 0.5), (0.6, 0.1))
INST = Instance(terminals=TERMINALS, depot=O, capacity=2)
# INST is on the exact path; above the exact threshold, T*_0 is ITP's tour,
# read from a given solution
INST_ITP = gen_instance(40, 3, O, 0)
ITP = itp_solve(INST_ITP, "auto", 0)
_heuristic = tsp.tsp_heuristic  # the original, for the one site that is the tour


def _config(**kwargs):
    return ExperimentConfig(**{**dict(n=4, depot=O, M=2, seeds=(0,), k_fixed=2),
                               **kwargs})


# (parameter name, entry point); each call reads one integer, the value
SITES = {
    "Instance capacity": ("capacity", lambda v: Instance(TERMINALS, O, v)),
    "gen_instance n": ("n", lambda v: gen_instance(v, 1, O, 0)),
    "gen_instance seed": ("seed", lambda v: gen_instance(4, 1, O, v)),
    "resolve_k k_fixed": ("k_fixed", lambda v: resolve_k(4, v)),
    "ExperimentConfig n": ("n", lambda v: _config(n=v)),
    "ExperimentConfig M": ("M", lambda v: _config(M=v)),
    "ExperimentConfig seeds": ("seed", lambda v: _config(seeds=(0, v))),
    "ExperimentConfig k_fixed": ("k_fixed", lambda v: _config(k_fixed=v)),
    "solve sweep M": ("M", lambda v: solve(INST, "sweep", v)),
    "solve itp M": ("M", lambda v: solve(INST, "itp", v)),
    "sweep_groups M": ("M", lambda v: sweep_groups(INST, v)),
    "sweep_solve M": ("M", lambda v: sweep_solve(INST, v)),
    "BoundContext.upper M": ("M", lambda v: BoundContext(INST).upper(v)),
    "BoundContext.report M": ("M", lambda v: BoundContext(INST).report(0.0, v)),
    "compute_bounds M": ("M", lambda v: compute_bounds(INST, 0.0, v)),
    "upper_bound_formula M": ("M", lambda v: upper_bound_formula(INST, v)),
    # the bounds read a seed on the exact path and on ITP's shortcut too,
    # which tsp_dispatch's check never sees
    "BoundContext seed": ("seed", lambda v: BoundContext(INST, "auto", v).lower(0.0)),
    "lower_bound seed": ("seed", lambda v: lower_bound(INST, 0.0, "auto", v)),
    "upper_bound_formula seed": ("seed", lambda v: upper_bound_formula(INST, 2, "auto", v)),
    "compute_bounds seed": ("seed", lambda v: compute_bounds(INST, 0.0, 2, "auto", v)),
    "local_cost seed": ("seed", lambda v: local_cost(INST, 0.0, "auto", v)),
    "BoundContext seed, given itp": (
        "seed", lambda v: BoundContext(INST_ITP, "auto", v, ITP).lower(0.0)),
    "cvrp_exact_small k": ("capacity", lambda v: cvrp_exact_small(TERMINALS, O, v)),
    "split_tour_sequence k": (
        "capacity", lambda v: split_tour_sequence(TERMINALS, O, [0, 1, 2], v)),
    "SolveConfig seed": ("seed", lambda v: SolveConfig(seed=v)),
    "tsp_heuristic seed": ("seed", lambda v: _heuristic(TERMINALS, v)),
    # the exact path does not read the seed, and checks it all the same
    "tsp_dispatch seed": ("seed", lambda v: tsp.tsp_dispatch(TERMINALS, "auto", v)),
    "itp_solve seed": ("seed", lambda v: itp_solve(INST, "auto", v)),
    "held_karp size": ("size", lambda v: tsp.held_karp([O, *TERMINALS], v)),
    "iv_g j": ("j", lambda v: iv_g(v, 0.5, 0.5)),
    "net_size stride": ("stride", net_size),
    "enumerate_net stride": ("stride", lambda v: list(enumerate_net(v))),
    "verify_all stride": ("stride", lambda v: verify_all(stride=v)),
    "verify_all threads": ("threads", lambda v: verify_all(stride=2371, threads=v)),
}


@pytest.fixture
def no_work(monkeypatch):
    """Every tour, Held-Karp table and net chunk fails the test."""
    def never(*args, **kwargs):
        raise AssertionError("work ran before the integer was checked")

    monkeypatch.setattr(tsp, "tsp_heuristic", never)
    monkeypatch.setattr(tsp, "tsp_exact", never)
    monkeypatch.setattr(tsp, "held_karp_layers", never)
    monkeypatch.setattr(group_cvrp, "held_karp", never)
    monkeypatch.setattr(netverify, "_scan_rows", never)
    monkeypatch.setattr(tsp, "_locations", never)


@pytest.mark.parametrize("site, bad", [
    (site, bad) for site in SITES for bad in (2.5, 2.0, "2", None)
    if (site, bad) != ("held_karp size", None)  # None: every size, the default
])
def test_every_site_rejects_a_non_integer(no_work, site, bad):
    # each used to construct (ExperimentConfig M=2.0 and n=2.0 failed in the
    # run; BoundContext.upper(2.5) returned a number), truncate, or raise
    # TypeError or IndexError; now each raises ValueError naming the
    # parameter, before any work
    name, call = SITES[site]
    with pytest.raises(ValueError) as info:
        call(bad)
    if (name, bad) == ("k_fixed", None):  # None means "use k_alpha"
        assert "exactly one of k_fixed, k_alpha" in str(info.value)
    else:
        assert str(info.value) == f"{name} must be an int, got {bad!r}"


def test_check_int():
    for value in (3, np.int64(3), np.int8(3), np.uint16(3)):
        assert type(check_int(value, "x")) is int and check_int(value, "x") == 3
    assert type(check_int(True, "x")) is int and check_int(True, "x", 1) == 1
    assert check_int(-7, "x") == -7
    for bad in (3.0, np.float64(3.0), "3", None, [3], 3 + 0j):
        with pytest.raises(ValueError, match=re.escape(f"x must be an int, got {bad!r}")):
            check_int(bad, "x")
    with pytest.raises(ValueError, match="x must be >= 1, got 0"):
        check_int(False, "x", 1)
    with pytest.raises(ValueError, match="x must be >= 0, got -1"):
        check_int(np.int64(-1), "x", 0)


@pytest.mark.parametrize("good, value", [(np.int64(3), 3), (True, 1)], ids=["int64", "True"])
def test_integers_are_stored_as_int(good, value):
    stored = {
        "capacity": Instance(TERMINALS, O, good).capacity,
        "n": _config(n=good, k_fixed=1).n,
        "M": _config(M=good).M,
        "seed": _config(seeds=(good, 7)).seeds[0],
        "report M": compute_bounds(INST, 0.0, good).M,
        "SolveConfig seed": SolveConfig(seed=good).seed,
    }
    assert {k: (type(v), v) for k, v in stored.items()} == {
        k: (int, value) for k in stored}


def test_verify_all_stores_an_int_stride():
    # stride 2371 nets the 3 points of indices {0, 2371}
    cert = verify_all(stride=np.int64(2371), threads=np.int64(1))
    assert cert.passed and type(cert.stride) is int and cert.points_checked == 3
    json.dumps(cert.canonical_dict())


@pytest.mark.parametrize("seed, written", [(np.int64(3), "3"), (True, "1")],
                         ids=["int64", "True"])
def test_csv_round_trip(seed, written):
    # seeds=(True,) wrote `true`, which read_csv rejected
    result = run_ratio_experiment(_config(seeds=(seed,)))
    buf = io.StringIO()
    write_csv(result, buf)
    assert {line.split(",")[0] for line in buf.getvalue().splitlines()[2:]} == {written}
    assert all(type(row.seed) is int for row in result.rows)
    # repr: a ratio over a negative best_lb is nan, unequal to itself
    assert repr(read_csv(io.StringIO(buf.getvalue()))) == repr(result.rows)


def test_true_M_writes_one():
    # M=True wrote `true` in the M column
    result = run_ratio_experiment(_config(M=True, algos=("sweep",)))
    buf = io.StringIO()
    write_csv(result, buf)
    assert [row.M for row in read_csv(io.StringIO(buf.getvalue()))] == [1]


def test_bounds_report_with_numpy_M_is_json():
    # to_dict held np.int64(2), which json.dumps rejected
    inst = gen_instance(20, 3, O, 5)
    report = compute_bounds(inst, 0.25, np.int64(2))
    assert json.loads(json.dumps(report.to_dict()))["M"] == 2
    assert report == compute_bounds(inst, 0.25, 2)


def test_float_seed_is_not_truncated():
    # gen_instance(5, 2, depot, 1.5) returned seed 1's instance, and
    # seeds=(1.5,) ran it and wrote seed=1.5
    with pytest.raises(ValueError, match="seed must be an int, got 1.5"):
        gen_instance(5, 2, O, 1.5)
    with pytest.raises(ValueError, match="seed must be an int, got 1.5"):
        _config(seeds=(1.5,))


def test_one_home_for_the_rule():
    """operator.index is called only in check_int, and no module but geometry
    (the rule) and bruteforce (the independent oracle) spells a `must be >= 1`
    check of its own."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    index_calls = {name: text.count("operator.index(") for name, text in sources.items()}
    assert {name: c for name, c in index_calls.items() if c} == {"geometry.py": 1}
    helper = re.search(r"\ndef check_int\(.*?\n(?=\S)", sources["geometry.py"], re.S)
    assert "operator.index(" in helper.group(0)
    spelled = sorted(name for name, text in sources.items() if "must be >= 1" in text)
    assert set(spelled) <= {"geometry.py", "bruteforce.py"}, spelled
