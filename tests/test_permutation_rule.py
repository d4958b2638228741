"""The permutation rule: every tour order and route set that the package
reads goes through geometry.check_permutation, which reads each index by
the integer rule and raises ValueError, naming the indices, unless they
hold each of 0 .. n - 1 exactly once. The two public group stages,
split_tour_sequence and depot_two_opt, check their indices before they read
a point, and depot_two_opt takes only the routes check_feasible takes."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import sweepcvrp.geometry as geometry
from sweepcvrp.geometry import Point, Tour, check_permutation, tour_length
from sweepcvrp.group_cvrp import depot_two_opt, split_tour_sequence
from sweepcvrp.tsp import _local_search, _NeighbourIndex

SRC = Path(geometry.__file__).resolve().parent
O = Point(0.0, 0.0)
U = [Point(1.0, 0.0), Point(0.0, 1.0), Point(-1.0, 0.0), Point(0.0, -1.0)]
# (module, function) of every reader of an order or a route set
SITES = {("geometry.py", "check_feasible"), ("tsp.py", "_local_search"),
         ("group_cvrp.py", "split_tour_sequence"), ("group_cvrp.py", "depot_two_opt")}


@pytest.mark.parametrize("indices, n", [
    ([], 0), ([0], 1), ([2, 0, 1], 3), ((np.int64(1), np.int64(0)), 2), (range(4), 4),
])
def test_permutations_pass(indices, n):
    check_permutation(indices, n, "order")


@pytest.mark.parametrize("indices, n", [
    ([], 1), ([0], 0), ([0, 0], 2), ([0, -1, 2], 3), ([0, 1, 2], 2), ([0, 1], 3),
    ([1, 2], 2), ([0, 0, 0, 1], 2),
])
def test_non_permutations_raise(indices, n):
    with pytest.raises(ValueError, match=rf"^order is not a permutation of range\({n}\)$"):
        check_permutation(indices, n, "order")


# orders over U that the split read as they were: at k = 2, [0, -1, 2]
# returned Tour(indices=(0, -1), ...), reading the depot as terminal -1, and
# [0, 0, 0, 1] served terminal 0 three times
@pytest.mark.parametrize("seq", [
    [0, -1, 2], [0, 0, 0, 1], [0, 1, 2], [0, 1, 2, 3, 3], [3, 2, 1, 4],
])
def test_split_reads_only_an_order_of_the_whole_group(seq):
    with pytest.raises(ValueError, match=r"the split order is not a permutation of range\(4\)"):
        split_tour_sequence(U, O, seq, 2)


# route sets over U that the pass handed back: a route through the depot as
# terminal -1, a terminal left out, one served twice
@pytest.mark.parametrize("routes", [
    [(0, -1, 2, 1)], [(0, 1, 2)], [(0, 1), (1, 2, 3)], [(0, 1, 2, 3, 4)],
])
def test_the_pass_reads_only_the_routes_of_the_whole_group(routes):
    tours = [Tour(r, 1.0) for r in routes]
    with pytest.raises(ValueError, match=r"the routes' terminal list is not a permutation"):
        depot_two_opt(U, O, tours)


# a bool or a numpy integer reads as its plain int, as check_int reads a
# count: [False, True, 2, 3] made Tour(indices=(False, True), ...), and
# np.int64 indices were stored as they came
@pytest.mark.parametrize("seq", [
    [False, True, 2, 3], [np.int64(0), np.int8(1), 2, 3], np.arange(4),
])
def test_indices_read_as_plain_ints(seq):
    assert check_permutation(seq, 4, "order") == [0, 1, 2, 3]
    assert all(type(v) is int for v in check_permutation(seq, 4, "order"))
    tours = split_tour_sequence(U, O, seq, 2)
    assert tours == split_tour_sequence(U, O, [0, 1, 2, 3], 2)
    routes = [Tour(tuple(seq), tour_length(O, U))]
    for tour in [*tours, *depot_two_opt(U, O, routes)]:
        assert all(type(v) is int for v in tour.indices), tour


# a float or None is no index: [0.0, 1, 2, 3] passed the rule and then
# raised TypeError from list indexing, and the local search read 1.5 as 1
@pytest.mark.parametrize("bad", [0.0, 1.5, None, "0"])
def test_non_integer_indices_raise(bad):
    seq = [bad, 1, 2, 3]
    with pytest.raises(ValueError, match=rf"^order index must be an int, got {bad!r}$"):
        check_permutation(seq, 4, "order")
    with pytest.raises(ValueError, match="the split order index must be an int"):
        split_tour_sequence(U, O, seq, 2)
    with pytest.raises(ValueError, match="the routes' terminal list index must be an int"):
        depot_two_opt(U, O, [Tour(tuple(seq), tour_length(O, U))])
    with pytest.raises(ValueError, match="the start tour index must be an int"):
        _local_search(_NeighbourIndex(np.array(U)), seq)


# the pass handed back an empty route and a route whose length is not its
# route's, both of which check_feasible rejects
def test_the_pass_reads_only_feasible_routes():
    whole = tour_length(O, U)
    with pytest.raises(ValueError, match="the routes hold an empty route"):
        depot_two_opt(U, O, [Tour((0, 1, 2, 3), whole), Tour((), 0.0)])
    with pytest.raises(ValueError, match="the routes hold an empty route"):
        depot_two_opt([], O, [Tour((), 0.0)])
    for length in (5.0, math.nextafter(whole, 0.0), math.nan):
        with pytest.raises(ValueError, match="tour length .* != route length"):
            depot_two_opt(U, O, [Tour((0, 1, 2, 3), length)])
    assert depot_two_opt([], O, []) == []
    assert depot_two_opt(U, O, [Tour((0, 1, 2, 3), whole)]) == [Tour((0, 1, 2, 3), whole)]


def test_the_stages_check_their_indices_before_a_point():
    bad = [*U[:3], Point(math.nan, 0.0)]
    with pytest.raises(ValueError, match="not a permutation"):
        split_tour_sequence(bad, O, [0, 1, 2], 2)
    with pytest.raises(ValueError, match="not a permutation"):
        depot_two_opt(bad, O, [Tour((0, 1, 2), 1.0)])
    with pytest.raises(ValueError, match="non-finite coordinate"):
        split_tour_sequence(bad, O, [0, 1, 2, 3], 2)


def _sorted_range_checks(tree: ast.AST) -> int:
    """The comparisons `sorted(...) == / != list(range(...))` in tree."""
    def named(node, name):
        return isinstance(node, ast.Call) and ast.unparse(node.func) == name

    return sum(1 for node in ast.walk(tree) if isinstance(node, ast.Compare)
               and named(node.left, "sorted")
               and any(named(c, "list") and c.args and named(c.args[0], "range")
                       for c in node.comparators))


def test_one_home_for_the_rule():
    """check_permutation holds the only `sorted(...) != list(range(...))` of
    the package, and each reader of an order or a route set calls it."""
    checks, callers = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if _sorted_range_checks(tree):
            checks[path.name] = _sorted_range_checks(tree)
        for func in tree.body:
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(n, ast.Call) and ast.unparse(n.func) == "check_permutation"
                    for n in ast.walk(func)):
                callers.add((path.name, func.name))
    assert checks == {"geometry.py": 1}
    helper = next(f for f in ast.parse((SRC / "geometry.py").read_text(encoding="utf-8")).body
                  if isinstance(f, ast.FunctionDef) and f.name == "check_permutation")
    assert _sorted_range_checks(helper) == 1
    assert callers == SITES
