"""The benchmark's three workloads.

Each operation is one closed-loop call into the package: the next call starts
only after the previous one returned. `units` splits a workload's inputs into
its operations (one instance seed each, or the whole net), `check` validates
the outputs outside the timed region, and `trace` runs an untraced and a
traced pass for the per-layer numbers.

- ratio_n1000: the ratio experiment at n = 1000, k = 32 (about sqrt n), M = 2
  over sixteen instance seeds. Heuristic TSP (nearest neighbour + 2-opt)
  dominates; neither exact DP nor the interval kernel runs. An instance's
  2-opt work is random: the standard deviation of its time over the mean is
  about 0.25 at n = 5000 (k = 71) and 0.15 at n = 1000. One n = 5000 instance
  fills a whole run, and over five seeds run_s spread by 0.16 of its median
  with four instances of n = 2000, 0.10 with twelve of n = 1000 and 0.07 with
  sixteen.
- exact_small: the same experiment at n = 14, k = 6 over 20 instance seeds.
  Many small calls on the exact paths (Held-Karp TSP at its 14-point
  threshold, the group set-partition DP at 12 terminals); every lower bound
  is certified.
- verify_net: the interval-arithmetic net verification at a fixed stride,
  timed in one process. Only the interval kernel and the netverify chunking
  run, none of the solver. On a shared 2-vCPU VM a two-worker pool ran at
  either 2.2x or 1.0x the serial rate, depending on whether the second vCPU
  was free, so the pool is timed only in the traced run (`netverify.pool_eff`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

import sweepcvrp
from sweepcvrp import bounds, experiments, group_cvrp, itp, netverify, sweep, tsp
from sweepcvrp.bruteforce import cvrp_brute_force, tsp_brute_force
from sweepcvrp.geometry import Point

from checks import Checks, check_solution, close
from tracer import LayerStats, Tracer

DEPOT = Point(0.5, 0.5)
# The full 2,814,378-point net takes about 80 s in one process, too long for
# the several timed operations a run needs for a steady mean; every fifth
# grid index on both axes keeps 113,050 points, about 3 s.
NET_STRIDE = 5
NET_THREADS = 2  # pool size of the traced run's pooled pass

# (module, attribute, layer): each attribute is replaced at the module where
# its callers look it up, so calls through that site are recorded as spans.
_SITES = [
    (experiments, "gen_instance", "experiments.gen_instance"),
    (experiments, "lower_bound", "bounds.lower_bound"),
    (experiments, "upper_bound_formula", "bounds.upper_bound_formula"),
    (experiments, "sweep_solve", "sweep.solve"),
    (experiments, "itp_solve", "itp.solve"),
    (bounds, "local_cost", "bounds.local_cost"),
    (bounds, "radial_cost", "bounds.radial_cost"),
    (bounds, "instance_diameter", "bounds.instance_diameter"),
    (sweep, "sweep_sort", "geometry.sweep_sort"),
    (sweep, "solve_group", "sweep.group"),
    (group_cvrp, "cvrp_exact_small", "group_cvrp.exact"),
    (group_cvrp, "cvrp_group_heuristic", "group_cvrp.heuristic"),
    (itp, "cvrp_group_heuristic", "group_cvrp.heuristic"),
    (group_cvrp, "split_tour_sequence", "group_cvrp.split"),
    (tsp, "tsp_exact", "tsp.exact"),
    (tsp, "tsp_heuristic", "tsp.heuristic"),
    (netverify, "v_g_all", "interval.v_g_all"),
    (netverify, "_scan_rows", "netverify.scan_rows"),
]


def _tsp_points(points, *args, **kwargs) -> int:
    return len(points)


def _tsp_key(points, *args, **kwargs):
    return frozenset(points)


def _kernel_points(a, b) -> int:
    return int(np.size(a[0]))


_MEASURE = {
    "tsp.exact": (_tsp_points, _tsp_key),
    "tsp.heuristic": (_tsp_points, _tsp_key),
    "interval.v_g_all": (_kernel_points, None),
}


def traced_call(root: str, fn, *args, **kwargs):
    """fn(*args, **kwargs) with every lookup site traced; returns
    (result, seconds of the root span, per-layer stats)."""
    with Tracer() as tracer:
        for module, name, layer in _SITES:
            points, key = _MEASURE.get(layer, (None, None))
            tracer.patch(module, name, layer, points=points, key=key)
        result = tracer.call(root, fn, args, kwargs)
    root_span = tracer.spans[0]
    return result, root_span.end - root_span.start, tracer.stats()


def layer_metrics(stats: dict[str, LayerStats], pool_eff: float,
                  overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric by name; layers that never ran read 0."""
    def get(layer: str) -> LayerStats:
        return stats.get(layer, LayerStats())

    out: dict[str, float] = {}
    fields = {
        "tsp.heuristic": ("calls", "points", "s", "dup_s"),
        "tsp.exact": ("calls", "points", "s", "dup_s"),
        "group_cvrp.exact": ("calls", "s"),
        "group_cvrp.heuristic": ("calls", "s", "self_s"),
        "group_cvrp.split": ("calls", "s"),
        "geometry.sweep_sort": ("calls", "s"),
        "sweep.solve": ("calls", "s", "self_s"),
        "itp.solve": ("calls", "s"),
        "bounds.local_cost": ("calls", "s", "self_s"),
        "bounds.radial_cost": ("calls", "s", "self_s"),
        "bounds.instance_diameter": ("calls", "s", "self_s"),
        "bounds.lower_bound": ("calls", "s", "self_s"),
        "bounds.upper_bound_formula": ("calls", "s", "self_s"),
        "experiments.gen_instance": ("calls", "s"),
        "interval.v_g_all": ("calls", "points", "s"),
    }
    for layer, names in fields.items():
        st = get(layer)
        for name in names:
            out[f"{layer}.{name}"] = getattr(st, name)
    groups = get("sweep.group").calls
    out["sweep.groups"] = groups
    out["group_cvrp.exact_frac"] = get("group_cvrp.exact").calls / groups if groups else 0.0
    kernel = get("interval.v_g_all")
    out["interval.v_g_all.points_per_s"] = kernel.points / kernel.s if kernel.s else 0.0
    out["netverify.batches"] = get("netverify.scan_rows").calls
    out["netverify.self_s"] = (get("netverify.verify_all").self_s
                               + get("netverify.scan_rows").self_s)
    out["netverify.pool_eff"] = pool_eff
    out["trace.overhead_frac"] = overhead_frac
    return out


@dataclass(frozen=True)
class SolverInputs:
    config: experiments.ExperimentConfig
    instances: dict[int, sweepcvrp.Instance]  # instance seed -> instance


@dataclass(frozen=True)
class SolverWorkload:
    """run_ratio_experiment over `instances` instance seeds, sweep + ITP."""

    name: str
    n: int
    k: int
    M: int
    instances: int
    # Groups and T*_0 are solved exactly: the upper bound is then certified,
    # and the exact solvers are spot-checked against brute force.
    exact: bool
    reference: str  # calibrate.REFERENCES loop most like the hot path

    def make_inputs(self, seed: int) -> SolverInputs:
        seeds = tuple(range(seed * self.instances, (seed + 1) * self.instances))
        config = experiments.ExperimentConfig(
            n=self.n, depot=DEPOT, M=self.M, seeds=seeds, k_fixed=self.k,
            algos=("sweep", "itp"),
        )
        instances = {s: sweepcvrp.gen_instance(self.n, self.k, DEPOT, s) for s in seeds}
        return SolverInputs(config, instances)

    def points(self, inputs: SolverInputs) -> int:
        return self.n * len(inputs.instances)

    def run(self, inputs: SolverInputs):
        return sweepcvrp.run_ratio_experiment(inputs.config)

    def units(self, inputs: SolverInputs) -> list:
        """One operation per instance seed; together they are `run`."""
        return [(f"seed {s}", functools.partial(
                    sweepcvrp.run_ratio_experiment,
                    dataclasses.replace(inputs.config, seeds=(s,))))
                for s in inputs.config.seeds]

    def combine(self, outputs: list) -> experiments.ExperimentResult:
        """The per-seed results of `units` as the one result of `run`."""
        merged = experiments.ExperimentResult(caveats=list(outputs[0].caveats))
        for out in outputs:
            merged.rows.extend(out.rows)
            merged.best_certified_lb.update(out.best_certified_lb)
        return merged

    def fingerprint(self, output) -> list:
        return [r.to_csv() for r in output.rows] + [output.best_certified_lb]

    def trace(self, inputs: SolverInputs, checks: Checks) -> dict[str, float]:
        start = time.perf_counter()
        plain = checks.run("untraced experiment", self.run, inputs)
        untraced_s = time.perf_counter() - start
        traced, traced_s, stats = traced_call(
            "experiments.run_ratio_experiment", self.run, inputs)
        if plain is not None:
            self.check(inputs, [plain, traced], checks)
        return layer_metrics(stats, 0.0, traced_s / untraced_s - 1.0)

    def check(self, inputs: SolverInputs, outputs: list, checks: Checks) -> dict:
        """Validate the first output, compare every other one with it
        bit for bit, and return the workload's quality numbers."""
        first = outputs[0]
        for other in outputs[1:]:
            checks.identical(self.fingerprint(other), self.fingerprint(first),
                             "rows between runs")
        rstar = sweepcvrp.choose_R(DEPOT)
        tours = []
        certified = 0
        for s, instance in inputs.instances.items():
            rows = {r.algo: r for r in first.rows if r.seed == s}
            if not checks.check(set(rows) == {"sweep", "itp"}, f"seed {s}: rows missing"):
                continue
            sol = checks.run(f"seed {s}: sweep_solve", sweepcvrp.sweep_solve,
                             instance, self.M, sweepcvrp.SolveConfig(seed=s))
            if sol is not None:
                check_solution(checks, instance, sol, self.k, rows["sweep"].cost,
                               f"seed {s} sweep")
                checks.identical(sol.total_cost, rows["sweep"].cost, f"seed {s} sweep cost")
            sol = checks.run(f"seed {s}: itp_solve", sweepcvrp.itp_solve, instance, "auto", s)
            if sol is not None:
                check_solution(checks, instance, sol, self.k, rows["itp"].cost,
                               f"seed {s} itp")
                checks.identical(sol.total_cost, rows["itp"].cost, f"seed {s} itp cost")
            valid_lbs = []
            for label, R in (("r0", 0.0), ("rstar", rstar), ("rinf", math.inf)):
                got = checks.run(f"seed {s}: lower_bound {label}",
                                 sweepcvrp.lower_bound, instance, R, "auto", s)
                if got is None:
                    continue
                value, valid = got
                for row in rows.values():
                    checks.identical(value, getattr(row, f"lb_{label}"),
                                     f"seed {s} {row.algo} lb_{label}")
                if valid:
                    certified += 1
                    valid_lbs.append(value)
                    for row in rows.values():
                        checks.check(value <= row.cost or close(value, row.cost),
                                     f"seed {s}: certified lb_{label} {value!r} > "
                                     f"{row.algo} cost {row.cost!r}")
                if label == "r0":
                    # rad_0 = 0, so lb_r0 = T*_0 - (3 pi / 2) D
                    D = sweepcvrp.diameter([*instance.terminals, instance.depot])
                    tours.append((value + 1.5 * math.pi * D) / math.sqrt(self.n))
                    if self.exact:
                        sw = rows["sweep"]
                        checks.check(valid and (sw.cost <= sw.ub or close(sw.cost, sw.ub)),
                                     f"seed {s}: sweep cost {sw.cost!r} above "
                                     f"certified upper bound {sw.ub!r}")
            checks.identical(first.best_certified_lb.get(s), max(valid_lbs, default=None),
                             f"seed {s} best certified lb")
        if self.exact:
            self._oracle(inputs, checks)
        seeds = len(inputs.instances)
        return {
            "sweep_cost": math.fsum(r.cost for r in first.rows if r.algo == "sweep"),
            "itp_cost": math.fsum(r.cost for r in first.rows if r.algo == "itp"),
            "tour_per_sqrt_n": math.fsum(tours) / len(tours) if tours else math.nan,
            "certified_lb": math.fsum(first.best_certified_lb.values()),
            "certified_frac": certified / (3 * seeds),
        }

    def _oracle(self, inputs: SolverInputs, checks: Checks) -> None:
        """Exact solvers against exhaustive search on three small instances
        drawn from the workload seed, with points made here, not by the package."""
        rng = np.random.default_rng(min(inputs.instances))
        for n in (7, 8, 9):
            U = [Point(float(x), float(y)) for x, y in rng.random((n, 2))]
            exact = checks.run(f"oracle n={n}: cvrp_exact_small",
                               sweepcvrp.cvrp_exact_small, U, DEPOT, 3)
            brute = cvrp_brute_force(U, DEPOT, 3)
            if exact is not None:
                checks.check(close(exact.total_cost, brute),
                             f"oracle n={n}: cvrp {exact.total_cost!r} != brute {brute!r}")
            exact = checks.run(f"oracle n={n}: tsp_exact", sweepcvrp.tsp_exact, U)
            brute = tsp_brute_force(U)
            if exact is not None:
                checks.check(close(exact.length, brute),
                             f"oracle n={n}: tsp {exact.length!r} != brute {brute!r}")

    def quality(self, report: dict) -> tuple[float, float]:
        return report["sweep_cost"], report["itp_cost"]


@dataclass(frozen=True)
class NetWorkload:
    """verify_all over the net at NET_STRIDE, in one process."""

    name: str = "verify_net"
    reference: str = "interval_batch"

    def make_inputs(self, seed: int) -> int:
        # The net is fixed by the theorem, so the seed selects nothing here.
        return NET_STRIDE

    def points(self, stride: int) -> int:
        return netverify.net_size(stride)

    def run(self, stride: int, threads: int = 1):
        return sweepcvrp.verify_all(stride=stride, threads=threads)

    def units(self, stride: int) -> list:
        return [("verify_all", functools.partial(self.run, stride))]

    def combine(self, outputs: list):
        return outputs[0]

    def fingerprint(self, output) -> dict:
        return output.canonical_dict()

    def trace(self, stride: int, checks: Checks) -> dict[str, float]:
        def timed(threads: int):
            start = time.perf_counter()
            cert = checks.run(f"verify_all threads={threads}", self.run, stride, threads)
            return cert, time.perf_counter() - start

        pooled, pooled_s = timed(NET_THREADS)
        serial, serial_s = timed(1)
        # Wrappers cannot follow work into Pool workers, so trace serially.
        traced, traced_s, stats = traced_call(
            "netverify.verify_all", self.run, stride, 1)
        certs = [c for c in (pooled, serial, traced) if c is not None]
        if certs:
            self.check(stride, certs, checks)
        pool_eff = serial_s / (NET_THREADS * pooled_s)  # equal points on both passes
        return layer_metrics(stats, pool_eff, traced_s / serial_s - 1.0)

    def check(self, stride: int, outputs: list, checks: Checks) -> dict:
        first = outputs[0]
        for other in outputs[1:]:
            checks.identical(self.fingerprint(other), self.fingerprint(first),
                             "certificate between runs")
        checks.check(first.passed, "net verification did not pass")
        checks.check(first.points_checked == netverify.net_size(stride),
                     f"{first.points_checked} points checked, net has "
                     f"{netverify.net_size(stride)}")
        checks.check(first.lipschitz_slack_g2 > 0.0 and first.lipschitz_slack_g3 > 0.0,
                     "a Lipschitz slack is not positive")
        return {
            "min_margin_g2": first.min_margin_g2,
            "min_margin_g3": first.min_margin_g3,
        }

    def quality(self, report: dict) -> tuple[float, float]:
        return (netverify.THRESHOLD_G2 / report["min_margin_g2"],
                netverify.THRESHOLD_G3 / report["min_margin_g3"])


# (unit, better) of the quality numbers `check` returns
QUALITY_UNITS = {
    "sweep_cost": ("length", "lower"),
    "itp_cost": ("length", "lower"),
    "tour_per_sqrt_n": ("length", "lower"),
    "certified_lb": ("length", "higher"),
    "certified_frac": ("ratio", "higher"),
    "min_margin_g2": ("value", "higher"),
    "min_margin_g3": ("value", "higher"),
}

WORKLOADS = {
    w.name: w
    for w in (
        SolverWorkload("ratio_n1000", n=1000, k=32, M=2, instances=16, exact=False,
                       reference="dp_and_small_arrays"),
        SolverWorkload("exact_small", n=14, k=6, M=2, instances=20, exact=True,
                       reference="subset_dp"),
        NetWorkload(),
    )
}
