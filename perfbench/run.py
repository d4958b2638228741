"""Benchmark of the sweepcvrp package; the metrics are declared in BENCHMARK.json.

    python3 perfbench/run.py --workload ratio_n1000 --seed 0 --seconds 15 --trace 0

Runs from the root of a source checkout and imports the package from `src/`.
One load-generating process cycles through the workload's operations (one
per instance seed, or the whole net) in a closed loop until `--seconds` have
passed and each ran at least once, then checks every output outside the
timed region. Standard output ends with two JSON lines: a report (platform,
every quality number by name, wall times, failed checks) and the result
object whose `metrics` are the end-to-end metrics (`--trace 0`) or the
per-layer metrics of one untraced and one traced pass (`--trace 1`).

Times are host-normalised (see calibrate.py): a reference loop runs between
operations, and the wall times are rescaled by its mean over the run to a
host of fixed speed, because other tenants of a shared host slow everything
by up to 1.6x within minutes. `run_s` is the sum over the operations of the
mean normalised time of each, i.e. the time of the whole workload call
(`run_ratio_experiment` over all instance seeds, or `verify_all`). It takes
means, not medians, for the reason calibrate.py gives: the host flips between
a fast and a slow mode, and the median of a few operations jumps between
them. `setup_s` is the median of five normalised set-up probes. The report
line gives the same figures in raw wall seconds, and the reference samples.

Every end-to-end metric is reported on every workload, so the quality
numbers are folded into two lower-is-better metrics whose meaning depends on
the workload (the report line carries each quality number by name):

- ratio_n1000, exact_small: quality_main = sweep cost, quality_alt = ITP
  cost, each summed over the operation's instances.
- verify_net: quality_main = 0.0025 / min margin of g2 - (31/48) g1 and
  quality_alt = 0.0096 / min margin of g3 - 31/48; below 1 the proof holds.

`pass_frac` is 1 - failed/attempted over the operations and the checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

SETUP_PROBES = 5
# Set-up is imports in a fresh interpreter, then instance generation.
SETUP_REFERENCE = "fresh_imports"

# Set-up of one workload in a fresh interpreter: import the package, then
# build the workload's inputs. Prints the seconds both took.
_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import sweepcvrp
import workloads
workloads.WORKLOADS[sys.argv[3]].make_inputs(int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def setup_seconds(workload: str, seed: int, speed) -> list[float]:
    """Wall seconds of each set-up probe; `speed` samples the host around them."""
    times = []
    speed.sample()
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(HERE), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
        speed.sample(times[-1])
    return times


def platform_block(loadavg: list[float]) -> dict:
    import numpy as np

    cpu = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "flags") and key not in cpu:
                    cpu[key] = value.strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name", platform.processor()),
        "cpu_flags": cpu.get("flags", "").split(),
        "loadavg_start": loadavg,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


# Share of each operation's time spent on reference passes after it.
REF_SHARE = 0.1


def timed_ops(units, seconds: float, checks, speed) -> tuple[list, list] | None:
    """Cycle through the operations until `seconds` passed and each ran once.

    Returns the wall seconds and the outputs of each operation's runs, or
    None when an operation raised."""
    times = [[] for _ in units]
    outputs = [[] for _ in units]
    speed.sample()
    start = time.perf_counter()
    i = 0
    while i < len(units) or time.perf_counter() - start < seconds:
        label, fn = units[i % len(units)]
        t0 = time.perf_counter()
        out = checks.run(label, fn)
        elapsed = time.perf_counter() - t0
        if out is None:
            return None
        times[i % len(units)].append(elapsed)
        outputs[i % len(units)].append(out)
        speed.sample(REF_SHARE * elapsed)
        i += 1
    return times, outputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    loadavg = list(os.getloadavg())
    sys.path[:0] = [str(SRC), str(HERE)]
    import sweepcvrp

    if not Path(sweepcvrp.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"sweepcvrp imported from {sweepcvrp.__file__}, not {SRC}")
    from calibrate import HostSpeed
    from checks import Checks
    from workloads import QUALITY_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    info = platform_block(loadavg)
    checks = Checks()
    setup_speed = HostSpeed(SETUP_REFERENCE)
    setup = setup_seconds(workload.name, args.seed, setup_speed)
    inputs = workload.make_inputs(args.seed)

    report = {"workload": workload.name, "seed": args.seed, "platform": info,
              "setup_wall_s_samples": setup, "setup_ref_s_samples": setup_speed.samples}
    if args.trace:
        metrics = workload.trace(inputs, checks)
        declared = spec["per_layer"]
    else:
        speed = HostSpeed(workload.reference)
        timed = timed_ops(workload.units(inputs), args.seconds, checks, speed)
        if timed is None:
            print("\n".join(checks.failures), file=sys.stderr)
            return 1
        times, outputs = timed
        for runs in outputs:
            for other in runs[1:]:
                checks.identical(workload.fingerprint(other),
                                 workload.fingerprint(runs[0]), "output between runs")
        quality = workload.check(
            inputs, [workload.combine([runs[0] for runs in outputs])], checks)
        run_wall_s = math.fsum(statistics.fmean(t) for t in times)
        run_s = speed.normalised(run_wall_s)
        fail_frac = checks.failed / checks.attempted
        main_q, alt_q = workload.quality(quality)
        metrics = {
            "setup_s": setup_speed.normalised(statistics.median(setup)),
            "run_s": run_s,
            "points_per_s": workload.points(inputs) / run_s,
            "peak_rss_mb": peak_rss_mb(),
            "pass_frac": 1.0 - fail_frac,
            "quality_main": main_q,
            "quality_alt": alt_q,
        }
        declared = spec["end_to_end"]
        named = {m["name"]: (metrics[m["name"]], m["unit"], m["better"]) for m in declared
                 if m["name"] in ("setup_s", "run_s", "points_per_s", "peak_rss_mb")}
        named["fail_frac"] = (fail_frac, "ratio", "lower")
        named.update((k, (v, *QUALITY_UNITS[k])) for k, v in quality.items())
        report["metrics"] = {k: {"value": v, "unit": u, "better": b}
                             for k, (v, u, b) in named.items()}
        report["metrics"]["run_s"]["samples"] = sum(map(len, times))
        report["run_wall_s"] = run_wall_s
        report["op_wall_s_samples"] = times
        report["ref_s_samples"] = speed.samples

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                         "declared in BENCHMARK.json, or declared but not measured")
    report["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "failures": checks.failures[:10]}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
