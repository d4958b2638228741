"""Fixed reference loops that measure how fast the host runs right now.

The benchmark shares a few vCPUs with other tenants of its host, whose load
slows the benchmark by up to about 1.6x and shifts within seconds: the same
fixed operation reads 0.4 s in one run and 0.7 s in the next. `HostSpeed`
samples a reference loop between the operations of a run; its mean over the
run tells how fast the host was while the run measured, and `normalised`
rescales a wall time to a host on which the loop takes its typical time.
The mean, not the median: the host flips between a fast and a slow mode
within a second, so a single pass is fast or slow, and the median of such
samples jumps between the modes while an operation's time averages them.

The loops are the benchmark's own code, never the package's, so a change to
the package moves the operation's time and not the reference. The loops
follow the kinds of work the workloads do: a pure-Python subset DP (the exact
solvers), that DP plus a Python loop over small numpy arrays (the heuristic
solvers and 2-opt), whole-array interval arithmetic on one kernel batch of
65,536 points (the net verification), and for set-up, standard-library
imports in a fresh interpreter.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_DP_POINTS = [tuple(p) for p in _RNG.random((13, 2)).tolist()]
_SMALL = _RNG.random((1300, 2))
_BATCH = _RNG.random((4, 65_536)) + 0.5  # one interval-kernel batch


def _subset_dp() -> None:
    """Held-Karp over 13 points in lists of floats, like the exact solvers."""
    pts = _DP_POINTS
    n = len(pts)
    d = [[math.hypot(p[0] - q[0], p[1] - q[1]) for q in pts] for p in pts]
    inf = math.inf
    dp = [[inf] * n for _ in range(1 << n)]
    dp[1][0] = 0.0
    for mask in range(1, 1 << n):
        if not mask & 1:
            continue
        row = dp[mask]
        for j in range(n):
            cj = row[j]
            if cj == inf:
                continue
            dj = d[j]
            for k in range(n):
                if mask >> k & 1:
                    continue
                nxt = dp[mask | 1 << k]
                v = cj + dj[k]
                if v < nxt[k]:
                    nxt[k] = v


def _small_arrays() -> None:
    """A Python loop of vectorised scans over the rest of a tour, like 2-opt."""
    x, y = _SMALL[:, 0], _SMALL[:, 1]
    for i in range(len(x) - 2):
        delta = np.hypot(x[i] - x[i + 2:], y[i] - y[i + 2:]) - np.hypot(
            x[i] - x[i + 1], y[i] - y[i + 1])
        np.nonzero(delta < -0.5)


def _interval_batch() -> None:
    """Outward-rounded interval products and roots on one 65,536-point
    batch, like the interval kernel."""
    a, b, c, d = _BATCH
    for _ in range(12):
        p = (a * c, a * d, b * c, b * d)
        lo = np.minimum(np.minimum(p[0], p[1]), np.minimum(p[2], p[3]))
        hi = np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3]))
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        np.nextafter(np.sqrt(hi - lo + 1.0), np.inf)


# The standard-library imports of `_fresh_imports`, timed inside the child.
_IMPORTS = """
import time
t0 = time.perf_counter()
import argparse, asyncio, decimal, email.mime.text, json, ssl, unittest
import xml.etree.ElementTree
print(time.perf_counter() - t0)
"""


def _fresh_imports() -> float:
    """Seconds a fresh interpreter takes to import a fixed set of standard
    library modules (a few with C extensions), like the set-up probes."""
    out = subprocess.run([sys.executable, "-c", _IMPORTS], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout.split()[-1])


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# Each workload is normalised by the loop most like its own hot path: other
# tenants slow pure-Python code by more than whole-array numpy code, so one
# loop for all over- or under-corrects. The heuristic solvers mix interpreter
# work with short array scans, and on a fixed n = 1000 ratio instance the
# subset DP plus the small-array loop tracked the host best (spread of
# 20-second means 0.03, against 0.04 and 0.05 for either alone). Set-up (imports in a fresh
# interpreter) tracked no in-process loop, so it has its own. The second
# field is the loop's typical seconds on a 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4); it only sets the scale, since runs are compared by ratios.
REFERENCES = {
    "subset_dp": (lambda: _timed(_subset_dp), 0.045),
    "interval_batch": (lambda: _timed(_interval_batch), 0.04),
    "dp_and_small_arrays": (lambda: _timed(_subset_dp) + _timed(_small_arrays), 0.075),
    "fresh_imports": (_fresh_imports, 0.065),
}


def reference(kind: str) -> float:
    """Seconds of one pass of the reference loop `kind`."""
    return REFERENCES[kind][0]()


class HostSpeed:
    """Passes of one reference loop sampled between the operations of a run."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        reference(kind)  # warm-up, not recorded
        self.samples: list[float] = []

    def sample(self, budget_s: float = 0.0) -> None:
        """One reference pass, and more until they took `budget_s` seconds."""
        spent = 0.0
        while not spent or spent < budget_s:
            self.samples.append(reference(self.kind))
            spent += self.samples[-1]

    def normalised(self, wall_s: float) -> float:
        """`wall_s` rescaled to a host on which the loop takes its typical time."""
        return wall_s * REFERENCES[self.kind][1] / statistics.fmean(self.samples)
