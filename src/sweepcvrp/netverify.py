"""Re-execution of the computer-assisted verification over the depot net.

The claim being certified, for every depot position O:

  g2(O) - (31/48) g1(O) >= 0   and   g3(O) - 31/48 >= 0.

Depots at distance dist >= 3*sqrt(2) from the unit square satisfy both
exactly: g1 <= dist + sqrt(2) (the triangle inequality through the square's
nearest point, and the square's diameter sqrt(2)), so R = (3/4) g1 <= dist,
the R-disk misses the square's interior, g2 = R = (3/4) g1 and g3 = 1 (in
full in verify_far_field). The remaining region reduces by the square's
symmetries to the wedge {1/2 <= a <= b}, which is covered by a 0.002-spaced
grid of 2,814,378 points; each grid point must clear the margins 0.0025
and 0.0096 in interval arithmetic, and the margins minus the worst-case
Lipschitz drift over half a grid cell ((79/48) resp. (3+sqrt 2) times
sqrt(2)/1000) must stay positive, which extends the grid check to the whole
region.

The net is every pair i <= j of the per-axis indices that `_net_indices`
gives (every `stride`-th of 0..GRID_MAX_INDEX); `enumerate_net` lists it
row by row, and `verify_all` scans it in that order, _BATCH_POINTS points a
chunk.

Grid coordinates are produced from integer indices by one multiplication by
0.002 (itself not exactly representable); the resulting double is wrapped in
a degenerate interval, so the representation error (~1e-15) is absorbed by
the Lipschitz slack, consuming well under 2^-40 of the 2e-4 headroom.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Iterator, TextIO

import numpy as np

from .closedform import square_distance
from .geometry import check_coordinates, check_int
from .interval import (
    Interval,
    enclosure,
    v_add,
    v_div,
    v_g_all,
    v_mul,
    v_point,
    v_ratio,
    v_sqrt,
    v_sub,
)

GRID_MAX_INDEX = 2371
GRID_STEP = 0.002
GRID_BASE = 0.5
FAR_FIELD_DISTANCE = 3.0 * math.sqrt(2.0)
THRESHOLD_G2 = 0.0025
THRESHOLD_G3 = 0.0096

_V_31_48 = v_ratio(31, 48)

_PROGRESS_EVERY = 100_000
_BATCH_POINTS = 16384


def grid_coord(index):
    """Net coordinate for an integer grid index (works on arrays)."""
    return GRID_BASE + GRID_STEP * index


def _net_indices(stride: int) -> range:
    """Grid indices of the net on each axis: every `stride`-th (check_int) of
    0..GRID_MAX_INDEX. The net is every pair i <= j of them."""
    return range(0, GRID_MAX_INDEX + 1, check_int(stride, "stride", 1))


def enumerate_net(stride: int = 1) -> Iterator[tuple[float, float]]:
    """Net points (0.5 + 0.002*i, 0.5 + 0.002*j), i <= j, every `stride`-th
    index on both axes. stride=1 yields all 2,814,378 points."""
    idx = _net_indices(stride)
    for p, i in enumerate(idx):
        a = grid_coord(i)
        for j in idx[p:]:
            yield (a, grid_coord(j))


def net_size(stride: int = 1) -> int:
    m = len(_net_indices(stride))
    return m * (m + 1) // 2


@dataclass(frozen=True)
class PointCheck:
    margin2: Interval  # g2 - (31/48) g1
    margin3: Interval  # g3 - 31/48
    passed: bool


def _margins(a, b):
    """Enclosures of g2 - (31/48) g1 and g3 - 31/48 at the depots (a, b),
    float64 arrays of one shape."""
    g1, g2, g3 = v_g_all(v_point(a), v_point(b))
    return v_sub(g2, v_mul(_V_31_48, g1)), v_sub(g3, _V_31_48)


def _clears(m2lo, m3lo, thr2, thr3):
    """The pass rule of a net point, lane-wise: both margin lower ends are
    finite and clear their thresholds. A NaN or infinite end never passes."""
    return np.isfinite(m2lo) & np.isfinite(m3lo) & (m2lo >= thr2) & (m3lo >= thr3)


def verify_point(a: float, b: float) -> PointCheck:
    """Interval margin check at one depot position, by the net scan's pass
    rule against THRESHOLD_G2 and THRESHOLD_G3. A depot that fails
    geometry.check_coordinates raises ValueError; far from the square the
    margins widen until the point fails (see interval.iv_g)."""
    x, y = check_coordinates([(a, b)], "depot").T  # one lane each
    with np.errstate(over="ignore", invalid="ignore"):
        m2, m3 = _margins(x, y)
    passed = bool(_clears(m2[0], m3[0], THRESHOLD_G2, THRESHOLD_G3))
    return PointCheck(margin2=enclosure(m2), margin3=enclosure(m3), passed=passed)


def verify_far_field(a: float, b: float) -> bool:
    """True iff the depot is at distance >= 3*sqrt(2) from the unit square,
    where g2 = (3/4) g1 and g3 = 1 hold exactly and no numeric check is
    needed. A depot that fails geometry.check_coordinates raises ValueError.

    The argument. Let dist be the depot O's distance to the square and p the
    square's point nearest O. Every v in the square is within sqrt(2), the
    square's diameter, of p, so d(O, v) <= dist + sqrt(2) and, averaging,
    g1 <= dist + sqrt(2). Then R = (3/4) g1 <= (3/4)(dist + sqrt(2)), which
    is at most dist once dist >= 3*sqrt(2). The open R-disk around O then
    misses the square, whose every point is at distance >= dist >= R, so
    min{d(O, v), R} = R on the whole square and g2 = R = (3/4) g1; the
    points at distance exactly R lie on a circle, of measure 0, so g3 = 1.
    """
    check_coordinates([(a, b)], "depot")
    return square_distance(a, b) >= FAR_FIELD_DISTANCE


@dataclass(frozen=True)
class NetCertificate:
    points_checked: int
    min_margin_g2: float  # smallest interval lower bound of g2 - (31/48) g1
    min_margin_g3: float
    # grid indices (i, j) of the first point in scan order with that margin
    min_margin_g2_at: tuple[int, int]
    min_margin_g3_at: tuple[int, int]
    threshold_g2: float
    threshold_g3: float
    lipschitz_slack_g2: float  # lower bound of threshold_g2 - (79/48) sqrt(2)/1000
    lipschitz_slack_g3: float  # lower bound of threshold_g3 - (3+sqrt(2)) sqrt(2)/1000
    passed: bool
    stride: int
    runtime_seconds: float
    # the points that failed, as (i, j, a, b, margin2_lo, margin3_lo)
    failures: tuple[tuple[int, int, float, float, float, float], ...] = ()

    def canonical_dict(self) -> dict:
        """The fields in order, `passed` keyed as "pass", without the
        (nondeterministic) runtime, so certificates for the same stride
        compare bit-identical, and without the failing points, which a
        report lists on lines of their own."""
        content = asdict(self)
        del content["runtime_seconds"], content["failures"]
        return {"pass" if k == "passed" else k: v for k, v in content.items()}


def lipschitz_slacks() -> tuple[Interval, Interval]:
    """Rigorous enclosures of the two propagation constants
    THRESHOLD_G2 - (79/48)*sqrt(2)/1000 and
    THRESHOLD_G3 - (3+sqrt(2))*sqrt(2)/1000, read at call time.
    Both must be positive for the grid check to extend to the continuum."""
    sqrt2 = v_sqrt(v_point(np.array([2.0])))
    step = v_div(sqrt2, v_point(1000.0))
    slack2 = v_sub(v_point(THRESHOLD_G2), v_mul(v_ratio(79, 48), step))
    slack3 = v_sub(v_point(THRESHOLD_G3), v_mul(v_add(v_point(3.0), sqrt2), step))
    return enclosure(slack2), enclosure(slack3)


def _margins_batch(i_idx: np.ndarray, j_idx: np.ndarray):
    a = grid_coord(i_idx.astype(np.float64))
    b = grid_coord(j_idx.astype(np.float64))
    m2, m3 = _margins(a, b)
    return a, b, m2[0], m3[0]


def _first_min(values) -> int:
    """Position of the smallest value, the first one on ties; a NaN counts
    as smallest, as ndarray.min keeps it."""
    return int(np.argmin(values))


def _scan_pairs(stride: int, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices (i, j) of the net points at scan positions t0..t1-1.
    Row p of the m = len(idx) indices idx = _net_indices(stride) pairs
    idx[p] with idx[p:] and starts at position p*m - p(p-1)/2."""
    idx = np.array(_net_indices(stride), dtype=np.int64)
    p = np.arange(idx.size)
    starts = p * idx.size - p * (p - 1) // 2
    t = np.arange(t0, t1)
    row = np.searchsorted(starts, t, side="right") - 1
    return idx[row], idx[row + t - starts[row]]


def _scan_rows(args):
    """Verify the net points at scan positions t0..t1-1; returns the point
    count, each margin's minimum as (value, i, j) and any failing points.
    Worker for both the serial and pooled paths."""
    (t0, t1), stride, thr2, thr3 = args
    i_idx, j_idx = _scan_pairs(stride, t0, t1)
    a, b, m2lo, m3lo = _margins_batch(i_idx, j_idx)
    count = int(i_idx.size)
    minima = []
    for m in (m2lo, m3lo):
        k = _first_min(m)
        minima.append((float(m[k]), int(i_idx[k]), int(j_idx[k])))
    ok = _clears(m2lo, m3lo, thr2, thr3)
    failures = [
        (int(i_idx[k]), int(j_idx[k]), float(a[k]), float(b[k]),
         float(m2lo[k]), float(m3lo[k]))
        for k in np.flatnonzero(~ok)
    ]
    return count, tuple(minima), failures


def _net_minima(minima):
    """Each margin's (value, i, j) minimum over the chunks' minima, the
    first in scan order on ties: chunks arrive in scan order whatever the
    thread count, so the point does not depend on it."""
    return tuple(column[_first_min([value for value, _, _ in column])]
                 for column in zip(*minima))


def verify_all(stride: int = 1, threads: int = 1, progress: bool = False) -> NetCertificate:
    """Run the margin check over the whole (stride-sampled) net.

    Passes iff every point clears THRESHOLD_G2 and THRESHOLD_G3 and both
    Lipschitz slack constants, computed from the same thresholds, are
    positive. The scan runs in chunks of _BATCH_POINTS consecutive scan
    positions, the last one shorter, and stops after the first chunk that
    contains a failure; the certificate then carries the failing points in
    `failures`. At stride=1 this is the full 2,814,378-point verification.
    No file is written: `write_report` writes a certificate out.
    """
    stride = _net_indices(stride).step  # the checked int
    points = net_size(stride)
    threads = check_int(threads, "threads", 1)
    thr2, thr3 = THRESHOLD_G2, THRESHOLD_G3
    start = time.perf_counter()

    slack2, slack3 = lipschitz_slacks()
    slacks_ok = slack2.lo > 0.0 and slack3.lo > 0.0

    total = 0
    minima = []  # per chunk, in scan order: ((min2, i, j), (min3, i, j))
    failures: list[tuple[int, int, float, float, float, float]] = []
    next_report = _PROGRESS_EVERY

    tasks = [((t0, min(t0 + _BATCH_POINTS, points)), stride, thr2, thr3)
             for t0 in range(0, points, _BATCH_POINTS)]
    if threads == 1:
        results = map(_scan_rows, tasks)
        pool = None
    else:
        from multiprocessing import Pool  # loaded only when a pool runs

        pool = Pool(processes=min(threads, len(tasks)))  # one worker per chunk at most
        results = pool.imap(_scan_rows, tasks)
    try:
        for count, c_minima, c_failures in results:
            total += count
            minima.append(c_minima)
            failures.extend(c_failures)
            if progress and total >= next_report:
                (min2, *_), (min3, *_) = _net_minima(minima)
                print(
                    f"verify-net: {total}/{points} points, "
                    f"min margins {min2:.6f} {min3:.6f}",
                    file=sys.stderr,
                )
                next_report = (total // _PROGRESS_EVERY + 1) * _PROGRESS_EVERY
            if c_failures:
                break  # fail fast; the certificate carries the evidence
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    (min2, *at2), (min3, *at3) = _net_minima(minima)
    return NetCertificate(
        points_checked=total,
        min_margin_g2=min2,
        min_margin_g3=min3,
        min_margin_g2_at=tuple(at2),
        min_margin_g3_at=tuple(at3),
        threshold_g2=thr2,
        threshold_g3=thr3,
        lipschitz_slack_g2=slack2.lo,
        lipschitz_slack_g3=slack3.lo,
        passed=slacks_ok and not failures and total == points,
        stride=stride,
        runtime_seconds=time.perf_counter() - start,
        failures=tuple(failures),
    )


def platform_facts() -> dict:
    """The numpy build the kernel ran on: its version and the SIMD
    extensions it was built for and found on this CPU."""
    return {"numpy": np.__version__,
            "simd": np.show_config(mode="dicts")["SIMD Extensions"]}


def write_report(cert: NetCertificate, fp: TextIO) -> None:
    """Header line with the certificate fields, the runtime and the
    platform, then one line `i j a b margin2_lo margin3_lo` per failing
    point of `cert.failures`."""
    header = {"format": "netverify-report-v2", **cert.canonical_dict(),
              "runtime_seconds": cert.runtime_seconds,
              "platform": platform_facts()}
    fp.write(json.dumps(header) + "\n")
    for i, j, a, b, m2, m3 in cert.failures:
        fp.write(f"{i} {j} {a!r} {b!r} {m2!r} {m3!r}\n")


def read_report(fp: TextIO) -> tuple[dict, list[tuple[int, int, float, float, float, float]]]:
    header = json.loads(fp.readline())
    failures = []
    for line in fp:
        parts = line.split()
        if not parts:
            continue
        i, j, a, b, m2, m3 = parts
        failures.append((int(i), int(j), float(a), float(b), float(m2), float(m3)))
    return header, failures
