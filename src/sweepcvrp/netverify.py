"""Re-execution of the computer-assisted verification over the depot net.

The claim being certified, for every depot position O:

  g2(O) - (31/48) g1(O) >= 0   and   g3(O) - 31/48 >= 0.

Depots at distance >= 3*sqrt(2) from the unit square satisfy both exactly
(there g2 = (3/4) g1 and g3 = 1). The remaining region reduces by the
square's symmetries to the wedge {1/2 <= a <= b}, which is covered by a
0.002-spaced grid of 2,814,378 points; each grid point must clear the
margins 0.0025 and 0.0096 in interval arithmetic, and the margins minus the
worst-case Lipschitz drift over half a grid cell ((79/48) resp. (3+sqrt 2)
times sqrt(2)/1000) must stay positive, which extends the grid check to the
whole region.

The net is every pair i <= j of the per-axis indices that `_net_indices`
gives (every `stride`-th of 0..GRID_MAX_INDEX); `enumerate_net` lists it and
`verify_all` scans it in chunks of whole rows.

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
from multiprocessing import Pool
from typing import Iterator, Sequence, TextIO

import numpy as np

from .closedform import square_distance
from .interval import (
    Interval,
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
    """Grid indices of the net on each axis: every `stride`-th of
    0..GRID_MAX_INDEX. The net is every pair i <= j of them."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return range(0, GRID_MAX_INDEX + 1, stride)


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
    binary64 scalars or arrays."""
    g1, g2, g3 = v_g_all(v_point(a), v_point(b))
    return v_sub(g2, v_mul(_V_31_48, g1)), v_sub(g3, _V_31_48)


def _clears(m2lo, m3lo, thr2, thr3):
    """The pass rule of a net point, lane-wise: both margin lower ends are
    finite and clear their thresholds. A NaN or infinite end never passes."""
    return np.isfinite(m2lo) & np.isfinite(m3lo) & (m2lo >= thr2) & (m3lo >= thr3)


def verify_point(a: float, b: float) -> PointCheck:
    """Interval margin check at one depot position, by the net scan's pass
    rule against THRESHOLD_G2 and THRESHOLD_G3."""
    m2, m3 = _margins(np.float64(a), np.float64(b))
    margin2 = Interval(float(m2[0]), float(m2[1]))
    margin3 = Interval(float(m3[0]), float(m3[1]))
    passed = bool(_clears(m2[0], m3[0], THRESHOLD_G2, THRESHOLD_G3))
    return PointCheck(margin2=margin2, margin3=margin3, passed=passed)


def verify_far_field(a: float, b: float) -> bool:
    """True iff the depot is at distance >= 3*sqrt(2) from the unit square,
    where g2 = (3/4) g1 and g3 = 1 hold exactly and no numeric check is
    needed."""
    return square_distance(a, b) >= FAR_FIELD_DISTANCE


@dataclass(frozen=True)
class NetCertificate:
    points_checked: int
    min_margin_g2: float  # smallest interval lower bound of g2 - (31/48) g1
    min_margin_g3: float
    threshold_g2: float
    threshold_g3: float
    lipschitz_slack_g2: float  # lower bound of threshold_g2 - (79/48) sqrt(2)/1000
    lipschitz_slack_g3: float  # lower bound of threshold_g3 - (3+sqrt(2)) sqrt(2)/1000
    passed: bool
    stride: int
    runtime_seconds: float

    def canonical_dict(self) -> dict:
        """The fields in order, `passed` keyed as "pass", without the
        (nondeterministic) runtime, so certificates for the same stride
        compare bit-identical."""
        content = asdict(self)
        del content["runtime_seconds"]
        return {"pass" if k == "passed" else k: v for k, v in content.items()}


def lipschitz_slacks() -> tuple[Interval, Interval]:
    """Rigorous enclosures of the two propagation constants
    THRESHOLD_G2 - (79/48)*sqrt(2)/1000 and
    THRESHOLD_G3 - (3+sqrt(2))*sqrt(2)/1000, read at call time.
    Both must be positive for the grid check to extend to the continuum."""
    sqrt2 = v_sqrt(v_point(2.0))
    step = v_div(sqrt2, v_point(1000.0))
    slack2 = v_sub(v_point(THRESHOLD_G2), v_mul(v_ratio(79, 48), step))
    slack3 = v_sub(v_point(THRESHOLD_G3), v_mul(v_add(v_point(3.0), sqrt2), step))
    return (Interval(float(slack2[0]), float(slack2[1])),
            Interval(float(slack3[0]), float(slack3[1])))


def _margins_batch(i_idx: np.ndarray, j_idx: np.ndarray):
    a = grid_coord(i_idx.astype(np.float64))
    b = grid_coord(j_idx.astype(np.float64))
    m2, m3 = _margins(a, b)
    return a, b, m2[0], m3[0]


def _scan_rows(args):
    """Verify all net points of the rows at positions p0..p1-1 of
    _net_indices(stride); returns aggregate minima and any failing points.
    Worker for both the serial and pooled paths."""
    (p0, p1), stride, thr2, thr3 = args
    idx = np.array(_net_indices(stride), dtype=np.int64)
    # row p pairs idx[p] with idx[p:]
    i_idx = np.repeat(idx[p0:p1], idx.size - np.arange(p0, p1))
    j_idx = np.concatenate([idx[p:] for p in range(p0, p1)])
    a, b, m2lo, m3lo = _margins_batch(i_idx, j_idx)
    count = int(i_idx.size)
    min2 = float(m2lo.min())  # ndarray.min keeps a NaN
    min3 = float(m3lo.min())
    ok = _clears(m2lo, m3lo, thr2, thr3)
    failures = [
        (int(i_idx[k]), int(j_idx[k]), float(a[k]), float(b[k]),
         float(m2lo[k]), float(m3lo[k]))
        for k in np.flatnonzero(~ok)
    ]
    return count, min2, min3, failures


def _row_chunks(stride: int) -> Iterator[tuple[int, int]]:
    """Runs (p0, p1) of row positions in _net_indices(stride); a run closes
    once its rows hold at least _BATCH_POINTS points."""
    m = len(_net_indices(stride))
    p0 = size = 0
    for p in range(m):
        size += m - p  # row p pairs position p with positions p..m-1
        if size >= _BATCH_POINTS:
            yield p0, p + 1
            p0, size = p + 1, 0
    if p0 < m:
        yield p0, m


def verify_all(
    stride: int = 1,
    threads: int = 1,
    report_path: str | None = None,
    progress: bool = False,
) -> NetCertificate:
    """Run the margin check over the whole (stride-sampled) net.

    Passes iff every point clears THRESHOLD_G2 and THRESHOLD_G3 and both
    Lipschitz slack constants, computed from the same thresholds, are
    positive. Scanning stops at the first chunk containing a failure; the
    certificate then carries the failing points. At stride=1 this is the
    full 2,814,378-point verification.
    """
    points = net_size(stride)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    thr2, thr3 = THRESHOLD_G2, THRESHOLD_G3
    start = time.perf_counter()

    slack2, slack3 = lipschitz_slacks()
    slacks_ok = slack2.lo > 0.0 and slack3.lo > 0.0

    total = 0
    min2 = math.inf
    min3 = math.inf
    failures: list[tuple[int, int, float, float, float, float]] = []
    next_report = _PROGRESS_EVERY

    tasks = [(run, stride, thr2, thr3) for run in _row_chunks(stride)]
    if threads == 1:
        results = map(_scan_rows, tasks)
        pool = None
    else:
        pool = Pool(processes=min(threads, len(tasks)))  # one worker per chunk at most
        results = pool.imap(_scan_rows, tasks)
    try:
        for count, c_min2, c_min3, c_failures in results:
            total += count
            min2 = float(np.minimum(min2, c_min2))  # keeps a NaN
            min3 = float(np.minimum(min3, c_min3))
            failures.extend(c_failures)
            if progress and total >= next_report:
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

    passed = slacks_ok and not failures and total == points
    cert = NetCertificate(
        points_checked=total,
        min_margin_g2=min2,
        min_margin_g3=min3,
        threshold_g2=thr2,
        threshold_g3=thr3,
        lipschitz_slack_g2=slack2.lo,
        lipschitz_slack_g3=slack3.lo,
        passed=passed,
        stride=stride,
        runtime_seconds=time.perf_counter() - start,
    )
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as fp:
            write_report(cert, failures, fp)
    return cert


def write_report(
    cert: NetCertificate,
    failures: Sequence[tuple[int, int, float, float, float, float]],
    fp: TextIO,
) -> None:
    """Header line with the certificate fields, then one line
    `i j a b margin2_lo margin3_lo` per failing point."""
    header = {"format": "netverify-report-v1", **cert.canonical_dict(),
              "runtime_seconds": cert.runtime_seconds}
    fp.write(json.dumps(header) + "\n")
    for i, j, a, b, m2, m3 in failures:
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
