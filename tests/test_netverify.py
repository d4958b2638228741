import json
import math

import numpy as np
import pytest

from sweepcvrp import closedform, netverify
from sweepcvrp.netverify import (
    FAR_FIELD_DISTANCE,
    GRID_BASE,
    GRID_MAX_INDEX,
    GRID_STEP,
    enumerate_net,
    grid_coord,
    lipschitz_slacks,
    net_size,
    read_report,
    square_distance,
    verify_all,
    verify_far_field,
    verify_point,
)


class TestEnumerateNet:
    def test_first_point_is_center(self):
        first = next(enumerate_net(stride=1))
        assert first == (0.5, 0.5)

    def test_a_le_b_everywhere(self):
        for a, b in enumerate_net(stride=250):
            assert a <= b

    def test_extreme_corners_at_full_stride(self):
        pts = list(enumerate_net(stride=2371))
        assert (0.5, 0.5) in pts
        assert (5.242, 5.242) in pts
        assert (0.5, 5.242) in pts
        assert len(pts) == 3

    def test_full_net_size(self):
        assert net_size(1) == 2372 * 2373 // 2 == 2814378

    def test_sizes_match_enumeration(self):
        for stride in (97, 250, 600, 2371):
            assert net_size(stride) == sum(1 for _ in enumerate_net(stride))

    def test_stride_validation(self):
        for stride in (0, -1, -5):
            with pytest.raises(ValueError, match="stride must be >= 1"):
                list(enumerate_net(stride=stride))
            with pytest.raises(ValueError, match="stride must be >= 1"):
                net_size(stride)


class TestNetCoverage:
    """Any depot in the wedge {d < 3 sqrt 2, 1/2 <= a <= b} has a net point
    within sqrt(2)/1000."""

    @staticmethod
    def _nearest_grid_distance(a, b):
        i = min(max(round((a - 0.5) / 0.002), 0), GRID_MAX_INDEX)
        j = min(max(round((b - 0.5) / 0.002), 0), GRID_MAX_INDEX)
        assert i <= j  # rounding is monotone, so the wedge maps into i <= j
        return math.hypot(a - grid_coord(i), b - grid_coord(j))

    def test_extremes(self):
        eps = 1e-9
        corners = [
            (0.5, 0.5),
            (0.5, 1 + 3 * math.sqrt(2) - eps),  # largest b on the left edge
            (4.0 - eps, 4.0 - eps),             # diagonal extreme
            (0.5 + 0.001, 0.5 + 0.001),         # cell center near the origin
        ]
        for a, b in corners:
            assert self._nearest_grid_distance(a, b) <= math.sqrt(2) / 1000 + 1e-12

    def test_random_region_points(self):
        rng = np.random.default_rng(199)
        count = 0
        while count < 500:
            a = rng.uniform(0.5, 5.3)
            b = rng.uniform(a, 5.3)
            if square_distance(a, b) >= FAR_FIELD_DISTANCE:
                continue
            count += 1
            assert self._nearest_grid_distance(a, b) <= math.sqrt(2) / 1000 + 1e-12


class TestVerifyPoint:
    def test_center_margins(self):
        check = verify_point(0.5, 0.5)
        assert check.passed
        assert check.margin2.mid == pytest.approx(0.01511, abs=5e-5)
        assert check.margin3.mid == pytest.approx(0.09549, abs=5e-5)

    def test_inflated_thresholds_fail(self, monkeypatch):
        monkeypatch.setattr(netverify, "THRESHOLD_G2", 0.1)
        monkeypatch.setattr(netverify, "THRESHOLD_G3", 0.2)
        assert not verify_point(0.5, 0.5).passed

    @pytest.mark.parametrize("which", [0, 1])
    def test_infinite_lower_end_fails(self, monkeypatch, which):
        # the net scan fails a point whose margin lower end is +inf, and
        # verify_point follows the same rule
        real = netverify._margins

        def patched(a, b):
            margins = list(real(a, b))
            margins[which] = (np.float64(math.inf), np.float64(math.inf))
            return tuple(margins)

        monkeypatch.setattr(netverify, "_margins", patched)
        check = verify_point(0.5, 0.5)
        assert not check.passed
        assert (check.margin2, check.margin3)[which].lo == math.inf

    def test_matches_batch_lanes_bit_for_bit(self):
        # verify_point and the net scan share one margin formula
        rng = np.random.default_rng(233)
        i_idx = rng.integers(0, GRID_MAX_INDEX + 1, 100)
        j_idx = rng.integers(i_idx, GRID_MAX_INDEX + 1)
        a, b, m2lo, m3lo = netverify._margins_batch(i_idx, j_idx)
        m2, m3 = netverify._margins(a, b)
        np.testing.assert_array_equal(m2lo, m2[0])
        np.testing.assert_array_equal(m3lo, m3[0])
        for k in range(i_idx.size):
            check = verify_point(grid_coord(int(i_idx[k])), grid_coord(int(j_idx[k])))
            assert (check.margin2.lo, check.margin2.hi) == (m2[0][k], m2[1][k])
            assert (check.margin3.lo, check.margin3.hi) == (m3[0][k], m3[1][k])

    def test_spot_agreement_with_closedform(self):
        rng = np.random.default_rng(211)
        ratio = 31.0 / 48.0
        for _ in range(100):
            i = int(rng.integers(0, GRID_MAX_INDEX + 1))
            j = int(rng.integers(i, GRID_MAX_INDEX + 1))
            a, b = grid_coord(i), grid_coord(j)
            check = verify_point(a, b)
            m2 = closedform.g2(a, b) - ratio * closedform.g1(a, b)
            m3 = closedform.g3(a, b) - ratio
            assert abs(check.margin2.mid - m2) <= max(check.margin2.width, 1e-12)
            assert abs(check.margin3.mid - m3) <= max(check.margin3.width, 1e-12)


class TestFarField:
    def test_outside(self):
        assert verify_far_field(10.0, 10.0)

    def test_inside_square(self):
        assert not verify_far_field(0.5, 0.5)

    def test_boundary_exact(self):
        assert verify_far_field(1 + 3 * math.sqrt(2), 0.5)


class TestLipschitzSlacks:
    def test_both_positive_and_tight(self):
        slack2, slack3 = lipschitz_slacks()
        assert slack2.lo > 0.0
        assert slack3.lo > 0.0
        assert slack2.lo == pytest.approx(0.0025 - 79 * math.sqrt(2) / 48000, abs=1e-12)
        assert slack3.lo == pytest.approx(
            0.0096 - (3 + math.sqrt(2)) * math.sqrt(2) / 1000, abs=1e-12
        )


class TestVerifyAll:
    def test_coarse_stride_passes(self):
        cert = verify_all(stride=200)
        assert cert.passed
        assert cert.points_checked == net_size(200)
        assert cert.min_margin_g2 >= cert.threshold_g2
        assert cert.min_margin_g3 >= cert.threshold_g3
        assert cert.lipschitz_slack_g2 > 0
        assert cert.lipschitz_slack_g3 > 0

    def test_impossible_thresholds_fail_fast(self, monkeypatch):
        monkeypatch.setattr(netverify, "_BATCH_POINTS", 50)
        monkeypatch.setattr(netverify, "THRESHOLD_G2", 1.0)
        monkeypatch.setattr(netverify, "THRESHOLD_G3", 1.0)
        for threads in (1, 2):
            cert = verify_all(stride=100, threads=threads)
            assert not cert.passed
            assert cert.threshold_g2 == cert.threshold_g3 == 1.0
            assert cert.points_checked < net_size(100)  # aborted after first bad chunk

    def test_slacks_follow_thresholds(self, monkeypatch):
        # a threshold below the Lipschitz drift leaves a negative slack, so
        # the grid check does not extend to the continuum: no pass
        monkeypatch.setattr(netverify, "THRESHOLD_G2", 0.001)
        cert = verify_all(stride=200)
        assert cert.threshold_g2 == 0.001
        assert cert.lipschitz_slack_g2 < 0.0
        assert cert.min_margin_g2 >= 0.001
        assert not cert.passed

    def test_deterministic_across_runs_and_threads(self):
        a = verify_all(stride=300)
        b = verify_all(stride=300)
        c = verify_all(stride=300, threads=2)
        assert a.canonical_dict() == b.canonical_dict() == c.canonical_dict()

    def test_one_worker_per_chunk_at_most(self, monkeypatch):
        started = []

        class InlinePool:
            """Records the pool size and runs the work in this process."""

            def __init__(self, processes):
                started.append(processes)

            imap = staticmethod(map)

            def terminate(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr(netverify, "Pool", InlinePool)
        cert = verify_all(stride=50, threads=8)  # the net is one chunk
        assert started == [1]
        assert cert.canonical_dict() == verify_all(stride=50).canonical_dict()
        # at stride 5 only the chunk count matters, so the scan is skipped
        monkeypatch.setattr(netverify, "_scan_rows", lambda task: (0, 0.0, 0.0, []))
        verify_all(stride=5, threads=8)
        assert started == [1, len(list(netverify._row_chunks(5)))] == [1, 7]

    def test_report_round_trip(self, tmp_path):
        path = tmp_path / "report.txt"
        cert = verify_all(stride=400, report_path=str(path))
        with open(path, encoding="utf-8") as fp:
            header, failures = read_report(fp)
        assert header["pass"] is True
        assert header["points_checked"] == cert.points_checked
        assert header["min_margin_g2"] == cert.min_margin_g2
        assert failures == []

    def test_failure_report_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(netverify, "THRESHOLD_G2", 1.0)
        monkeypatch.setattr(netverify, "THRESHOLD_G3", 1.0)
        for threads in (1, 2):
            path = tmp_path / f"fail{threads}.txt"
            cert = verify_all(stride=500, threads=threads, report_path=str(path))
            assert not cert.passed
            with open(path, encoding="utf-8") as fp:
                header, failures = read_report(fp)
            assert header["pass"] is False
            assert header["threshold_g2"] == header["threshold_g3"] == 1.0
            assert failures, "failing points must be listed"
            i, j, a, b, m2, m3 = failures[0]
            assert a == grid_coord(i) and b == grid_coord(j)
            assert m2 < 1.0 or m3 < 1.0

    # report header lines at stride 200 without runtime_seconds, recorded
    # with the hand-written canonical_dict
    GOLDEN_HEADER = (
        '{"format": "netverify-report-v1", "points_checked": 78, '
        '"min_margin_g2": 0.008850582128745286, "min_margin_g3": 0.038051045927279474, '
        '"threshold_g2": %s, "threshold_g3": 0.0096, '
        '"lipschitz_slack_g2": %s, "lipschitz_slack_g3": 0.0033573593128807004, '
        '"pass": %s, "stride": 200}'
    )

    def _report_lines(self, tmp_path):
        path = tmp_path / "report.txt"
        cert = verify_all(stride=200, report_path=str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header.pop("runtime_seconds") == cert.runtime_seconds
        return json.dumps(header), lines[1:]

    def test_golden_report_pass(self, tmp_path):
        header, failures = self._report_lines(tmp_path)
        assert header == self.GOLDEN_HEADER % ("0.0025", "0.00017244017859427763", "true")
        assert failures == []

    def test_golden_report_fail(self, tmp_path, monkeypatch):
        monkeypatch.setattr(netverify, "THRESHOLD_G2", 0.01)
        header, failures = self._report_lines(tmp_path)
        assert header == self.GOLDEN_HEADER % ("0.01", "0.007672440178594276", "false")
        assert failures == ["0 200 0.5 0.9 0.008850582128745286 0.038051045927279474"]

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_all(stride=0)
        with pytest.raises(ValueError):
            verify_all(stride=100, threads=0)


class TestScanCoversNet:
    """The certificate's scan visits exactly the points enumerate_net lists,
    in order, once each, in chunks of whole rows."""

    @pytest.mark.parametrize("stride, batch_points", [
        (97, None), (250, None), (2371, None), (97, 50),
    ])
    def test_scan_matches_enumeration(self, monkeypatch, stride, batch_points):
        if batch_points is not None:
            monkeypatch.setattr(netverify, "_BATCH_POINTS", batch_points)
        real = netverify._margins_batch
        chunks = []

        def spy(i_idx, j_idx):
            chunks.append((i_idx.tolist(), j_idx.tolist()))
            return real(i_idx, j_idx)

        monkeypatch.setattr(netverify, "_margins_batch", spy)
        assert verify_all(stride=stride).passed

        scanned = [ij for i_idx, j_idx in chunks for ij in zip(i_idx, j_idx)]
        listed = []
        for a, b in enumerate_net(stride):
            i, j = round((a - GRID_BASE) / GRID_STEP), round((b - GRID_BASE) / GRID_STEP)
            assert (grid_coord(i), grid_coord(j)) == (a, b)
            listed.append((i, j))
        assert scanned == listed
        assert len(set(scanned)) == len(scanned)

        # whole rows: no row index appears in two chunks
        rows = [set(i_idx) for i_idx, _ in chunks]
        assert sum(map(len, rows)) == len(set().union(*rows))
        if batch_points is not None:
            assert len(chunks) > 1


class TestNonFiniteMargins:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_margin_fails(self, monkeypatch, tmp_path, bad):
        real = netverify._margins_batch
        hit = []

        def patched(i_idx, j_idx):
            a, b, m2lo, m3lo = real(i_idx, j_idx)
            if not hit:  # one lane of the first batch
                m2lo = m2lo.copy()
                m2lo[1] = bad
                hit.append((int(i_idx[1]), int(j_idx[1])))
            return a, b, m2lo, m3lo

        monkeypatch.setattr(netverify, "_margins_batch", patched)
        path = tmp_path / "report.txt"
        cert = verify_all(stride=200, report_path=str(path))
        assert not cert.passed
        if math.isnan(bad):
            assert math.isnan(cert.min_margin_g2)
        with open(path, encoding="utf-8") as fp:
            _, failures = read_report(fp)
        assert [(i, j) for i, j, *_ in failures] == hit


class TestStrideFiveNet:
    # Recorded with numpy 2.4 on x86-64. Rounding by np.nextafter gave
    # 0.0025080157707039192 / 0.009656948470191938 (1.9e-15 / 1.3e-15 away),
    # and a doubled 1-ulp offset moves both by about 6e-15, so the tolerance
    # catches rounding that got looser or tighter.
    MIN_G2 = 0.0025080157707019764
    MIN_G3 = 0.009656948470190605

    def test_passes_with_recorded_minima(self):
        cert = verify_all(stride=5)
        assert cert.passed
        assert cert.points_checked == net_size(5) == 113050
        assert abs(cert.min_margin_g2 - self.MIN_G2) <= 1e-15
        assert abs(cert.min_margin_g3 - self.MIN_G3) <= 1e-15


class TestMarginsSampledAcrossNet:
    def test_sampled_net_points_clear_margins(self):
        # every 97th index on both axes: 325 points scattered over the net
        for a, b in enumerate_net(stride=97):
            check = verify_point(a, b)
            assert check.passed, (a, b, check)
