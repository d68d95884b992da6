"""FCT statistics and time-series metrics."""

import pytest

from repro.metrics.fct import (
    FctCollector,
    SMALL_MAX_BYTES,
    LARGE_MIN_BYTES,
    percentile,
)
from repro.metrics.timeseries import GoodputTracker, OccupancySampler
from repro.sim.engine import Simulator
from repro.transport.flow import Flow
from repro.units import GBPS, KB, MB, SEC
from tests.helpers import data_pkt, make_port


def _flow(fid, size, fct):
    f = Flow(fid, 0, 1, size)
    f.fct_ns = fct
    f.completed = True
    return f


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 99) == 99
        assert percentile(values, 50) == 50
        assert percentile(values, 100) == 100
        assert percentile(values, 0) == 1

    def test_fractional_p_takes_the_ceiling_of_the_exact_rank(self):
        # rank = ceil(40.1% of 5) = ceil(2.005) = 3, not ceil(200 / 100)
        assert percentile([1, 2, 3, 4, 5], 40.1) == 3
        assert percentile(list(range(1, 1001)), 99.9) == 999

    def test_single_value(self):
        assert percentile([7], 99) == 7

    def test_unsorted_input(self):
        assert percentile([3, 1, 2], 100) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestFctCollector:
    def test_bins_match_paper(self):
        assert SMALL_MAX_BYTES == 100 * KB
        assert LARGE_MIN_BYTES == 10 * MB

    def test_summary_bins(self):
        c = FctCollector()
        c.on_complete(_flow(1, 50 * KB, 1000))      # small
        c.on_complete(_flow(2, 100 * KB, 3000))     # small (inclusive)
        c.on_complete(_flow(3, 1 * MB, 9000))       # medium
        c.on_complete(_flow(4, 20 * MB, 100_000))   # large
        s = c.summarize()
        assert s.n_small == 2 and s.n_medium == 1 and s.n_large == 1
        assert s.avg_small_ns == 2000
        assert s.avg_large_ns == 100_000
        assert s.avg_all_ns == pytest.approx((1000 + 3000 + 9000 + 100_000) / 4)

    def test_p99_small(self):
        c = FctCollector()
        for i in range(100):
            c.on_complete(_flow(i, 10 * KB, (i + 1) * 100))
        assert c.summarize().p99_small_ns == 9900

    def test_empty_bins_are_none(self):
        c = FctCollector()
        c.on_complete(_flow(1, 1 * MB, 5000))
        s = c.summarize()
        assert s.avg_small_ns is None and s.avg_large_ns is None
        assert s.avg_medium_ns == 5000

    def test_empty_collector_summarizes_to_none(self):
        s = FctCollector().summarize()
        assert (s.n_flows, s.n_small, s.n_medium, s.n_large) == (0, 0, 0, 0)
        assert s.avg_all_ns is None and s.avg_small_ns is None
        assert s.p99_small_ns is None and s.avg_large_ns is None


class TestGoodputTracker:
    def test_windowed_rate(self):
        t = GoodputTracker()
        # 1250 bytes every 10 us for 1 ms = 1 Gbps
        for i in range(100):
            t.record(0, 1250, (i + 1) * 10_000)
        assert t.goodput_bps(0, 0, 1_000_000) == pytest.approx(1 * GBPS)

    def test_window_excludes_outside(self):
        t = GoodputTracker()
        t.record(0, 1000, 100)
        t.record(0, 1000, 2000)
        assert t.goodput_bps(0, 500, 2500) == pytest.approx(1000 * 8 * SEC / 2000)

    def test_keys_and_totals(self):
        t = GoodputTracker()
        t.record(3, 500, 10)
        t.record(3, 700, 20)
        assert t.goodput_bps(3, 0, 20) == pytest.approx(1200 * 8 * SEC / 20)
        assert t.goodput_bps(4, 0, 20) == 0  # keys do not share bytes

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            GoodputTracker().goodput_bps(0, 10, 10)


class TestOccupancySampler:
    def test_tracks_every_occupancy_change(self):
        sim = Simulator()
        port = make_port(sim)
        sampler = OccupancySampler(port)
        for i in range(3):
            port.receive(data_pkt(seq=i))
        sim.run()
        assert sampler.peak_bytes == 2 * 1500  # one always in flight

    def test_windows(self):
        port = make_port(Simulator())
        sampler = OccupancySampler(port)
        for t, occ in [(0, 10), (100, 30), (200, 20)]:
            port.occupancy_tracker(t, occ)
        assert sampler.max_in_window(50, 250) == 30
        assert sampler.mean_in_window(50, 250) == 25.0
        assert sampler.max_in_window(300, 400) == 0


class TestBisectQueriesMatchLinearScan:
    """The O(log n) query paths must agree with the obvious O(n) scans."""

    def _goodput_events(self):
        # deliberately includes duplicate timestamps and zero-size events
        import random

        rng = random.Random(7)
        t = 0
        events = []
        for _ in range(500):
            t += rng.choice([0, 1, 5, 40])
            events.append((t, rng.choice([0, 100, 1250, 9000])))
        return events

    def test_goodput_windows(self):
        events = self._goodput_events()
        tracker = GoodputTracker()
        for t, b in events:
            tracker.record(0, b, t)
        t_max = events[-1][0]
        for t_from, t_to in [(0, t_max), (100, 900), (t_max, t_max + 10),
                             (-5, 3), (37, 38)]:
            linear = sum(b for t, b in events if t_from < t <= t_to)
            expected = linear * 8 * SEC / (t_to - t_from)
            assert tracker.goodput_bps(0, t_from, t_to) == pytest.approx(
                expected
            ), (t_from, t_to)

    def test_occupancy_windows(self):
        import random

        rng = random.Random(11)
        samples, t = [], 0
        for _ in range(300):
            t += rng.choice([0, 2, 17])
            samples.append((t, rng.randrange(0, 5000)))
        port = make_port(Simulator())
        sampler = OccupancySampler(port)
        for t, occ in samples:
            port.occupancy_tracker(t, occ)
        assert sampler.peak_bytes == max(occ for _, occ in samples)
        t_max = samples[-1][0]
        for t_from, t_to in [(0, t_max), (50, 500), (t_max + 1, t_max + 9),
                             (13, 13)]:
            window = [occ for t, occ in samples if t_from <= t <= t_to]
            assert sampler.max_in_window(t_from, t_to) == (
                max(window) if window else 0
            ), (t_from, t_to)
            expected_mean = sum(window) / len(window) if window else 0.0
            assert sampler.mean_in_window(t_from, t_to) == pytest.approx(
                expected_mean
            ), (t_from, t_to)
