"""Poisson flow generation: load calibration, determinism, partitioning."""

import pytest

from repro.sim.rng import RngFactory
from repro.units import GBPS, SEC
from repro.workloads.distributions import CACHE, WEB_SEARCH
from repro.workloads.generator import FlowGenerator


def _gen(seed=1):
    return FlowGenerator(RngFactory(seed))


class TestManyToOne:
    def test_offered_load_close_to_target(self):
        flows = _gen().many_to_one(
            senders=range(1, 9), receiver=0, cdf=WEB_SEARCH,
            load=0.6, link_rate_bps=GBPS, n_flows=2000,
        )
        span = max(f.start_ns for f in flows)
        offered = sum(f.size_bytes for f in flows) * 8 * SEC / span
        assert offered == pytest.approx(0.6 * GBPS, rel=0.15)

    def test_all_target_receiver(self):
        flows = _gen().many_to_one(
            senders=[1, 2, 3], receiver=0, cdf=CACHE,
            load=0.5, link_rate_bps=GBPS, n_flows=100,
        )
        assert all(f.dst == 0 for f in flows)
        assert all(f.src in (1, 2, 3) for f in flows)

    def test_services_evenly_spread(self):
        flows = _gen().many_to_one(
            senders=[1, 2], receiver=0, cdf=CACHE,
            load=0.5, link_rate_bps=GBPS, n_flows=2000, n_services=4,
        )
        counts = [0] * 4
        for f in flows:
            counts[f.service] += 1
        assert min(counts) > 300

    def test_start_times_strictly_increase(self):
        flows = _gen().many_to_one(
            senders=[1], receiver=0, cdf=CACHE,
            load=0.5, link_rate_bps=GBPS, n_flows=500,
        )
        starts = [f.start_ns for f in flows]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)

    def test_deterministic_across_schemes(self):
        """The whole point of seeding: two runs generate identical traffic
        so scheme comparisons are apples-to-apples."""
        a = _gen(5).many_to_one([1, 2], 0, WEB_SEARCH, 0.7, GBPS, 200)
        b = _gen(5).many_to_one([1, 2], 0, WEB_SEARCH, 0.7, GBPS, 200)
        assert [(f.src, f.size_bytes, f.start_ns) for f in a] == [
            (f.src, f.size_bytes, f.start_ns) for f in b
        ]

    def test_load_bounds(self):
        with pytest.raises(ValueError):
            _gen().many_to_one([1], 0, CACHE, 0.0, GBPS, 10)
        with pytest.raises(ValueError):
            _gen().many_to_one([1], 0, CACHE, 1.0, GBPS, 10)


class TestAllToAll:
    def test_no_self_flows(self):
        flows = _gen().all_to_all(
            hosts=range(8), cdfs=[CACHE], load=0.5,
            edge_rate_bps=GBPS, n_flows=500,
        )
        assert all(f.src != f.dst for f in flows)

    def test_service_partition_by_pair(self):
        flows = _gen().all_to_all(
            hosts=range(8), cdfs=[CACHE] * 4, load=0.5,
            edge_rate_bps=GBPS, n_flows=500,
        )
        for f in flows:
            assert f.service == (f.src + f.dst) % 4

    def test_per_host_load_calibrated(self):
        n_hosts = 8
        flows = _gen().all_to_all(
            hosts=range(n_hosts), cdfs=[WEB_SEARCH], load=0.5,
            edge_rate_bps=GBPS, n_flows=3000,
        )
        span = max(f.start_ns for f in flows)
        total = sum(f.size_bytes for f in flows) * 8 * SEC / span
        assert total == pytest.approx(0.5 * GBPS * n_hosts, rel=0.15)

    def test_needs_two_hosts(self):
        with pytest.raises(ValueError):
            _gen().all_to_all([0], [CACHE], 0.5, GBPS, 10)

    def test_flow_ids_count_from_zero(self):
        flows = _gen().all_to_all(
            hosts=range(4), cdfs=[CACHE], load=0.5,
            edge_rate_bps=GBPS, n_flows=50,
        )
        assert [f.id for f in flows] == list(range(50))
