"""Harness internals: connection pool, warm starts, workload clipping."""

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.runner import ConnectionPool, run_experiment
from repro.units import GBPS, KB, MB


class TestConnectionPool:
    def test_round_robin_over_connections(self):
        pool = ConnectionPool(per_pair=3, max_cwnd=64)
        keys = [pool.checkout(1, 0)[0] for _ in range(6)]
        assert keys == [(1, 0, 0), (1, 0, 1), (1, 0, 2)] * 2

    def test_cold_connection_has_no_hint(self):
        pool = ConnectionPool(per_pair=2, max_cwnd=64)
        _, warm = pool.checkout(1, 0)
        assert warm is None

    def test_warm_cwnd_returned_on_reuse(self):
        pool = ConnectionPool(per_pair=1, max_cwnd=64)
        key, _ = pool.checkout(1, 0)
        pool.release(key, 23.5)
        _, warm = pool.checkout(1, 0)
        assert warm == 23.5

    def test_warm_cwnd_capped(self):
        pool = ConnectionPool(per_pair=1, max_cwnd=32)
        key, _ = pool.checkout(1, 0)
        pool.release(key, 500.0)
        _, warm = pool.checkout(1, 0)
        assert warm == 32.0

    def test_pairs_are_independent(self):
        pool = ConnectionPool(per_pair=1, max_cwnd=64)
        key, _ = pool.checkout(1, 0)
        pool.release(key, 40.0)
        _, warm_other = pool.checkout(2, 0)
        assert warm_other is None


class TestPersistentConnectionsEndToEnd:
    def _cfg(self, persistent):
        # 40 flows over 8 host pairs and 5 connections per pair: a pair's
        # sixth flow starts on a warm connection (6 of the 40 do)
        return ExperimentConfig(
            scheme="tcn", scheduler="dwrr", workload="websearch",
            load=0.6, n_flows=40, seed=5,
            persistent_connections=persistent,
        )

    def test_runs_complete_both_ways(self):
        for persistent in (False, True):
            res = run_experiment(self._cfg(persistent))
            assert res.all_completed

    def test_warm_start_changes_dynamics(self):
        cold = run_experiment(self._cfg(False))
        warm = run_experiment(self._cfg(True))
        # identical workload, different window evolution
        assert cold.summary.avg_all_ns != warm.summary.avg_all_ns


class TestWorkloadClip:
    def test_clip_bounds_sizes(self):
        cfg = ExperimentConfig(
            scheme="tcn", scheduler="dwrr", workload="websearch",
            load=0.6, n_flows=60, seed=2, workload_clip_bytes=1 * MB,
        )
        res = run_experiment(cfg)
        assert max(f.size_bytes for f in res.flows) <= 1 * MB

    def test_clip_preserves_small_flows(self):
        from repro.workloads.distributions import WEB_SEARCH

        clipped = WEB_SEARCH.truncated(1 * MB)
        assert clipped.fraction_below(100 * KB) == pytest.approx(
            WEB_SEARCH.fraction_below(100 * KB), rel=0.01
        )

    def test_clip_validation(self):
        from repro.workloads.distributions import WEB_SEARCH

        with pytest.raises(ValueError):
            WEB_SEARCH.truncated(100)  # below the smallest knot


class TestBdpBoundedWindow:
    def test_max_cwnd_scales_with_bdp(self):
        """A 10G config allows a much larger window than a 1G config."""
        from repro.harness.runner import _build_flows, _wire_endpoints
        from repro.harness.schemes import resolve
        from repro.metrics.fct import FctCollector
        from repro.sim.engine import Simulator
        from repro.sim.rng import RngFactory

        windows = {}
        for rate in (GBPS, 10 * GBPS):
            cfg = ExperimentConfig(
                scheme="tcn", scheduler="dwrr", workload="cache",
                load=0.5, n_flows=3, seed=1, link_rate_bps=rate,
            )
            cfg.validate()
            parts = resolve(cfg)
            sim = Simulator()
            topo = parts.topology(sim)
            flows = _build_flows(cfg, RngFactory(1), topo)
            senders = _wire_endpoints(
                sim, cfg, topo, flows, FctCollector(), None, parts.sender
            )
            windows[rate] = senders[0].max_cwnd
        assert windows[10 * GBPS] > windows[GBPS]
        assert windows[GBPS] >= 64.0
