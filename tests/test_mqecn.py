"""MQ-ECN: round-time capacity estimation and its round-robin-only scope."""

from functools import partial

import pytest

from repro.aqm.mqecn import MqEcn
from repro.sched.base import make_queues
from repro.sched.dwrr import DwrrScheduler
from repro.sched.wfq import WfqScheduler
from repro.sched.pifo import PifoScheduler
from repro.sim.engine import Simulator
from repro.units import GBPS, SEC, USEC
from tests.helpers import data_pkt, fill, make_port


def _mqecn_port(n_queues=2, rate=10 * GBPS, rtt=100 * USEC, quantum=18_000):
    sim = Simulator()
    sched = DwrrScheduler(make_queues(n_queues, quanta=[quantum] * n_queues))
    aqm = MqEcn(rtt)
    port = make_port(sim, scheduler=sched, aqm=aqm, rate_bps=rate)
    return sim, port, sched, aqm


class TestSchedulerCompatibility:
    @pytest.mark.parametrize("make_sched", [
        WfqScheduler,
        partial(WfqScheduler, n_high=2),  # strict priority
        PifoScheduler,
    ], ids=["WfqScheduler", "sp", "PifoScheduler"])
    def test_rejects_non_round_robin(self, make_sched):
        sim = Simulator()
        sched = make_sched(make_queues(2))
        with pytest.raises(ValueError, match="round-robin"):
            make_port(sim, scheduler=sched, aqm=MqEcn(100 * USEC))

    def test_accepts_dwrr(self):
        _mqecn_port()  # must not raise


class TestCapacityEstimate:
    def test_defaults_to_line_rate(self):
        sim, port, sched, aqm = _mqecn_port()
        assert aqm.rate_estimate_bps(sched.queues[0]) == 10 * GBPS

    def test_round_time_drives_estimate(self):
        """quantum 18 KB served once per 28.8 us -> 5 Gbps."""
        sim, port, sched, aqm = _mqecn_port()
        q0 = sched.queues[0]
        round_ns = 18_000 * 8 * SEC // (5 * GBPS)
        for i in range(20):
            aqm._on_round(q0, round_ns, i * round_ns)
        assert aqm.rate_estimate_bps(q0) == pytest.approx(5 * GBPS, rel=0.01)

    def test_estimate_capped_at_line_rate(self):
        sim, port, sched, aqm = _mqecn_port()
        q0 = sched.queues[0]
        aqm._on_round(q0, 1, 0)  # absurdly fast round
        assert aqm.rate_estimate_bps(q0) == 10 * GBPS

    def test_beta_weighting_converges_fast(self):
        """beta = 0.75 on fresh samples: ~5 rounds to within 5% (the fast
        convergence of Fig. 2c)."""
        sim, port, sched, aqm = _mqecn_port()
        q0 = sched.queues[0]
        aqm._on_round(q0, 14_400, 0)  # 10 Gbps round (18KB/14.4us)
        target = 28_800  # 5 Gbps round
        n = 0
        while abs(aqm.rate_estimate_bps(q0) - 5 * GBPS) / (5 * GBPS) > 0.05:
            n += 1
            aqm._on_round(q0, target, n * target)
        assert n <= 6


class TestThreshold:
    def test_threshold_is_rate_times_rtt(self):
        sim, port, sched, aqm = _mqecn_port()
        q0 = sched.queues[0]
        round_ns = 18_000 * 8 * SEC // (5 * GBPS)
        for i in range(30):
            aqm._on_round(q0, round_ns, i * round_ns)
        # 5 Gbps x 100 us = 62.5 KB
        assert aqm.threshold_bytes(q0) == pytest.approx(62_500, rel=0.02)

    def test_threshold_capped_at_standard(self):
        sim, port, sched, aqm = _mqecn_port()
        q0 = sched.queues[0]
        # K_std = 10 Gbps x 100 us = 125 KB
        assert aqm.threshold_bytes(q0) == pytest.approx(125_000, rel=0.01)

    def test_marking_uses_dynamic_threshold(self):
        sim, port, sched, aqm = _mqecn_port()
        q0 = sched.queues[0]
        round_ns = 18_000 * 8 * SEC // (5 * GBPS)
        for i in range(30):
            aqm._on_round(q0, round_ns, i * round_ns)
        fill(sched, 0, 50)  # 75 KB > 62.5 KB dynamic threshold
        assert aqm.on_enqueue(port, q0, data_pkt(), 10**9) is True

    def test_idle_reset_restores_standard_threshold(self):
        sim, port, sched, aqm = _mqecn_port()
        q0 = sched.queues[0]
        round_ns = 18_000 * 8 * SEC // (2 * GBPS)  # low-rate history
        for i in range(30):
            aqm._on_round(q0, round_ns, i * round_ns)
        last = 30 * round_ns
        aqm.on_dequeue(port, q0, data_pkt(), last)
        # queue empty, then idle far longer than T_idle
        much_later = last + 10_000_000
        aqm.on_enqueue(port, q0, data_pkt(), much_later)
        assert aqm.rate_estimate_bps(q0) == 10 * GBPS

    def test_validation(self):
        with pytest.raises(ValueError):
            MqEcn(100 * USEC, beta=0.0)


class TestEndToEnd:
    def test_busy_queues_converge_to_shares(self):
        """Drive a real port: two backlogged queues at 10G, MQ-ECN's
        estimates approach 5 Gbps each."""
        sim, port, sched, aqm = _mqecn_port()
        for i in range(400):
            port.receive(data_pkt(flow_id=1, seq=i, dscp=0))
            port.receive(data_pkt(flow_id=2, seq=i, dscp=1))
        sim.run()
        # after the drain both saw many rounds at equal shares
        for q in sched.queues:
            # estimates were live while busy; final smoothed round times
            # correspond to ~5 Gbps service each
            rate = aqm.rate_estimate_bps(q)
            assert rate == pytest.approx(5 * GBPS, rel=0.25)
