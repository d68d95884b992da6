"""IdealRed: Equation 2 driven by Algorithm 1, PIE's departure-rate meter."""

import pytest

from repro.aqm.ideal import IdealRed
from repro.sched.base import make_queues
from repro.sched.dwrr import DwrrScheduler
from repro.sim.engine import Simulator
from repro.units import GBPS, KB, USEC
from tests.helpers import data_pkt, fill, make_port


def _ideal_port(rate=10 * GBPS, rtt=100 * USEC, dq=10 * KB):
    sim = Simulator()
    sched = DwrrScheduler(make_queues(2, quanta=[1500, 1500]))
    aqm = IdealRed(rtt, dq_thresh_bytes=dq)
    port = make_port(sim, scheduler=sched, aqm=aqm, rate_bps=rate)
    return sim, port, sched, aqm


class TestIdealRed:
    def test_threshold_starts_at_standard(self):
        sim, port, sched, aqm = _ideal_port()
        assert aqm.threshold_bytes(sched.queues[0]) == pytest.approx(125_000)

    def test_threshold_follows_measured_rate(self):
        sim, port, sched, aqm = _ideal_port()
        q0 = sched.queues[0]
        meter = aqm.meter_for(q0)
        meter._absorb(5 * GBPS, 0)
        assert aqm.threshold_bytes(q0) == pytest.approx(62_500, rel=0.01)

    def test_rate_capped_at_line(self):
        sim, port, sched, aqm = _ideal_port()
        q0 = sched.queues[0]
        aqm.meter_for(q0)._absorb(50 * GBPS, 0)
        assert aqm.threshold_bytes(q0) == pytest.approx(125_000, rel=0.01)

    def test_marks_against_dynamic_threshold(self):
        sim, port, sched, aqm = _ideal_port()
        q0 = sched.queues[0]
        aqm.meter_for(q0)._absorb(GBPS, 0)  # K_0 = 12.5 KB
        fill(sched, 0, 10)  # 15 KB
        assert aqm.on_enqueue(port, q0, data_pkt(), 0) is True

    def test_dequeues_feed_the_meter(self):
        sim, port, sched, aqm = _ideal_port()
        q0 = sched.queues[0]
        for i in range(60):
            port.receive(data_pkt(seq=i, dscp=0))
        sim.run()
        assert aqm.meter_for(q0).sample_count > 0
        # one backlogged queue drains at the full line rate (samples carry
        # the Algorithm 1 opening-departure bias of ~7/6)
        assert aqm.meter_for(q0).avg_rate == pytest.approx(
            10 * GBPS * 7 / 6, rel=0.1
        )

    def test_per_queue_meters_isolated(self):
        sim, port, sched, aqm = _ideal_port()
        assert aqm.meter_for(sched.queues[0]) is not aqm.meter_for(sched.queues[1])
