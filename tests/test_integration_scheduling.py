"""End-to-end scheduling-policy preservation — the paper's core claims.

* Fig. 1: per-port ECN/RED lets a many-flow service steal bandwidth from a
  single-flow service under DWRR; TCN does not.
* Fig. 5a: TCN preserves SP/WFQ (500/250/250 Mbps) exactly.
* MQ-ECN and TCN agree on round-robin schedulers.
"""

import pytest

from repro.aqm.mqecn import MqEcn
from repro.aqm.perport import PerPortRed
from repro.core.tcn import Tcn
from repro.metrics.timeseries import GoodputTracker
from repro.sched import SpWfqScheduler
from repro.sched.base import make_queues
from repro.sched.dwrr import DwrrScheduler
from repro.sched.pifo import PifoScheduler, stfq_rank
from repro.sim.engine import Simulator
from repro.topo.star import StarTopology
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver
from repro.units import GBPS, KB, MB, MBPS, SEC, USEC


def _two_service_run(aqm_factory, n_flows_svc2, sched_factory=None):
    """Fig. 1's setup: DWRR with 2 equal queues, 1 vs N DCTCP flows."""
    sim = Simulator()
    topo = StarTopology(
        sim, 3, GBPS,
        sched_factory=sched_factory
        or (lambda: DwrrScheduler(make_queues(2, quanta=[1500, 1500]))),
        aqm_factory=aqm_factory,
        buffer_bytes=192 * KB,
        link_delay_ns=62_500,
    )
    tracker = GoodputTracker()
    on_bytes = lambda f, b, t: tracker.record(f.service, b, t)  # noqa: E731
    flows = [Flow(1, 0, 2, 500 * MB, service=0)]
    flows += [
        Flow(2 + i, 1, 2, 500 * MB, service=1) for i in range(n_flows_svc2)
    ]
    for f in flows:
        Receiver(sim, topo.hosts[2], f, on_bytes=on_bytes)
        s = DctcpSender(sim, topo.hosts[f.src], f, init_cwnd=10)
        sim.schedule(0, s.start)
    sim.run(until=2 * SEC)
    return (
        tracker.goodput_bps(0, 1 * SEC, 2 * SEC),
        tracker.goodput_bps(1, 1 * SEC, 2 * SEC),
    )


class TestFig1PolicyViolation:
    def test_perport_red_violates_dwrr_with_many_flows(self):
        """Service 2 with 8 flows grabs well over its 50% share."""
        g1, g2 = _two_service_run(lambda: PerPortRed(30 * KB), 8)
        assert g2 > 0.6 * GBPS
        assert g1 < 0.35 * GBPS

    def test_perport_violation_grows_with_flow_count(self):
        _, g2_2 = _two_service_run(lambda: PerPortRed(30 * KB), 2)
        _, g2_8 = _two_service_run(lambda: PerPortRed(30 * KB), 8)
        assert g2_8 > g2_2

    def test_tcn_preserves_dwrr_fairness(self):
        g1, g2 = _two_service_run(lambda: Tcn(250 * USEC), 8)
        assert g1 == pytest.approx(g2, rel=0.05)
        assert g1 + g2 > 0.9 * GBPS

    def test_tcn_fairness_independent_of_flow_count(self):
        g1_a, _ = _two_service_run(lambda: Tcn(250 * USEC), 2)
        g1_b, _ = _two_service_run(lambda: Tcn(250 * USEC), 16)
        assert g1_a == pytest.approx(g1_b, rel=0.05)

    def test_mqecn_also_preserves_dwrr(self):
        g1, g2 = _two_service_run(lambda: MqEcn(250 * USEC), 8)
        assert g1 == pytest.approx(g2, rel=0.1)

    def test_tcn_preserves_pifo_stfq(self):
        """The scheduler MQ-ECN cannot touch: PIFO with an STFQ rank —
        TCN still preserves the 50/50 policy."""
        g1, g2 = _two_service_run(
            lambda: Tcn(250 * USEC),
            8,
            sched_factory=lambda: PifoScheduler(
                make_queues(2), rank_fn=stfq_rank
            ),
        )
        assert g1 == pytest.approx(g2, rel=0.07)


class TestFig5aSpWfq:
    def _run(self):
        sim = Simulator()
        topo = StarTopology(
            sim, 4, GBPS,
            sched_factory=lambda: SpWfqScheduler(
                make_queues(3, quanta=[1500] * 3), n_high=1
            ),
            aqm_factory=lambda: Tcn(250 * USEC),
            buffer_bytes=96 * KB,
            link_delay_ns=62_500,
        )
        tracker = GoodputTracker()
        on_bytes = lambda f, b, t: tracker.record(f.service, b, t)  # noqa: E731
        fid = 0
        for src, svc, n in ((0, 0, 1), (1, 1, 1), (2, 2, 4)):
            for _ in range(n):
                fid += 1
                f = Flow(fid, src, 3, 2000 * MB, service=svc)
                Receiver(sim, topo.hosts[3], f, on_bytes=on_bytes)
                s = DctcpSender(
                    sim, topo.hosts[src], f, init_cwnd=10,
                    app_rate_bps=500 * MBPS if svc == 0 else None,
                )
                sim.schedule(svc * SEC, s.start)
        sim.run(until=4 * SEC)
        return [tracker.goodput_bps(s, 3 * SEC, 4 * SEC) for s in range(3)]

    def test_policy_500_250_250(self):
        g = self._run()
        assert g[0] == pytest.approx(500 * MBPS, rel=0.05)
        # queues 2 and 3 split the remainder evenly despite 1-vs-4 flows
        assert g[1] == pytest.approx(g[2], rel=0.08)
        assert g[1] + g[2] == pytest.approx(473 * MBPS, rel=0.10)
