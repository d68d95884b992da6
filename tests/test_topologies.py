"""Star and leaf-spine topology construction and routing."""

import pytest

from repro.core.tcn import Tcn
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.topo.leafspine import LeafSpineTopology
from repro.topo.star import StarTopology
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver
from repro.units import GBPS, KB, SEC, USEC


def _star(n=4):
    sim = Simulator()
    topo = StarTopology(
        sim, n, GBPS,
        sched_factory=FifoScheduler,
        aqm_factory=lambda: Tcn(250 * USEC),
        link_delay_ns=62_500,
    )
    return sim, topo


def _leafspine(n_leaf=2, n_spine=2, hpl=2):
    sim = Simulator()
    topo = LeafSpineTopology(
        sim, n_leaf, n_spine, hpl,
        sched_factory=FifoScheduler,
        aqm_factory=lambda: Tcn(78 * USEC),
        edge_rate_bps=10 * GBPS,
        host_link_delay_ns=20_000,
    )
    return sim, topo


class TestStar:
    def test_structure(self):
        sim, topo = _star(5)
        assert len(topo.hosts) == 5
        assert len(topo.switch.ports) == 5
        assert topo.base_rtt_ns == 250 * USEC

    def test_end_to_end_transfer(self):
        sim, topo = _star()
        flow = Flow(1, 1, 3, 100 * KB)
        Receiver(sim, topo.hosts[3], flow)
        s = DctcpSender(sim, topo.hosts[1], flow)
        sim.schedule(0, s.start)
        sim.run(until=1 * SEC)
        assert flow.completed
        assert flow.fct_ns > topo.base_rtt_ns

    def test_each_port_gets_own_scheduler_and_aqm(self):
        sim, topo = _star()
        scheds = {id(p.scheduler) for p in topo.switch.ports}
        aqms = {id(p.aqm) for p in topo.switch.ports}
        assert len(scheds) == 4 and len(aqms) == 4

    def test_min_hosts(self):
        with pytest.raises(ValueError):
            _star(1)


class TestLeafSpine:
    def test_structure(self):
        sim, topo = _leafspine(3, 2, 4)
        assert topo.n_hosts == 12
        assert len(topo.leaves) == 3
        assert len(topo.spines) == 2
        # each leaf: 4 host ports + 2 uplinks; each spine: 3 downlinks
        assert all(len(l.ports) == 6 for l in topo.leaves)
        assert all(len(s.ports) == 3 for s in topo.spines)

    def test_intra_leaf_transfer(self):
        sim, topo = _leafspine()
        flow = Flow(1, 0, 1, 50 * KB)  # same leaf
        Receiver(sim, topo.hosts[1], flow)
        s = DctcpSender(sim, topo.hosts[0], flow)
        sim.schedule(0, s.start)
        sim.run(until=1 * SEC)
        assert flow.completed

    def test_cross_leaf_transfer(self):
        sim, topo = _leafspine()
        flow = Flow(1, 0, 3, 500 * KB)  # leaf 0 -> leaf 1
        Receiver(sim, topo.hosts[3], flow)
        s = DctcpSender(sim, topo.hosts[0], flow)
        sim.schedule(0, s.start)
        sim.run(until=1 * SEC)
        assert flow.completed

    def test_ecmp_is_per_flow_stable(self):
        sim, topo = _leafspine(2, 4, 2)
        assert all(
            topo.ecmp_spine(fid) == topo.ecmp_spine(fid) for fid in range(100)
        )

    def test_ecmp_spreads_flows(self):
        sim, topo = _leafspine(2, 4, 2)
        hits = [0] * 4
        for fid in range(400):
            hits[topo.ecmp_spine(fid)] += 1
        assert min(hits) > 50

    def test_many_flows_all_complete(self):
        sim, topo = _leafspine(2, 2, 2)
        flows = []
        for i in range(12):
            src, dst = i % 4, (i + 1 + i // 4) % 4
            if src == dst:
                dst = (dst + 1) % 4
            f = Flow(i + 1, src, dst, 200 * KB)
            flows.append(f)
            Receiver(sim, topo.hosts[dst], f)
            s = DctcpSender(sim, topo.hosts[src], f)
            sim.schedule(i * 1000, s.start)
        sim.run(until=2 * SEC)
        assert all(f.completed for f in flows)

    def test_base_rtt(self):
        sim, topo = _leafspine()
        assert topo.base_rtt_ns == 4 * 20_000 + 8 * 650

    def test_validation(self):
        with pytest.raises(ValueError):
            _leafspine(0, 1, 1)
