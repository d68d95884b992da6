"""Leaf-spine end-to-end behaviour: ECMP path stability, fabric-wide TCN,
and the harness's all-to-all experiment shape."""


from repro.core.tcn import Tcn
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.topo.leafspine import LeafSpineTopology
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver
from repro.units import GBPS, KB, MB, MSEC, SEC, USEC


class TestEcmpPathing:
    def _topo(self):
        sim = Simulator()
        topo = LeafSpineTopology(
            sim, 2, 2, 2,
            sched_factory=FifoScheduler,
            aqm_factory=lambda: Tcn(78 * USEC),
            edge_rate_bps=10 * GBPS,
        )
        return sim, topo

    def test_flow_sticks_to_one_spine(self):
        """No packet reordering from ECMP: all of a flow's packets (and
        its ACKs) cross the same spine."""
        sim, topo = self._topo()
        spine_hits = {0: 0, 1: 0}
        for spine_id, spine in enumerate(topo.spines):
            orig = spine.receive

            def spy(pkt, sid=spine_id, orig=orig):
                spine_hits[sid] += 1
                orig(pkt)

            spine.receive = spy
        flow = Flow(123, 0, 2, 500 * KB)  # cross-leaf
        Receiver(sim, topo.hosts[2], flow)
        s = DctcpSender(sim, topo.hosts[0], flow)
        sim.schedule(0, s.start)
        sim.run(until=1 * SEC)
        assert flow.completed
        used = [sid for sid, n in spine_hits.items() if n > 0]
        assert len(used) == 1, f"flow crossed multiple spines: {spine_hits}"

    def test_different_flows_use_different_spines(self):
        sim, topo = self._topo()
        spines = {topo.ecmp_spine(fid) for fid in range(50)}
        assert spines == {0, 1}

    def test_intra_leaf_traffic_skips_spines(self):
        sim, topo = self._topo()
        crossed = []
        for spine in topo.spines:
            orig = spine.receive

            def spy(pkt, orig=orig):
                crossed.append(pkt)
                orig(pkt)

            spine.receive = spy
        flow = Flow(5, 0, 1, 100 * KB)  # same leaf
        Receiver(sim, topo.hosts[1], flow)
        s = DctcpSender(sim, topo.hosts[0], flow)
        sim.schedule(0, s.start)
        sim.run(until=1 * SEC)
        assert flow.completed
        assert not crossed


class TestFabricExperiment:
    def test_mixed_services_complete_and_bin_sanely(self):
        cfg = ExperimentConfig(
            scheme="tcn", scheduler="sp_dwrr", topology="leafspine",
            n_leaf=2, n_spine=2, hosts_per_leaf=3,
            link_rate_bps=10 * GBPS, buffer_bytes=300 * KB,
            base_rtt_ns=85_200, n_queues=8, pias=True,
            workload="mixed", workload_clip_bytes=5 * MB,
            load=0.6, n_flows=120, min_rto_ns=5 * MSEC, seed=11,
        )
        res = run_experiment(cfg)
        assert res.all_completed
        s = res.summary
        assert s.n_small > 0
        # small flows must finish fast through the high-priority queue
        assert s.avg_small_ns < 2_000_000

    def test_ecn_star_fabric(self):
        cfg = ExperimentConfig(
            scheme="tcn", scheduler="sp_dwrr", topology="leafspine",
            n_leaf=2, n_spine=2, hosts_per_leaf=2,
            link_rate_bps=10 * GBPS, buffer_bytes=300 * KB,
            base_rtt_ns=85_200, n_queues=8, pias=True,
            transport="ecnstar", workload="cache",
            load=0.5, n_flows=60, min_rto_ns=5 * MSEC, seed=3,
        )
        res = run_experiment(cfg)
        assert res.all_completed

    def test_tcn_threshold_uniform_across_fabric(self):
        """Every port of every switch gets the same TCN threshold — the
        'easy to configure' property (§4.1)."""
        from repro.harness.schemes import resolve
        from repro.sim.engine import Simulator

        cfg = ExperimentConfig(
            scheme="tcn", scheduler="dwrr", topology="leafspine",
            n_leaf=2, n_spine=2, hosts_per_leaf=2,
            link_rate_bps=10 * GBPS, base_rtt_ns=85_200,
        )
        sim = Simulator()
        topo = resolve(cfg).topology(sim)
        thresholds = set()
        for sw in topo.switches:
            for port in sw.ports:
                thresholds.add(port.aqm.threshold_ns)
        assert len(thresholds) == 1
