"""PIAS tagging, the ping application, host demux, and classification."""

import pytest

from repro.apps.pinger import Pinger
from repro.net.classifier import DscpClassifier
from repro.net.host import Host
from repro.net.link import Link
from repro.net.nic import make_nic
from repro.net.packet import Packet, PacketKind
from repro.pias.tagger import PiasTagger
from repro.sim.engine import Simulator
from repro.transport.flow import Flow
from repro.units import GBPS, KB, MB, MSEC, MSS, USEC
from tests.helpers import data_pkt


class TestPiasTagger:
    def test_first_100kb_high_priority(self):
        tagger = PiasTagger()
        flow = Flow(1, 0, 1, 1 * MB, service=2)
        boundary = (100 * KB) // MSS  # segments fully below the threshold
        for seq in range(boundary):
            assert tagger(flow, seq) == 0

    def test_rest_goes_to_service_queue(self):
        tagger = PiasTagger()
        flow = Flow(1, 0, 1, 1 * MB, service=2)
        last = flow.npkts - 1
        assert tagger(flow, last) == 1 + 2  # offset 1 + service 2

    def test_boundary_is_bytes_sent_before_segment(self):
        tagger = PiasTagger(threshold_bytes=2 * MSS)
        flow = Flow(1, 0, 1, 1 * MB, service=0)
        assert tagger(flow, 0) == 0
        assert tagger(flow, 1) == 0
        assert tagger(flow, 2) == 1  # 2*MSS bytes already sent: demoted

    def test_small_flow_never_demoted(self):
        tagger = PiasTagger()
        flow = Flow(1, 0, 1, 50 * KB, service=3)
        assert all(tagger(flow, s) == 0 for s in range(flow.npkts))

    def test_custom_offsets(self):
        tagger = PiasTagger(high_dscp=7, service_dscp_offset=2)
        flow = Flow(1, 0, 1, 1 * MB, service=1)
        assert tagger(flow, 0) == 7
        assert tagger(flow, flow.npkts - 1) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PiasTagger(threshold_bytes=-1)


class TestDscpClassifier:
    def test_identity_clamped(self):
        cls = DscpClassifier(4)
        assert cls(data_pkt(dscp=2)) == 2
        assert cls(data_pkt(dscp=9)) == 3

    def test_table_validation(self):
        with pytest.raises(ValueError):
            DscpClassifier(0)


class TestHostDemux:
    def _pair(self):
        sim = Simulator()
        nic_a = make_nic(sim, GBPS, link=None)
        nic_b = make_nic(sim, GBPS, link=None)
        a, b = Host(sim, 0, nic_a), Host(sim, 1, nic_b)
        nic_a.link = Link(b, 10 * USEC)
        nic_b.link = Link(a, 10 * USEC)
        return sim, a, b

    def test_probe_echoed(self):
        sim, a, b = self._pair()
        got = []
        a.register_probe_handler(9, got.append)
        probe = Packet(9, 0, 1, PacketKind.PROBE, dscp=3, ts=sim.now)
        a.send(probe)
        sim.run()
        assert len(got) == 1
        assert got[0].kind == PacketKind.PROBE_REPLY
        assert got[0].dscp == 3

    def test_unknown_flow_data_ignored(self):
        sim, a, b = self._pair()
        b.receive(data_pkt(flow_id=404))  # no receiver registered: no crash


class TestPinger:
    def test_measures_base_rtt(self):
        sim = Simulator()
        nic_a = make_nic(sim, GBPS, link=None)
        nic_b = make_nic(sim, GBPS, link=None)
        a, b = Host(sim, 0, nic_a), Host(sim, 1, nic_b)
        nic_a.link = Link(b, 50 * USEC)
        nic_b.link = Link(a, 50 * USEC)
        ping = Pinger(sim, a, 1, flow_id=1, interval_ns=1 * MSEC)
        ping.start()
        sim.run(until=10 * MSEC)
        assert len(ping.rtts_ns) == 10
        # 100 us propagation + 2 probe serializations (~1 us)
        assert all(100 * USEC <= r <= 110 * USEC for r in ping.rtts_ns)

    def test_validation(self):
        sim = Simulator()
        nic = make_nic(sim, GBPS, link=None)
        a = Host(sim, 0, nic)
        with pytest.raises(ValueError):
            Pinger(sim, a, 1, flow_id=1, interval_ns=0)
