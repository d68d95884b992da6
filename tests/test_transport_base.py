"""The sender core: windowing, recovery, RTO, pacing — on a lossless and a
lossy two-host wire."""

import pytest

from repro.net.host import Host
from repro.net.link import Link
from repro.net.nic import make_nic
from repro.sim.engine import Simulator
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver
from repro.transport.tcp import RenoSender
from repro.units import GBPS, KB, MB, MBPS, MSEC, SEC, USEC


class _Wire:
    """Two hosts connected back-to-back, optionally dropping data packets
    by sequence number on their first transmission."""

    def __init__(self, drop_seqs=(), delay_ns=50 * USEC, rate=GBPS):
        self.sim = Simulator()
        self.drop_seqs = set(drop_seqs)
        self.dropped = []

        class _Tap:
            """Sits between the sender NIC and the receiving host."""

            def __init__(tap, dst):
                tap.dst = dst

            def receive(tap, pkt):
                if (
                    pkt.seq in self.drop_seqs
                    and pkt.kind == 0
                    and not pkt.is_retx
                ):
                    self.drop_seqs.discard(pkt.seq)
                    self.dropped.append(pkt.seq)
                    return
                tap.dst.receive(pkt)

        # host B (receiver side) first so the tap can point at it
        nic_b = make_nic(self.sim, rate, link=None)
        self.host_b = Host(self.sim, 1, nic_b)
        nic_a = make_nic(self.sim, rate, link=None)
        self.host_a = Host(self.sim, 0, nic_a)
        nic_a.link = Link(_Tap(self.host_b), delay_ns)
        nic_b.link = Link(self.host_a, delay_ns)

    def transfer(self, sender_cls, size_bytes, drop_seqs=None, **kw):
        flow = Flow(1, 0, 1, size_bytes)
        Receiver(self.sim, self.host_b, flow)
        sender = sender_cls(self.sim, self.host_a, flow, **kw)
        self.sim.schedule(0, sender.start)
        self.sim.run(until=30 * SEC)
        return flow, sender


class TestReliableDelivery:
    def test_small_flow_completes(self):
        flow, sender = _Wire().transfer(DctcpSender, 10 * KB)
        assert flow.completed
        assert sender.done

    def test_single_packet_flow(self):
        flow, _ = _Wire().transfer(DctcpSender, 100)
        assert flow.completed

    def test_large_flow_completes(self):
        flow, _ = _Wire().transfer(DctcpSender, 5 * MB)
        assert flow.completed

    def test_fct_reasonable_for_uncongested_flow(self):
        """100 KB at 1 Gbps with 100 us RTT: a few RTTs of slow start."""
        flow, _ = _Wire().transfer(DctcpSender, 100 * KB, init_cwnd=10)
        assert flow.fct_ns < 4 * MSEC

    def test_throughput_near_line_rate(self):
        flow, _ = _Wire().transfer(DctcpSender, 10 * MB)
        rate = flow.size_bytes * 8 * SEC / flow.fct_ns
        assert rate > 0.9 * GBPS


class TestLossRecovery:
    def test_fast_retransmit_on_three_dupacks(self):
        wire = _Wire(drop_seqs=[5])
        flow, sender = wire.transfer(DctcpSender, 100 * KB, init_cwnd=16)
        assert flow.completed
        assert sender.stats.fast_retransmits >= 1
        assert sender.stats.timeouts == 0
        assert wire.dropped == [5]

    def test_multiple_losses_in_window_recovered(self):
        """NewReno partial-ACK retransmission handles several holes."""
        wire = _Wire(drop_seqs=[4, 6, 8])
        flow, sender = wire.transfer(DctcpSender, 100 * KB, init_cwnd=16)
        assert flow.completed

    def test_tail_loss_needs_timeout(self):
        """Dropping the final segment leaves no dupacks: RTO must fire."""
        size = 20 * KB
        last = Flow(99, 0, 1, size).npkts - 1
        wire = _Wire(drop_seqs=[last])
        flow, sender = wire.transfer(
            DctcpSender, size, init_cwnd=32, min_rto_ns=10 * MSEC
        )
        assert flow.completed
        assert sender.stats.timeouts >= 1
        assert flow.fct_ns >= 10 * MSEC

    def test_lost_first_window_recovers(self):
        wire = _Wire(drop_seqs=[0, 1, 2])
        flow, sender = wire.transfer(
            DctcpSender, 10 * KB, init_cwnd=4, min_rto_ns=10 * MSEC
        )
        assert flow.completed

    def test_cwnd_collapses_on_timeout(self):
        size = 20 * KB
        last = Flow(99, 0, 1, size).npkts - 1
        wire = _Wire(drop_seqs=[last])
        flow, sender = wire.transfer(DctcpSender, size, init_cwnd=32)
        assert sender.ssthresh >= 2.0
        # after the timeout cwnd restarted from 1 and regrew a little
        assert sender.cwnd < 32


class TestRto:
    def test_rtt_estimator_converges(self):
        wire = _Wire(delay_ns=50 * USEC)
        # a short flow stays near the base RTT (no self-induced queueing)
        flow, sender = wire.transfer(DctcpSender, 100 * KB, init_cwnd=10)
        assert sender.srtt_ns is not None
        assert 100 * USEC <= sender.srtt_ns <= 1000 * USEC

    def test_min_rto_floor(self):
        wire = _Wire(delay_ns=50 * USEC)
        flow, sender = wire.transfer(DctcpSender, 1 * MB, min_rto_ns=7 * MSEC)
        assert sender._base_rto_ns >= 7 * MSEC

    def test_backoff_doubles_and_resets(self):
        sim = Simulator()
        nic = make_nic(sim, GBPS, link=None)  # packets vanish: every RTO fires
        host = Host(sim, 0, nic)
        flow = Flow(1, 0, 1, 100 * KB)
        sender = DctcpSender(sim, host, flow, min_rto_ns=5 * MSEC)
        sim.schedule(0, sender.start)
        sim.run(until=100 * MSEC)
        # timeouts at t = 5, 15, 35, 75 ms (doubling gaps); the next would
        # land at 155 ms, past the horizon
        assert sender.stats.timeouts == 4

    @pytest.mark.parametrize("kw, field", [
        (dict(min_rto_ns=0), "min_rto_ns"),
        (dict(min_rto_ns=-1), "min_rto_ns"),
        (dict(init_rto_ns=0), "init_rto_ns"),
        (dict(min_rto_ns=5 * MSEC, init_rto_ns=-1), "init_rto_ns"),
    ])
    def test_non_positive_rto_is_rejected_at_construction(self, kw, field):
        """A zero RTO re-arms the timeout tick at the instant it fires, so
        a run would never advance the clock; the constructor refuses it
        (no run is attempted here, so this test cannot hang)."""
        sim = Simulator()
        host = Host(sim, 0, make_nic(sim, GBPS, link=None))
        with pytest.raises(ValueError, match=field):
            DctcpSender(sim, host, Flow(1, 0, 1, 10 * KB), **kw)


class TestAppPacing:
    def test_app_limited_rate_is_respected(self):
        wire = _Wire()
        flow, sender = wire.transfer(
            DctcpSender, 2 * MB, app_rate_bps=100 * MBPS
        )
        assert flow.completed
        rate = flow.size_bytes * 8 * SEC / flow.fct_ns
        assert rate <= 110 * MBPS
        assert rate >= 80 * MBPS

    def test_unpaced_is_faster(self):
        wire = _Wire()
        paced, _ = wire.transfer(DctcpSender, 1 * MB, app_rate_bps=100 * MBPS)
        wire2 = _Wire()
        free, _ = wire2.transfer(DctcpSender, 1 * MB)
        assert free.fct_ns < paced.fct_ns

    def test_cwnd_validation_freezes_growth_when_app_limited(self):
        wire = _Wire()
        flow, sender = wire.transfer(
            DctcpSender, 2 * MB, app_rate_bps=50 * MBPS, init_cwnd=10
        )
        # 50 Mbps over a ~100us RTT needs < 1 packet of window; cwnd must
        # not have ballooned into the thousands
        assert sender.cwnd < 100


class TestEcnNegotiation:
    def test_dctcp_sets_ect(self):
        seen = []
        wire = _Wire()
        orig = wire.host_b.receive

        def spy(pkt):
            if pkt.kind == 0:
                seen.append(pkt.ect)
            orig(pkt)

        wire.host_b.receive = spy
        wire.transfer(DctcpSender, 10 * KB)
        assert seen and all(seen)

    def test_reno_does_not_set_ect(self):
        seen = []
        wire = _Wire()
        orig = wire.host_b.receive

        def spy(pkt):
            if pkt.kind == 0:
                seen.append(pkt.ect)
            orig(pkt)

        wire.host_b.receive = spy
        wire.transfer(RenoSender, 10 * KB)
        assert seen and not any(seen)
