"""EgressPort: admission, serialization timing, marking plumbing, delivery."""

from repro.aqm.base import Aqm
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.port import EgressPort
from repro.sim.engine import Simulator
from repro.units import GBPS, KB, USEC
from tests.helpers import data_pkt, make_port


class _Sink:
    def __init__(self):
        self.received = []

    def receive(self, pkt: Packet) -> None:
        self.received.append(pkt)


class _MarkAll(Aqm):
    def on_dequeue(self, port, queue, pkt, now):
        return True


class _MarkAtEnqueue(Aqm):
    def on_enqueue(self, port, queue, pkt, now):
        return True


class TestAdmission:
    def test_drop_when_buffer_full(self):
        sim = Simulator()
        port = make_port(sim, buffer_bytes=3000)
        for i in range(4):
            port.receive(data_pkt(seq=i))
        # one packet is in flight (serializing, not buffered); the buffer
        # holds two more; the fourth arrival must be dropped
        assert port.stats.dropped_pkts == 1
        assert port.stats.rx_pkts == 4

    def test_occupancy_tracks_buffered_bytes(self):
        sim = Simulator()
        port = make_port(sim, buffer_bytes=100 * KB)
        for i in range(5):
            port.receive(data_pkt(seq=i))
        # first packet dequeued immediately for transmission
        assert port.occupancy == 4 * 1500
        sim.run()
        assert port.occupancy == 0

    def test_small_packet_fits_where_large_does_not(self):
        sim = Simulator()
        port = make_port(sim, buffer_bytes=2000)
        port.receive(data_pkt(seq=0))           # in flight
        port.receive(data_pkt(seq=1))           # buffered (1500)
        port.receive(data_pkt(seq=2))           # 3000 > 2000: dropped
        port.receive(data_pkt(seq=3, payload=100))  # 140B fits
        assert port.stats.dropped_pkts == 1
        assert port.occupancy == 1500 + 140


class TestSerialization:
    def test_mtu_takes_12us_at_1g(self):
        sim = Simulator()
        sink = _Sink()
        port = make_port(sim, rate_bps=GBPS)
        port.link = Link(sink, 0)
        port.receive(data_pkt())
        sim.run()
        assert sim.now == 12 * USEC

    def test_propagation_adds_delay(self):
        sim = Simulator()
        sink = _Sink()
        port = make_port(sim, rate_bps=GBPS)
        port.link = Link(sink, 100 * USEC)
        port.receive(data_pkt())
        sim.run()
        assert sim.now == 112 * USEC
        assert len(sink.received) == 1

    def test_back_to_back_packets_serialize_sequentially(self):
        sim = Simulator()
        sink = _Sink()
        arrivals = []
        port = make_port(sim, rate_bps=GBPS)
        port.link = Link(sink, 0)

        class _Tap:
            def receive(self, pkt):
                arrivals.append(sim.now)

        port.link = Link(_Tap(), 0)
        for i in range(3):
            port.receive(data_pkt(seq=i))
        sim.run()
        assert arrivals == [12 * USEC, 24 * USEC, 36 * USEC]

    def test_port_goes_idle_then_resumes(self):
        sim = Simulator()
        port = make_port(sim, rate_bps=GBPS)
        port.receive(data_pkt(seq=0))
        sim.run()
        assert not port.busy
        port.receive(data_pkt(seq=1))
        assert port.busy


class TestMarkingPlumbing:
    def test_dequeue_mark_sets_ce_on_ect(self):
        sim = Simulator()
        sink = _Sink()
        port = make_port(sim, aqm=_MarkAll())
        port.link = Link(sink, 0)
        port.receive(data_pkt(ect=True))
        sim.run()
        assert sink.received[0].ce is True
        assert port.stats.marked_pkts == 1

    def test_non_ect_never_marked(self):
        sim = Simulator()
        sink = _Sink()
        port = make_port(sim, aqm=_MarkAll())
        port.link = Link(sink, 0)
        port.receive(data_pkt(ect=False))
        sim.run()
        assert sink.received[0].ce is False
        assert port.stats.marked_pkts == 0

    def test_enqueue_mark_sets_ce(self):
        sim = Simulator()
        sink = _Sink()
        port = make_port(sim, aqm=_MarkAtEnqueue())
        port.link = Link(sink, 0)
        port.receive(data_pkt(ect=True))
        sim.run()
        assert sink.received[0].ce is True

    def test_double_mark_counted_once(self):
        class _Both(Aqm):
            def on_enqueue(self, port, queue, pkt, now):
                return True

            def on_dequeue(self, port, queue, pkt, now):
                return True

        sim = Simulator()
        port = make_port(sim, aqm=_Both())
        port.receive(data_pkt(ect=True))
        sim.run()
        assert port.stats.marked_pkts == 1

    def test_enq_ts_stamped(self):
        sim = Simulator()
        stamped = []

        class _Spy(Aqm):
            def on_dequeue(self, port, queue, pkt, now):
                stamped.append(pkt.enq_ts)
                return False

        port = make_port(sim, aqm=_Spy())
        sim.schedule(77, lambda: port.receive(data_pkt()))
        sim.run()
        assert stamped == [77]


class TestClassification:
    def test_classifier_selects_queue(self):
        from repro.sched.base import make_queues
        from repro.sched.wfq import WfqScheduler

        sim = Simulator()
        sched = WfqScheduler(make_queues(3), n_high=3)
        port = make_port(sim, scheduler=sched)
        port.receive(data_pkt(dscp=2, seq=0))
        port.receive(data_pkt(dscp=2, seq=1))
        # first packet went straight to the wire; second is buffered in q2
        assert sched.queues[2].bytes == 1500


class TestOccupancyTracker:
    def test_tracker_sees_every_change(self):
        sim = Simulator()
        port = make_port(sim)
        trace = []
        port.occupancy_tracker = lambda now, occ: trace.append((now, occ))
        port.receive(data_pkt(seq=0))
        port.receive(data_pkt(seq=1))
        sim.run()
        # enqueue(0), dequeue(0), enqueue(1), dequeue(1)
        occupancies = [occ for _, occ in trace]
        assert occupancies == [1500, 0, 1500, 0]
