"""Queue-length AQMs: per-queue, per-port, per-pool, and dequeue RED."""

import pytest

from repro.aqm.dequeue_red import DequeueRed
from repro.aqm.perport import BufferPool, PerPoolRed, PerPortRed
from repro.aqm.perqueue import PerQueueRed
from repro.sched.base import make_queues
from repro.sched.dwrr import DwrrScheduler
from repro.sim.engine import Simulator
from repro.units import KB
from tests.helpers import data_pkt, fill, make_port


def _port_with(aqm, n_queues=2, buffer_bytes=500 * KB):
    sim = Simulator()
    sched = DwrrScheduler(make_queues(n_queues, quanta=[1500] * n_queues))
    port = make_port(sim, scheduler=sched, aqm=aqm, buffer_bytes=buffer_bytes)
    return sim, port, sched


class TestPerQueueRed:
    def test_marks_when_own_queue_over_k(self):
        sim, port, sched = _port_with(PerQueueRed(3000))
        queue = sched.queues[0]
        fill(sched, 0, 3)  # 4500 B backlog
        assert port.aqm.on_enqueue(port, queue, data_pkt(), 0) is True

    def test_no_mark_below_k(self):
        sim, port, sched = _port_with(PerQueueRed(30_000))
        queue = sched.queues[0]
        fill(sched, 0, 2)
        assert port.aqm.on_enqueue(port, queue, data_pkt(), 0) is False

    def test_marks_strictly_above_k_on_the_instant_backlog(self):
        """The simplified RED of §2.1: K_min = K_max = K, no averaging."""
        sim, port, sched = _port_with(PerQueueRed(3000))
        queue = sched.queues[0]
        fill(sched, 0, 2)  # exactly K
        assert port.aqm.on_enqueue(port, queue, data_pkt(), 0) is False
        fill(sched, 0, 1)
        assert port.aqm.on_enqueue(port, queue, data_pkt(), 0) is True
        while sched.dequeue(0):
            pass
        assert port.aqm.on_enqueue(port, queue, data_pkt(), 0) is False

    def test_queues_isolated(self):
        """Another queue's backlog never marks this queue's packets."""
        sim, port, sched = _port_with(PerQueueRed(3000))
        fill(sched, 1, 50)  # huge backlog in queue 1
        q0 = sched.queues[0]
        assert port.aqm.on_enqueue(port, q0, data_pkt(dscp=0), 0) is False

    def test_per_queue_thresholds_list(self):
        aqm = PerQueueRed([3000, 30_000])
        sim, port, sched = _port_with(aqm)
        fill(sched, 0, 3)
        fill(sched, 1, 3)
        assert aqm.on_enqueue(port, sched.queues[0], data_pkt(), 0) is True
        assert aqm.on_enqueue(port, sched.queues[1], data_pkt(), 0) is False

    def test_threshold_count_mismatch_rejected(self):
        sim = Simulator()
        sched = DwrrScheduler(make_queues(3, quanta=[1500] * 3))
        with pytest.raises(ValueError):
            make_port(sim, scheduler=sched, aqm=PerQueueRed([1000, 2000]))


@pytest.mark.parametrize("make", [
    lambda: PerQueueRed(-1),
    lambda: PerQueueRed([3000, -1]),
    lambda: DequeueRed(-1),
    lambda: DequeueRed([-1, 3000]),
    lambda: PerPortRed(-1),
    lambda: PerPoolRed(BufferPool(100 * KB), -1),
], ids=["perqueue", "perqueue-entry", "dequeue", "dequeue-entry", "perport",
        "perpool"])
def test_negative_threshold_rejected_at_construction(make):
    with pytest.raises(ValueError, match="^threshold_bytes must be >= 0"):
        make()


class TestPerPortRed:
    def test_marks_on_aggregate_occupancy(self):
        """Remark 2's mechanism: queue 0's single packet gets marked purely
        because queue 1 filled the port."""
        sim, port, sched = _port_with(PerPortRed(30 * KB))
        # stuff queue 1 through the port so occupancy is accounted
        for i in range(30):
            port.receive(data_pkt(flow_id=2, seq=i, dscp=1))
        assert port.occupancy > 30 * KB
        assert port.aqm.on_enqueue(port, sched.queues[0], data_pkt(dscp=0), 0)

    def test_no_mark_when_port_quiet(self):
        sim, port, sched = _port_with(PerPortRed(30 * KB))
        assert not port.aqm.on_enqueue(port, sched.queues[0], data_pkt(), 0)


class TestPerPoolRed:
    def test_pool_spans_ports(self):
        pool = BufferPool(500 * KB)
        sim = Simulator()
        ports = []
        for _ in range(2):
            sched = DwrrScheduler(make_queues(2, quanta=[1500, 1500]))
            ports.append(
                make_port(sim, scheduler=sched, aqm=PerPoolRed(pool, 30 * KB))
            )
        # fill port 0 past the pool threshold
        for i in range(30):
            ports[0].receive(data_pkt(seq=i, dscp=1))
        # a packet on the *other* port gets marked: cross-port interference
        q0 = ports[1].scheduler.queues[0]
        assert ports[1].aqm.on_enqueue(ports[1], q0, data_pkt(), 0) is True

    def test_pool_admission(self):
        pool = BufferPool(4000)
        assert pool.admit(1500)
        pool.occupancy = 3000
        assert not pool.admit(1500)
        assert pool.admit(1000)

    def test_pool_enforced_at_ports(self):
        pool = BufferPool(3000)
        sim = Simulator()
        sched = DwrrScheduler(make_queues(2, quanta=[1500, 1500]))
        port = make_port(sim, scheduler=sched, aqm=PerPoolRed(pool, 1500))
        for i in range(4):
            port.receive(data_pkt(seq=i))
        assert port.stats.dropped_pkts >= 1

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            BufferPool(0)


class TestDequeueRed:
    def test_marks_on_remaining_backlog(self):
        aqm = DequeueRed(3000)
        sim, port, sched = _port_with(aqm)
        queue = sched.queues[0]
        fill(sched, 0, 4)
        pkt, _ = sched.dequeue(0)  # leaves 3 pkts = 4500 B behind
        assert aqm.on_dequeue(port, queue, pkt, 0) is True

    def test_last_packet_not_marked(self):
        aqm = DequeueRed(3000)
        sim, port, sched = _port_with(aqm)
        queue = sched.queues[0]
        fill(sched, 0, 1)
        pkt, _ = sched.dequeue(0)  # leaves nothing behind
        assert aqm.on_dequeue(port, queue, pkt, 0) is False

    def test_never_marks_at_enqueue(self):
        aqm = DequeueRed(3000)
        sim, port, sched = _port_with(aqm)
        fill(sched, 0, 10)
        assert aqm.on_enqueue(port, sched.queues[0], data_pkt(), 0) is False
