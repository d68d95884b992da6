"""FIFO and strict-priority scheduler semantics.

Strict priority is WFQ with every queue in its strict band: queue 0 is
the highest priority."""

import pytest

from repro.sched.base import make_queues
from repro.sched.fifo import FifoScheduler
from repro.sched.wfq import WfqScheduler
from tests.helpers import data_pkt, drain_in_order, fill


class TestFifo:
    def test_fifo_order(self):
        s = FifoScheduler()
        for i in range(5):
            s.enqueue(data_pkt(seq=i), 0, 0)
        assert [p.seq for p in drain_in_order(s)] == list(range(5))

    def test_empty_dequeue_returns_none(self):
        assert FifoScheduler().dequeue(0) is None

    def test_total_bytes(self):
        s = FifoScheduler()
        fill(s, 0, 3)
        assert s.total_bytes == 3 * 1500
        s.dequeue(0)
        assert s.total_bytes == 2 * 1500


def _sp(queues):
    return WfqScheduler(queues, n_high=len(queues))


class TestStrictPriority:
    def test_lower_index_is_higher_priority_by_default(self):
        s = _sp(make_queues(3))
        fill(s, 2, 2)
        fill(s, 0, 2)
        fill(s, 1, 2)
        order = [p.dscp for p in drain_in_order(s)]
        assert order == [0, 0, 1, 1, 2, 2]

    def test_high_priority_preempts_between_packets(self):
        """A packet arriving in a higher queue is served before the backlog
        of lower queues (non-preemptive per packet, preemptive per queue)."""
        s = _sp(make_queues(2))
        fill(s, 1, 3)
        pkt, _ = s.dequeue(0)
        assert pkt.dscp == 1
        fill(s, 0, 1)
        pkt, _ = s.dequeue(0)
        assert pkt.dscp == 0  # newcomer wins despite queue-1 backlog

    def test_starvation_is_real(self):
        """SP really starves: while queue 0 is backlogged, queue 1 never
        transmits (the paper's rationale for reserving SP for tiny traffic)."""
        s = _sp(make_queues(2))
        fill(s, 0, 10)
        fill(s, 1, 10)
        first_ten = [s.dequeue(0)[0].dscp for _ in range(10)]
        assert first_ten == [0] * 10

    def test_needs_a_queue(self):
        with pytest.raises(ValueError):
            _sp([])
