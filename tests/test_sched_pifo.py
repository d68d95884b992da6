"""PIFO programmable scheduler and its rank programs."""

from repro.sched.base import make_queues
from repro.sched.pifo import PifoScheduler, lstf_rank, stfq_rank
from tests.helpers import data_pkt, drain_in_order, fill, weighted_queues


class TestRankOrdering:
    def test_dequeues_in_rank_order(self):
        def rank_by_seq(pkt, queue, now, state):
            return -pkt.seq  # highest seq first

        s = PifoScheduler(make_queues(1), rank_fn=rank_by_seq)
        for i in range(5):
            s.enqueue(data_pkt(seq=i), 0, 0)
        assert [p.seq for p in drain_in_order(s)] == [4, 3, 2, 1, 0]

    def test_rank_ties_fifo(self):
        s = PifoScheduler(make_queues(1), rank_fn=lambda *a: 0.0)
        for i in range(5):
            s.enqueue(data_pkt(seq=i), 0, 0)
        assert [p.seq for p in drain_in_order(s)] == [0, 1, 2, 3, 4]


class TestStfqRank:
    def test_emulates_fair_queueing(self):
        s = PifoScheduler(make_queues(2), rank_fn=stfq_rank)
        fill(s, 0, 50)
        fill(s, 1, 50)
        served = {0: 0, 1: 0}
        for _ in range(40):
            pkt, queue = s.dequeue(0)
            served[queue.index] += pkt.wire_size
        assert abs(served[0] - served[1]) <= 2 * 1500

    def test_weighted(self):
        s = PifoScheduler(weighted_queues([3.0, 1.0]), rank_fn=stfq_rank)
        fill(s, 0, 120)
        fill(s, 1, 120)
        served = {0: 0, 1: 0}
        for _ in range(100):
            pkt, queue = s.dequeue(0)
            served[queue.index] += pkt.wire_size
        assert 2.3 <= served[0] / served[1] <= 3.7

    def test_state_resets_on_empty(self):
        s = PifoScheduler(make_queues(2), rank_fn=stfq_rank)
        fill(s, 0, 10)
        drain_in_order(s)
        assert s.rank_state.get("vtime", 0.0) == 0.0


class TestLstfRank:
    def test_least_slack_first(self):
        s = PifoScheduler(make_queues(2), rank_fn=lstf_rank)
        s.rank_state["slack_ns"] = {0: 1_000_000, 1: 10_000}
        loose = data_pkt(dscp=0, seq=0)
        loose.ts = 0
        tight = data_pkt(dscp=1, seq=1)
        tight.ts = 0
        s.enqueue(loose, 0, now=0)
        s.enqueue(tight, 1, now=0)
        pkt, _ = s.dequeue(0)
        assert pkt.seq == 1  # tight slack served first

    def test_unknown_class_yields(self):
        s = PifoScheduler(make_queues(2), rank_fn=lstf_rank)
        s.rank_state["slack_ns"] = {1: 10_000}
        unknown = data_pkt(dscp=0, seq=0)
        known = data_pkt(dscp=1, seq=1)
        s.enqueue(unknown, 0, now=0)
        s.enqueue(known, 1, now=0)
        assert s.dequeue(0)[0].seq == 1


class TestAccounting:
    def test_logical_queue_bytes_tracked(self):
        s = PifoScheduler(make_queues(2), rank_fn=stfq_rank)
        fill(s, 0, 2)
        fill(s, 1, 1)
        assert s.queues[0].bytes == 3000
        assert s.queues[1].bytes == 1500
        drain_in_order(s)
        assert s.queues[0].bytes == 0 and s.queues[1].bytes == 0

    def test_total_bytes(self):
        s = PifoScheduler(make_queues(2), rank_fn=stfq_rank)
        fill(s, 0, 4)
        assert s.total_bytes == 4 * 1500
        drain_in_order(s)
        assert s.total_bytes == 0

    def test_no_rounds(self):
        assert PifoScheduler(make_queues(2)).supports_rounds is False
