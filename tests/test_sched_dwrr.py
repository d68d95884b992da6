"""DWRR: quantum fairness, round rotation, round-time observation."""

from hypothesis import given, settings, strategies as st

from repro.sched.base import make_queues
from repro.sched.dwrr import DwrrScheduler
from tests.helpers import drain_in_order, fill
from repro.units import MSS


def _served_bytes(sched, rounds_pkts):
    """Dequeue ``rounds_pkts`` packets, returning bytes served per queue."""
    served = {q.index: 0 for q in sched.queues}
    for _ in range(rounds_pkts):
        result = sched.dequeue(0)
        if result is None:
            break
        pkt, queue = result
        served[queue.index] += pkt.wire_size
    return served


class TestFairness:
    def test_equal_quanta_equal_bytes(self):
        s = DwrrScheduler(make_queues(2, quanta=[1500, 1500]))
        fill(s, 0, 100)
        fill(s, 1, 100)
        served = _served_bytes(s, 100)
        assert abs(served[0] - served[1]) <= 1500

    def test_weighted_quanta(self):
        """Quantum 3000 vs 1500 -> 2:1 byte ratio."""
        s = DwrrScheduler(make_queues(2, quanta=[3000, 1500]))
        fill(s, 0, 200)
        fill(s, 1, 200)
        served = _served_bytes(s, 150)
        ratio = served[0] / served[1]
        assert 1.8 <= ratio <= 2.2

    def test_work_conserving(self):
        """An empty queue's share goes to the busy one."""
        s = DwrrScheduler(make_queues(2, quanta=[1500, 1500]))
        fill(s, 0, 10)
        assert len(drain_in_order(s)) == 10

    def test_idle_queue_rejoins_fairly(self):
        s = DwrrScheduler(make_queues(2, quanta=[1500, 1500]))
        fill(s, 0, 50)
        for _ in range(10):
            s.dequeue(0)
        fill(s, 1, 50)
        served = _served_bytes(s, 60)
        # after queue 1 joins, service alternates: shares roughly equal
        assert abs(served[0] - served[1]) <= 3 * 1500

    def test_small_packets_respect_quantum(self):
        """Quantum is in bytes, not packets: tiny packets get more turns."""
        s = DwrrScheduler(make_queues(2, quanta=[1500, 1500]))
        fill(s, 0, 300, size=110)  # 150B wire
        fill(s, 1, 30, size=MSS)   # 1500B wire
        served = _served_bytes(s, 200)
        assert served[1] > 0
        ratio = served[0] / served[1]
        assert 0.7 <= ratio <= 1.4


class TestRoundObserver:
    def test_round_time_reported(self):
        """With 2 busy queues at quantum 1500 and instant dequeues at t=0,
        the observer fires with positive round times once time advances."""
        s = DwrrScheduler(make_queues(2, quanta=[1500, 1500]))
        seen = []
        s.round_observer = lambda q, rt, now: seen.append((q.index, rt))
        fill(s, 0, 10)
        fill(s, 1, 10)
        # simulate time advancing 10us per dequeue
        now = 0
        for _ in range(12):
            s.dequeue(now)
            now += 10_000
        assert seen, "round observer never fired"
        assert all(rt > 0 for _, rt in seen)
        # with alternating service, each round spans ~2 packets = 20us
        assert any(15_000 <= rt <= 25_000 for _, rt in seen)

    def test_no_sample_after_idle_gap(self):
        """A queue that drains and comes back must not report the idle gap
        as a round time (it would wreck MQ-ECN's estimate)."""
        s = DwrrScheduler(make_queues(2, quanta=[1500, 1500]))
        seen = []
        s.round_observer = lambda q, rt, now: seen.append(rt)
        fill(s, 0, 2)
        s.dequeue(0)
        s.dequeue(100)  # queue 0 now empty
        fill(s, 0, 2)
        s.dequeue(1_000_000)  # long idle gap before this service turn
        assert all(rt < 900_000 for rt in seen)


class TestAccounting:
    def test_dequeue_returns_owning_queue(self):
        s = DwrrScheduler(make_queues(3, quanta=[1500] * 3))
        fill(s, 2, 1)
        pkt, queue = s.dequeue(0)
        assert queue is s.queues[2]

    def test_total_bytes_consistent(self):
        s = DwrrScheduler(make_queues(2, quanta=[1500, 1500]))
        fill(s, 0, 5)
        fill(s, 1, 3)
        assert s.total_bytes == 8 * 1500
        drain_in_order(s)
        assert s.total_bytes == 0


@settings(max_examples=30, deadline=None)
@given(
    quanta=st.lists(st.integers(min_value=1500, max_value=9000), min_size=2, max_size=6),
    backlog=st.integers(min_value=30, max_value=80),
)
def test_property_byte_shares_track_quanta(quanta, backlog):
    """Long-run byte shares approach quantum proportions for backlogged
    queues (the DWRR O(1) fairness theorem, within one max-packet bound)."""
    n = len(quanta)
    s = DwrrScheduler(make_queues(n, quanta=quanta))
    for q in range(n):
        fill(s, q, backlog * 4)
    total_pkts = backlog * n
    served = _served_bytes(s, total_pkts)
    total_served = sum(served.values())
    total_quanta = sum(quanta)
    for q in range(n):
        expected = total_served * quanta[q] / total_quanta
        # fairness bound: within one quantum + one MTU per queue of fair share
        slack = quanta[q] + 1500 + total_served * 0.12
        assert abs(served[q] - expected) <= slack
