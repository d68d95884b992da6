"""WFQ (self-clocked) and WRR scheduler semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sched.base import make_queues
from repro.sched.wfq import WfqScheduler
from repro.sched.wrr import WrrScheduler
from tests.helpers import drain_in_order, fill, weighted_queues


def _served_bytes(sched, n_pkts):
    served = {q.index: 0 for q in sched.queues}
    for _ in range(n_pkts):
        result = sched.dequeue(0)
        if result is None:
            break
        pkt, queue = result
        served[queue.index] += pkt.wire_size
    return served


class TestWfq:
    def test_equal_weights_alternate(self):
        s = WfqScheduler(make_queues(2))
        fill(s, 0, 4)
        fill(s, 1, 4)
        order = [p.dscp for p in drain_in_order(s)]
        # strict alternation for same-size packets with equal weights
        assert order in ([0, 1, 0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0, 1, 0])

    def test_weights_shape_shares(self):
        queues = weighted_queues([3.0, 1.0])
        s = WfqScheduler(queues)
        fill(s, 0, 120)
        fill(s, 1, 120)
        served = _served_bytes(s, 120)
        ratio = served[0] / served[1]
        assert 2.5 <= ratio <= 3.5

    def test_work_conserving(self):
        s = WfqScheduler(make_queues(3))
        fill(s, 1, 7)
        assert len(drain_in_order(s)) == 7

    def test_vtime_resets_on_idle(self):
        """After full drain, a fresh packet must not inherit stale tags."""
        s = WfqScheduler(make_queues(2))
        fill(s, 0, 50)
        drain_in_order(s)
        assert s._vtime == 0.0
        fill(s, 1, 1)
        pkt, queue = s.dequeue(0)
        assert queue.index == 1

    def test_late_joiner_not_starved_and_not_overserved(self):
        """A queue joining late competes from the current virtual time, not
        from zero (else it would monopolize the link)."""
        s = WfqScheduler(make_queues(2))
        fill(s, 0, 100)
        for _ in range(50):
            s.dequeue(0)
        fill(s, 1, 100)
        served = _served_bytes(s, 40)
        assert served[0] > 0 and served[1] > 0
        assert abs(served[0] - served[1]) <= 2 * 1500

    def test_rejects_nonpositive_weight(self):
        queues = weighted_queues([1.0, 0.0])
        with pytest.raises(ValueError):
            WfqScheduler(queues)

    def test_no_rounds_exposed(self):
        assert WfqScheduler(make_queues(2)).supports_rounds is False


class TestWrr:
    def test_round_robin_order(self):
        s = WrrScheduler(make_queues(2))
        fill(s, 0, 3)
        fill(s, 1, 3)
        order = [p.dscp for p in drain_in_order(s)]
        assert order == [0, 1, 0, 1, 0, 1]

    def test_weight_means_packets_per_turn(self):
        queues = weighted_queues([2.0, 1.0])
        s = WrrScheduler(queues)
        fill(s, 0, 4)
        fill(s, 1, 4)
        order = [p.dscp for p in drain_in_order(s)]
        assert order[:3] == [0, 0, 1]

    def test_supports_rounds(self):
        assert WrrScheduler(make_queues(2)).supports_rounds is True

    def test_round_observer_fires(self):
        s = WrrScheduler(make_queues(2))
        seen = []
        s.round_observer = lambda q, rt, now: seen.append(rt)
        fill(s, 0, 5)
        fill(s, 1, 5)
        now = 0
        for _ in range(10):
            s.dequeue(now)
            now += 10_000
        assert seen and all(rt > 0 for rt in seen)


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
        min_size=2,
        max_size=5,
    ),
)
def test_property_wfq_shares_track_weights(weights):
    """Backlogged WFQ queues receive service proportional to weight."""
    n = len(weights)
    s = WfqScheduler(weighted_queues(weights))
    for q in range(n):
        fill(s, q, 200)
    served = _served_bytes(s, 150)
    total = sum(served.values())
    wsum = sum(weights)
    for q in range(n):
        expected = total * weights[q] / wsum
        assert abs(served[q] - expected) <= 2 * 1500 + 0.1 * total
