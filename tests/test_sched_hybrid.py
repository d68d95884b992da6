"""SP/DWRR and SP/WFQ hybrids: the paper's production configurations."""

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.schemes import SCHEDULERS
from repro.sched.base import make_queues
from repro.sched.dwrr import DwrrScheduler
from repro.sched.wfq import WfqScheduler
from tests.helpers import drain_in_order, fill


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_queue_indices_stay_global(name):
    """No discipline rewrites the caller's ``PacketQueue.index``: trace
    labels and per-queue AQM state read it as the queue's port-wide id."""
    cfg = ExperimentConfig(scheduler=name, n_queues=8, n_high=2)
    sched = SCHEDULERS[name](cfg)()
    n = len(sched.queues)
    assert [q.index for q in sched.queues] == list(range(n))
    for qidx in range(n):
        fill(sched, qidx, 3)
    for now in range(2 * n):
        sched.dequeue(now)
    assert [q.index for q in sched.queues] == list(range(n))
    drain_in_order(sched)
    assert [q.index for q in sched.queues] == list(range(n))


class TestSpOverLow:
    @pytest.mark.parametrize("cls", [DwrrScheduler, WfqScheduler])
    def test_high_queue_always_first(self, cls):
        s = cls(make_queues(4, quanta=[1500] * 4), n_high=1)
        fill(s, 2, 3)
        fill(s, 0, 2)
        fill(s, 3, 3)
        order = [p.dscp for p in drain_in_order(s)]
        assert order[:2] == [0, 0]

    @pytest.mark.parametrize("cls", [DwrrScheduler, WfqScheduler])
    def test_low_band_fair_among_itself(self, cls):
        s = cls(make_queues(3, quanta=[1500] * 3), n_high=1)
        fill(s, 1, 40)
        fill(s, 2, 40)
        served = {1: 0, 2: 0}
        for _ in range(40):
            pkt, queue = s.dequeue(0)
            served[pkt.dscp] += pkt.wire_size
        assert abs(served[1] - served[2]) <= 2 * 1500

    @pytest.mark.parametrize("cls", [DwrrScheduler, WfqScheduler])
    def test_high_arrival_preempts_low_backlog(self, cls):
        s = cls(make_queues(3, quanta=[1500] * 3), n_high=1)
        fill(s, 1, 5)
        s.dequeue(0)
        fill(s, 0, 1)
        pkt, _ = s.dequeue(0)
        assert pkt.dscp == 0

    @pytest.mark.parametrize("cls", [DwrrScheduler, WfqScheduler])
    def test_two_high_queues_ordered(self, cls):
        s = cls(make_queues(4, quanta=[1500] * 4), n_high=2)
        fill(s, 1, 1)
        fill(s, 0, 1)
        fill(s, 3, 1)
        order = [p.dscp for p in drain_in_order(s)]
        assert order == [0, 1, 3]

    @pytest.mark.parametrize("cls", [DwrrScheduler, WfqScheduler])
    def test_total_bytes_spans_both_bands(self, cls):
        s = cls(make_queues(3, quanta=[1500] * 3), n_high=1)
        fill(s, 0, 2)
        fill(s, 2, 3)
        assert s.total_bytes == 5 * 1500
        drain_in_order(s)
        assert s.total_bytes == 0

    @pytest.mark.parametrize("cls", [DwrrScheduler, WfqScheduler])
    def test_invalid_n_high_rejected(self, cls):
        with pytest.raises(ValueError):
            cls(make_queues(3), n_high=4)
        with pytest.raises(ValueError):
            cls(make_queues(3), n_high=-1)


class TestSpDwrrRounds:
    def test_rounds_supported_and_observer_wired(self):
        s = DwrrScheduler(make_queues(3, quanta=[1500] * 3), n_high=1)
        assert s.supports_rounds is True
        seen = []
        s.round_observer = lambda q, rt, now: seen.append(rt)
        fill(s, 1, 5)
        fill(s, 2, 5)
        now = 0
        for _ in range(10):
            s.dequeue(now)
            now += 10_000
        assert seen

    def test_spwfq_has_no_rounds(self):
        s = WfqScheduler(make_queues(3, quanta=[1500] * 3), n_high=1)
        assert s.supports_rounds is False
