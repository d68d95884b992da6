"""Scheduler equivalence: optimized hot paths vs naive reference models.

The production schedulers inline queue accounting and (for DWRR) the
turn start and the lone-queue fold for speed.  These tests hold every
discipline to an independently written, deliberately naive reference
implementation of its documented semantics: randomized enqueue/dequeue
sequences must produce the *identical* packet order.  SP/DWRR and SP/WFQ
are ``DwrrScheduler``/``WfqScheduler`` with a strict band; their
references compose a strict band with the plain DWRR/WFQ models.  SP is
``WfqScheduler`` with every queue in the band, held to a plain
lowest-index-first model.

Also covered: the egress port's single-queue FIFO bypass must transmit
exactly what the generic scheduler path transmits.
"""

import random
from collections import deque
from functools import partial

import pytest

from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.port import EgressPort
from repro.sched.base import make_queues
from repro.sched.dwrr import DwrrScheduler
from repro.sched.fifo import FifoScheduler
from repro.sched.pifo import PifoScheduler, stfq_rank
from repro.sched.wfq import WfqScheduler
from repro.sched.wrr import WrrScheduler
from repro.sim.engine import Simulator
from repro.units import MBPS


def _pkt(i: int, payload: int) -> Packet:
    return Packet(flow_id=i, src=0, dst=1, kind=PacketKind.DATA,
                  seq=i, payload=payload)


# -- naive reference models ----------------------------------------------
#
# Each model keeps plain per-queue lists and applies the discipline's
# documented rule directly; none of them share code with the package.


class RefFifo:
    def __init__(self, params):
        self.pkts = []

    def enqueue(self, pkt, qidx, now):
        self.pkts.append(pkt)

    def dequeue(self, now):
        return self.pkts.pop(0) if self.pkts else None


class RefStrictPriority:
    def __init__(self, params):
        self.pkts = [[] for _ in range(params["n"])]

    def enqueue(self, pkt, qidx, now):
        self.pkts[qidx].append(pkt)

    def dequeue(self, now):
        # queue 0 is the highest priority
        for i in range(len(self.pkts)):
            if self.pkts[i]:
                return self.pkts[i].pop(0)
        return None


class _RefRoundRobin:
    """Shared rotation machinery for the WRR/DWRR references."""

    def __init__(self, n):
        self.pkts = [[] for _ in range(n)]
        self.active = deque()
        self.credit = [0] * n
        self.fresh_turn = [True] * n

    def enqueue(self, pkt, qidx, now):
        if not self.pkts[qidx]:
            self.active.append(qidx)
            self.credit[qidx] = 0
            self.fresh_turn[qidx] = True
        self.pkts[qidx].append(pkt)

    def _turn_credit(self, qidx):
        raise NotImplementedError

    def _cost(self, pkt):
        raise NotImplementedError

    def dequeue(self, now):
        while self.active:
            qidx = self.active[0]
            if self.fresh_turn[qidx]:
                self.credit[qidx] += self._turn_credit(qidx)
                self.fresh_turn[qidx] = False
            head = self.pkts[qidx][0]
            cost = self._cost(head)
            if cost <= self.credit[qidx]:
                self.credit[qidx] -= cost
                pkt = self.pkts[qidx].pop(0)
                if not self.pkts[qidx]:
                    self.active.popleft()
                    self.credit[qidx] = 0
                    self.fresh_turn[qidx] = True
                return pkt
            self.active.rotate(-1)
            self.fresh_turn[qidx] = True
        return None


class RefWrr(_RefRoundRobin):
    """weight whole packets per turn (min 1); credit resets each turn."""

    def __init__(self, params):
        super().__init__(params["n"])
        self.weights = params["weights"]

    def _turn_credit(self, qidx):
        return max(1, round(self.weights[qidx]))

    def _cost(self, pkt):
        return 1

    def dequeue(self, now):
        # WRR credit does not accumulate across turns: a fresh turn
        # *sets* the packet budget rather than adding to a deficit
        while self.active:
            qidx = self.active[0]
            if self.fresh_turn[qidx]:
                self.credit[qidx] = self._turn_credit(qidx)
                self.fresh_turn[qidx] = False
            if self.credit[qidx] > 0:
                self.credit[qidx] -= 1
                pkt = self.pkts[qidx].pop(0)
                if not self.pkts[qidx]:
                    self.active.popleft()
                    self.fresh_turn[qidx] = True
                return pkt
            self.active.rotate(-1)
            self.fresh_turn[qidx] = True
        return None


class RefDwrr(_RefRoundRobin):
    """quantum bytes of deficit per turn, spent on whole packets."""

    def __init__(self, params):
        super().__init__(params["n"])
        self.quanta = params["quanta"]

    def _turn_credit(self, qidx):
        return self.quanta[qidx]

    def _cost(self, pkt):
        return pkt.wire_size


class RefWfq:
    """Self-clocked fair queueing: smallest virtual finish tag wins."""

    def __init__(self, params):
        n = params["n"]
        self.weights = params["weights"]
        self.pkts = [[] for _ in range(n)]
        self.tags = [[] for _ in range(n)]
        self.last_finish = [0.0] * n
        self.vtime = 0.0

    def enqueue(self, pkt, qidx, now):
        start = max(self.vtime, self.last_finish[qidx])
        finish = start + pkt.wire_size / self.weights[qidx]
        self.last_finish[qidx] = finish
        self.pkts[qidx].append(pkt)
        self.tags[qidx].append(finish)

    def dequeue(self, now):
        best = None
        for i, tags in enumerate(self.tags):
            if tags and (best is None or tags[0] < self.tags[best][0]):
                best = i
        if best is None:
            return None
        self.vtime = self.tags[best].pop(0)
        pkt = self.pkts[best].pop(0)
        if not any(self.pkts):
            self.vtime = 0.0
            self.last_finish = [0.0] * len(self.last_finish)
        return pkt


class RefPifoStfq:
    """PIFO with the STFQ rank program: global start-tag order."""

    def __init__(self, params):
        self.weights = params["weights"]
        self.finish = {}
        self.vtime = 0.0
        self.heap = []  # (rank, seq) sorted lazily
        self.seq = 0

    def enqueue(self, pkt, qidx, now):
        start = max(self.vtime, self.finish.get(qidx, 0.0))
        self.finish[qidx] = start + pkt.wire_size / self.weights[qidx]
        self.seq += 1
        self.heap.append((start, self.seq, pkt))

    def dequeue(self, now):
        if not self.heap:
            return None
        self.heap.sort()
        rank, _, pkt = self.heap.pop(0)
        self.vtime = rank
        if not self.heap:
            self.vtime = 0.0
            self.finish.clear()
        return pkt


class RefSpDwrr:
    """Strict high band over a DWRR low band (local indices)."""

    def __init__(self, params):
        n_high = params["n_high"]
        self.n_high = n_high
        self.high = [[] for _ in range(n_high)]
        low_n = params["n"] - n_high
        self.low = RefDwrr(
            {"n": low_n, "quanta": params["quanta"][n_high:]}
        )

    def enqueue(self, pkt, qidx, now):
        if qidx < self.n_high:
            self.high[qidx].append(pkt)
        else:
            self.low.enqueue(pkt, qidx - self.n_high, now)

    def dequeue(self, now):
        for band in self.high:
            if band:
                return band.pop(0)
        return self.low.dequeue(now)


class RefSpWfq(RefSpDwrr):
    def __init__(self, params):
        n_high = params["n_high"]
        self.n_high = n_high
        self.high = [[] for _ in range(n_high)]
        low_n = params["n"] - n_high
        self.low = RefWfq(
            {"n": low_n, "weights": params["weights"][n_high:]}
        )


# -- the randomized equivalence driver -----------------------------------


def _random_trial(make_real, make_ref, seed, n_queues):
    rng = random.Random(seed)
    weights = [rng.choice([0.5, 1.0, 2.0, 3.0]) for _ in range(n_queues)]
    quanta = [rng.choice([500, 1500, 3000]) for _ in range(n_queues)]
    params = {
        "n": n_queues,
        "weights": weights,
        "quanta": quanta,
        "n_high": max(1, n_queues // 3),
    }
    queues = make_queues(n_queues, weights=weights, quanta=quanta)
    real = make_real(queues, params)
    ref = make_ref(params)

    real_order, ref_order = [], []
    now = 0
    backlog = 0
    for op in range(400):
        now += rng.randrange(1, 5000)
        if backlog and rng.random() < 0.45:
            result = real.dequeue(now)
            expected = ref.dequeue(now)
            if result is None:
                assert expected is None
            else:
                real_order.append(id(result[0]))
                ref_order.append(id(expected))
                backlog -= 1
        else:
            for _ in range(rng.randrange(1, 4)):
                pkt = _pkt(op, rng.randrange(0, 1460))
                qidx = rng.randrange(n_queues)
                real.enqueue(pkt, qidx, now)
                ref.enqueue(pkt, qidx, now)
                backlog += 1
    # drain completely: every packet must come out, in the same order
    while True:
        now += 1
        result = real.dequeue(now)
        expected = ref.dequeue(now)
        if result is None:
            assert expected is None
            break
        real_order.append(id(result[0]))
        ref_order.append(id(expected))
    assert real_order == ref_order
    assert real.total_bytes == 0


_DISCIPLINES = {
    "fifo": (lambda qs, p: FifoScheduler([qs[0]]), RefFifo, 1),
    "sp": (lambda qs, p: WfqScheduler(qs, n_high=len(qs)), RefStrictPriority, 4),
    "wrr": (lambda qs, p: WrrScheduler(qs), RefWrr, 4),
    "dwrr": (lambda qs, p: DwrrScheduler(qs), RefDwrr, 4),
    "wfq": (lambda qs, p: WfqScheduler(qs), RefWfq, 4),
    "pifo_stfq": (
        lambda qs, p: PifoScheduler(qs, rank_fn=stfq_rank),
        RefPifoStfq,
        4,
    ),
    "sp_dwrr": (
        lambda qs, p: DwrrScheduler(qs, n_high=p["n_high"]),
        RefSpDwrr,
        6,
    ),
    "sp_wfq": (
        lambda qs, p: WfqScheduler(qs, n_high=p["n_high"]),
        RefSpWfq,
        6,
    ),
}


@pytest.mark.parametrize("name", sorted(_DISCIPLINES))
@pytest.mark.parametrize("seed", range(8))
def test_discipline_matches_reference(name, seed):
    make_real, ref_cls, n_queues = _DISCIPLINES[name]
    # stable per-discipline seed offset (hash() is randomized per process)
    offset = sum(map(ord, name))
    _random_trial(
        make_real, ref_cls, seed=seed * 1000 + offset, n_queues=n_queues
    )


# -- the egress port's single-queue FIFO bypass ---------------------------


class _SubclassedFifo(FifoScheduler):
    """Defeats the port's `type(...) is FifoScheduler` bypass check."""


class _Sink:
    def __init__(self):
        self.order = []

    def receive(self, pkt):
        self.order.append((pkt.flow_id, pkt.seq, pkt.wire_size))


@pytest.mark.parametrize("seed", range(4))
def test_fifo_port_bypass_matches_generic_path(seed):
    rng = random.Random(seed)
    arrivals = []
    t = 0
    for i in range(300):
        t += rng.randrange(0, 3000)
        arrivals.append((t, i, rng.randrange(0, 1460)))

    def run(scheduler_cls):
        sim = Simulator()
        sink = _Sink()
        port = EgressPort(
            sim,
            rate_bps=100 * MBPS,
            buffer_bytes=64_000,
            scheduler=scheduler_cls(),
            link=Link(sink, 1_000),
        )
        for when, i, payload in arrivals:
            sim.schedule(when, partial(port.receive, _pkt(i, payload)))
        sim.run()
        return sink.order, port.stats, port.occupancy

    fast_order, fast_stats, fast_occ = run(FifoScheduler)
    slow_order, slow_stats, slow_occ = run(_SubclassedFifo)
    assert fast_order == slow_order
    assert fast_occ == slow_occ == 0
    for fld in ("rx_pkts", "tx_pkts", "tx_bytes", "dropped_pkts"):
        assert getattr(fast_stats, fld) == getattr(slow_stats, fld), fld
