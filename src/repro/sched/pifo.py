"""PIFO: a programmable Push-In First-Out scheduler.

Models the programmable scheduler of Sivaraman et al. (SIGCOMM'16) that the
paper cites as motivation: packets are pushed with a *rank* computed by an
arbitrary program and always dequeued in rank order.  Because PIFO has no
rounds and no fixed discipline, it is the clearest example of a scheduler
where MQ-ECN is inapplicable but TCN works unchanged (sojourn time needs no
knowledge of the discipline at all).

Two rank programs from the literature are provided:

* :func:`stfq_rank` — Start-Time Fair Queueing, which makes PIFO emulate
  weighted fair queueing.
* :func:`lstf_rank` — Least Slack Time First (Mittal et al., NSDI'16,
  "Universal Packet Scheduling").
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.net.queue import PacketQueue
from repro.sched.base import Scheduler

#: rank program signature: (packet, logical queue, now, scheduler state) -> rank
RankFn = Callable[[Packet, PacketQueue, int, Dict], float]


def stfq_rank(pkt: Packet, queue: PacketQueue, now: int, state: Dict) -> float:
    """Start-Time Fair Queueing rank: PIFO emulating WFQ.

    ``state`` persists across calls: ``vtime`` advances to the start tag of
    each transmitted packet; per-queue ``finish`` accumulates virtual work.
    """
    finish: Dict[int, float] = state.setdefault("finish", {})
    vtime: float = state.get("vtime", 0.0)
    start = max(vtime, finish.get(queue.index, 0.0))
    finish[queue.index] = start + pkt.wire_size / queue.weight
    return start


def lstf_rank(pkt: Packet, queue: PacketQueue, now: int, state: Dict) -> float:
    """Least Slack Time First: rank = remaining slack at arrival.

    The slack budget per service class is configured through
    ``state['slack_ns']`` (a dict: dscp -> slack); packets of unknown
    classes get infinite slack (always yield).
    """
    slack_ns: Dict[int, int] = state.get("slack_ns", {})
    budget = slack_ns.get(pkt.dscp, float("inf"))
    return budget - (now - pkt.ts)


class PifoScheduler(Scheduler):
    """Push-in first-out queue over the logical queue bank.

    The logical :class:`PacketQueue` objects still account bytes and stats
    (so per-queue AQMs and buffer accounting keep working), but the actual
    transmission order is global rank order, not per-queue FIFO.
    """

    __slots__ = ("rank_fn", "rank_state", "_heap", "_push_seq")

    def __init__(self, queues: List[PacketQueue], rank_fn: RankFn = stfq_rank) -> None:
        super().__init__(queues)
        self.rank_fn = rank_fn
        self.rank_state: Dict = {}
        self._heap: List[Tuple[float, int, Packet, PacketQueue]] = []
        self._push_seq = 0

    def enqueue(self, pkt: Packet, qidx: int, now: int) -> None:
        queue = self.queues[qidx]
        rank = self.rank_fn(pkt, queue, now, self.rank_state)
        # Byte/stat accounting happens on the logical queue, but ordering is
        # global: we bypass the queue's deque on purpose.
        queue.bytes += pkt.wire_size
        queue.enqueued_pkts += 1
        if queue.bytes > queue.max_bytes_seen:
            queue.max_bytes_seen = queue.bytes
        self.total_bytes += pkt.wire_size
        self._push_seq += 1
        heapq.heappush(self._heap, (rank, self._push_seq, pkt, queue))

    def dequeue(self, now: int) -> Optional[Tuple[Packet, PacketQueue]]:
        if not self._heap:
            return None
        rank, _, pkt, queue = heapq.heappop(self._heap)
        queue.bytes -= pkt.wire_size
        queue.dequeued_pkts += 1
        queue.dequeued_bytes += pkt.wire_size
        self.total_bytes -= pkt.wire_size
        if self.rank_fn is stfq_rank:
            self.rank_state["vtime"] = rank
            if self.total_bytes == 0:
                self.rank_state["vtime"] = 0.0
                self.rank_state.get("finish", {}).clear()
        return pkt, queue
