"""Weighted Fair Queueing, self-clocked (SCFQ) flavour.

Each queue carries a running *virtual finish time*; an arriving packet is
stamped ``max(V, last_finish) + size / weight`` and the scheduler always
transmits the head packet with the smallest stamp, advancing the system
virtual time ``V`` to that stamp.  This is the "maintain a virtual time for
the head packet of each queue, choose the smallest" design the paper's qdisc
prototype describes (§5), and it has no notion of a round — which is why
MQ-ECN cannot run on it while TCN can.

With ``n_high > 0`` the first ``n_high`` queues form a strict-priority
band served in index order ahead of fair queueing over the rest — the
paper's SP/WFQ production scheduler (§5) at ``n_high=1``.  Strict packets
carry no tags.  At ``n_high == len(queues)`` the band is every queue:
pure strict priority (queue 0 first), one of the two fixed-function
disciplines commodity chips offer (§2.2).  It has no rounds either, so
MQ-ECN cannot run on it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.net.packet import Packet
from repro.net.queue import PacketQueue
from repro.sched.base import Scheduler, strict_band


class WfqScheduler(Scheduler):
    """Self-clocked weighted fair queueing after the strict band."""

    __slots__ = ("_high", "_low", "_low_bytes", "_tags", "_last_finish", "_vtime")

    def __init__(self, queues: List[PacketQueue], n_high: int = 0) -> None:
        super().__init__(queues)
        self._high = strict_band(queues, n_high)
        self._low = queues[n_high:]
        for queue in self._low:
            if queue.weight <= 0:
                raise ValueError(
                    f"WFQ weights must be positive (queue {queue.index} "
                    f"has {queue.weight})"
                )
        #: bytes buffered in the fair band (virtual time resets at 0)
        self._low_bytes = 0
        n = len(queues)
        # Virtual finish tag of each buffered packet, FIFO per queue.
        self._tags: List[Deque[float]] = [deque() for _ in range(n)]
        self._last_finish = [0.0] * n
        self._vtime = 0.0

    def enqueue(self, pkt: Packet, qidx: int, now: int) -> None:
        queue = self._account_enqueue(pkt, qidx)
        if qidx < len(self._high):
            return
        self._low_bytes += pkt.wire_size
        start = max(self._vtime, self._last_finish[qidx])
        finish = start + pkt.wire_size / queue.weight
        self._last_finish[qidx] = finish
        self._tags[qidx].append(finish)

    def dequeue(self, now: int) -> Optional[Tuple[Packet, PacketQueue]]:
        for queue in self._high:
            if queue:
                return self._account_dequeue(queue), queue
        best_queue: Optional[PacketQueue] = None
        best_tag = 0.0
        for queue in self._low:
            if not queue:
                continue
            tag = self._tags[queue.index][0]
            if best_queue is None or tag < best_tag:
                best_queue = queue
                best_tag = tag
        if best_queue is None:
            return None
        self._tags[best_queue.index].popleft()
        self._vtime = best_tag
        pkt = self._account_dequeue(best_queue)
        self._low_bytes -= pkt.wire_size
        if self._low_bytes == 0:
            # Fair band idle: reset virtual time so tags do not grow
            # without bound over a long simulation.
            self._vtime = 0.0
            for i in range(len(self._last_finish)):
                self._last_finish[i] = 0.0
        return pkt, best_queue
