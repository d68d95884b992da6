"""Deficit Weighted Round Robin (DWRR), optionally behind a strict band.

The classic Shreedhar-Varghese discipline: active queues sit in a circular
list; each time a queue reaches the head of the list it earns ``quantum``
bytes of deficit, spends it on whole packets, and rotates to the tail when
the head packet no longer fits.

With ``n_high > 0`` the first ``n_high`` queues form a strict-priority
band served in index order ahead of the round robin — the paper's SP/DWRR
production scheduler (§5) at ``n_high=1``.  The round robin only runs when
every strict queue is empty.

This implementation additionally measures the *round time* — the interval
between two consecutive service-turn starts of the same queue — and reports
it through :attr:`~repro.sched.base.Scheduler.round_observer`.  That is the
quantity MQ-ECN divides the quantum by to estimate queue capacity (§3.3),
and is exactly the per-queue timestamp the paper's qdisc prototype keeps
(§5, "to implement MQ-ECN, we maintain a timestamp for each queue to track
round time").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.net.packet import Packet
from repro.net.queue import PacketQueue
from repro.sched.base import Scheduler, strict_band


class DwrrScheduler(Scheduler):
    """Deficit weighted round robin over the queues after the strict band."""

    __slots__ = (
        "_high", "_active", "_in_active", "_deficit", "_needs_refresh",
        "_last_turn_start",
    )

    supports_rounds = True

    def __init__(self, queues: List[PacketQueue], n_high: int = 0) -> None:
        super().__init__(queues)
        self._high = strict_band(queues, n_high)
        n = len(queues)
        self._active: Deque[PacketQueue] = deque()
        # strict queues count as permanently active so enqueue never
        # puts them in the rotation (and needs no band test)
        self._in_active = [True] * n_high + [False] * (n - n_high)
        self._deficit = [0] * n
        self._needs_refresh = [True] * n
        self._last_turn_start: List[Optional[int]] = [None] * n

    def enqueue(self, pkt: Packet, qidx: int, now: int) -> None:
        # inlined PacketQueue.push + byte accounting (hot path)
        queue = self.queues[qidx]
        queue._pkts.append(pkt)
        size = pkt.wire_size
        queue.bytes = qbytes = queue.bytes + size
        queue.enqueued_pkts += 1
        if qbytes > queue.max_bytes_seen:
            queue.max_bytes_seen = qbytes
        self.total_bytes += size
        if not self._in_active[qidx]:
            self._active.append(queue)
            self._in_active[qidx] = True
            self._deficit[qidx] = 0
            self._needs_refresh[qidx] = True
            # A queue that went idle and came back starts a fresh round
            # history: the gap while idle is not a service-round sample.
            self._last_turn_start[qidx] = None

    def dequeue(self, now: int) -> Optional[Tuple[Packet, PacketQueue]]:
        for queue in self._high:
            pkts = queue._pkts
            if pkts:
                # inlined PacketQueue.pop + byte accounting (hot path)
                pkt = pkts.popleft()
                size = pkt.wire_size
                queue.bytes -= size
                queue.dequeued_pkts += 1
                queue.dequeued_bytes += size
                self.total_bytes -= size
                return pkt, queue
        active = self._active
        deficit = self._deficit
        refresh = self._needs_refresh
        while active:
            queue = active[0]
            idx = queue.index
            pkts = queue._pkts
            if refresh[idx]:
                # A new service turn: report the round time since this
                # queue's previous turn start, then earn one quantum.
                last = self._last_turn_start[idx]
                observer = self.round_observer
                if last is not None and observer is not None and now > last:
                    observer(queue, now - last, now)
                self._last_turn_start[idx] = now
                deficit[idx] += queue.quantum
                refresh[idx] = False
            # active queues are never empty; direct head peek (hot path)
            head_size = pkts[0].wire_size
            if head_size <= deficit[idx]:
                deficit[idx] -= head_size
                # inlined PacketQueue.pop + byte accounting (hot path)
                pkt = pkts.popleft()
                queue.bytes -= head_size
                queue.dequeued_pkts += 1
                queue.dequeued_bytes += head_size
                self.total_bytes -= head_size
                if not pkts:
                    active.popleft()
                    self._in_active[idx] = False
                    deficit[idx] = 0
                    refresh[idx] = True
                return pkt, queue
            # Deficit exhausted: rotate to the tail; the next visit starts a
            # new service turn (and earns a new quantum).
            active.popleft()
            active.append(queue)
            refresh[idx] = True
        return None
