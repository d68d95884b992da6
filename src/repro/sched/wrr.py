"""Weighted Round Robin (WRR): ``weight`` whole packets per service turn.

Simpler (and less byte-fair) than DWRR — included because the paper lists
WRR alongside DWRR as the round-robin disciplines MQ-ECN supports, so our
MQ-ECN implementation must run on it too.  The round observer fires exactly
as in :class:`~repro.sched.dwrr.DwrrScheduler`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.net.packet import Packet
from repro.net.queue import PacketQueue
from repro.sched.base import Scheduler


class WrrScheduler(Scheduler):
    """Round robin serving ``round(weight)`` packets per turn (min 1)."""

    __slots__ = (
        "_active", "_in_active", "_credit", "_needs_refresh",
        "_last_turn_start",
    )

    @property
    def supports_rounds(self) -> bool:
        return True

    def __init__(self, queues: List[PacketQueue]) -> None:
        super().__init__(queues)
        n = len(queues)
        self._active: Deque[PacketQueue] = deque()
        self._in_active = [False] * n
        self._credit = [0] * n
        self._needs_refresh = [True] * n
        self._last_turn_start: List[Optional[int]] = [None] * n

    def _packets_per_turn(self, queue: PacketQueue) -> int:
        return max(1, round(queue.weight))

    def enqueue(self, pkt: Packet, qidx: int, now: int) -> None:
        queue = self._account_enqueue(pkt, qidx)
        if not self._in_active[qidx]:
            self._active.append(queue)
            self._in_active[qidx] = True
            self._credit[qidx] = 0
            self._needs_refresh[qidx] = True
            self._last_turn_start[qidx] = None

    def dequeue(self, now: int) -> Optional[Tuple[Packet, PacketQueue]]:
        active = self._active
        while active:
            queue = active[0]
            idx = queue.index
            if self._needs_refresh[idx]:
                last = self._last_turn_start[idx]
                if last is not None and self.round_observer is not None and now > last:
                    self.round_observer(queue, now - last, now)
                self._last_turn_start[idx] = now
                self._credit[idx] = self._packets_per_turn(queue)
                self._needs_refresh[idx] = False
            if self._credit[idx] > 0:
                self._credit[idx] -= 1
                pkt = self._account_dequeue(queue)
                if not queue:
                    active.popleft()
                    self._in_active[idx] = False
                    self._needs_refresh[idx] = True
                return pkt, queue
            active.popleft()
            active.append(queue)
            self._needs_refresh[idx] = True
        return None
