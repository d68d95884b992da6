"""The scheduler interface every discipline implements.

A scheduler owns an ordered list of :class:`~repro.net.queue.PacketQueue`
objects and answers exactly two questions: where does an arriving packet go
(``enqueue``) and which packet leaves next (``dequeue``).  Buffer admission
and ECN marking live *outside* the scheduler, in the egress port and AQM —
mirroring the separation in real switching chips (and in the paper's qdisc
prototype, whose five components are classifier, enqueue marking, scheduler,
rate limiter, dequeue marking).

Round-robin schedulers additionally expose ``round_observer``: a callback
``(queue, round_time_ns, now)`` fired each time a queue starts a new service
round.  MQ-ECN hooks this to estimate per-queue capacity as
``quantum / T_round`` — and the hook's *absence* on non-round schedulers is
precisely the paper's point about MQ-ECN's limited generality.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.net.packet import Packet
from repro.net.queue import PacketQueue

RoundObserver = Callable[[PacketQueue, int, int], None]


class Scheduler:
    """Abstract multi-queue packet scheduler."""

    __slots__ = ("queues", "total_bytes", "round_observer")

    def __init__(self, queues: List[PacketQueue]) -> None:
        if not queues:
            raise ValueError("n_queues must be >= 1: a scheduler needs a queue")
        self.queues = queues
        self.total_bytes = 0
        self.round_observer: Optional[RoundObserver] = None

    # -- interface -------------------------------------------------------

    def enqueue(self, pkt: Packet, qidx: int, now: int) -> None:
        """Insert ``pkt`` into queue ``qidx`` at time ``now``."""
        raise NotImplementedError

    def dequeue(self, now: int) -> Optional[Tuple[Packet, PacketQueue]]:
        """Remove and return ``(packet, queue_it_came_from)``, or ``None``."""
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------

    def _account_enqueue(self, pkt: Packet, qidx: int) -> PacketQueue:
        queue = self.queues[qidx]
        queue.push(pkt)
        self.total_bytes += pkt.wire_size
        return queue

    def _account_dequeue(self, queue: PacketQueue) -> Packet:
        pkt = queue.pop()
        self.total_bytes -= pkt.wire_size
        return pkt

    @property
    def supports_rounds(self) -> bool:
        """Whether some queue takes round-robin turns, which MQ-ECN needs."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {len(self.queues)}q {self.total_bytes}B>"


def strict_band(queues: List[PacketQueue], n_high: int) -> Sequence[PacketQueue]:
    """The first ``n_high`` queues: a strict-priority band, served in index
    order ahead of a fair-queued discipline over the rest.  With
    ``n_high == len(queues)`` the band is the whole bank: strict priority
    (queue 0 first)."""
    if not 0 <= n_high <= len(queues):
        raise ValueError(
            f"need 0 <= n_high <= n_queues, got n_high={n_high} "
            f"with {len(queues)} queues"
        )
    return tuple(queues[:n_high])


def make_queues(n: int, quanta: Optional[List[int]] = None) -> List[PacketQueue]:
    """Convenience constructor for a bank of equal-weight queues.

    >>> qs = make_queues(4, quanta=[1500] * 4)
    >>> [q.index for q in qs]
    [0, 1, 2, 3]
    """
    queues = []
    for i in range(n):
        queues.append(
            PacketQueue(index=i, quantum=quanta[i] if quanta else 1500)
        )
    return queues
