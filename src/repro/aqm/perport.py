"""Per-port and per-service-pool ECN/RED (§3.2.2).

Marking keys off the occupancy of a *larger egress entity* than the queue
the packet sits in — the whole port, or a buffer pool shared by several
ports.  High throughput and low latency follow, but scheduling policies are
violated: a queue that is within its allocation still gets marked because
*other* queues filled the entity (Remark 2; Figure 1 demonstrates the
resulting DWRR unfairness, which our Fig. 1 bench reproduces).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.aqm.base import Aqm
from repro.net.packet import Packet
from repro.net.queue import PacketQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import EgressPort


class PerPortRed(Aqm):
    """Mark at enqueue when the whole port's occupancy exceeds K."""

    __slots__ = ("threshold_bytes",)

    def __init__(self, threshold_bytes: int) -> None:
        if threshold_bytes < 0:
            raise ValueError(f"threshold_bytes must be >= 0, got {threshold_bytes}")
        self.threshold_bytes = threshold_bytes

    def on_enqueue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        return port.occupancy > self.threshold_bytes


class BufferPool:
    """A shared buffer region spanning several ports (a "service pool").

    Ports attached to a pool charge every buffered byte to it; admission
    fails when the pool is exhausted, and :class:`PerPoolRed` marks on the
    pooled occupancy.  Queues on *different ports* can thus interfere —
    the aggravated form of Remark 2.
    """

    __slots__ = ("capacity_bytes", "occupancy")

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"pool capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.occupancy = 0

    def admit(self, size_bytes: int) -> bool:
        """Would adding ``size_bytes`` stay within the pool?"""
        return self.occupancy + size_bytes <= self.capacity_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BufferPool {self.occupancy}/{self.capacity_bytes}B>"


class PerPoolRed(Aqm):
    """Mark at enqueue when the shared pool's occupancy exceeds K."""

    __slots__ = ("pool", "threshold_bytes")

    def __init__(self, pool: BufferPool, threshold_bytes: int) -> None:
        if threshold_bytes < 0:
            raise ValueError(f"threshold_bytes must be >= 0, got {threshold_bytes}")
        self.pool = pool
        self.threshold_bytes = threshold_bytes

    def setup(self, port: "EgressPort") -> None:
        port.pool = self.pool

    def on_enqueue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        return self.pool.occupancy > self.threshold_bytes
