"""A single FIFO packet queue with byte accounting and statistics.

Schedulers own a list of these; AQMs read their length (in bytes) and record
marks/drops on them.  The queue itself never makes policy decisions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.net.packet import Packet


class PacketQueue:
    """One egress queue of a switch port.

    Attributes
    ----------
    index:
        Position within the owning scheduler (also the DSCP it serves under
        the default classifier).
    weight:
        Relative share for fair-queueing schedulers (WFQ/WRR).
    quantum:
        Bytes served per round for deficit round robin.
    bytes:
        Current backlog in bytes (wire sizes).
    """

    __slots__ = (
        "index",
        "weight",
        "quantum",
        "bytes",
        "_pkts",
        "enqueued_pkts",
        "dequeued_pkts",
        "dequeued_bytes",
        "marked_pkts",
        "dropped_pkts",
        "max_bytes_seen",
    )

    def __init__(
        self,
        index: int,
        weight: float = 1.0,
        quantum: int = 1500,
    ) -> None:
        self.index = index
        self.weight = weight
        self.quantum = quantum
        self.bytes = 0
        self._pkts: Deque[Packet] = deque()
        # statistics
        self.enqueued_pkts = 0
        self.dequeued_pkts = 0
        self.dequeued_bytes = 0
        self.marked_pkts = 0
        self.dropped_pkts = 0
        self.max_bytes_seen = 0

    def push(self, pkt: Packet) -> None:
        """Append ``pkt`` and account for its bytes."""
        self._pkts.append(pkt)
        self.bytes += pkt.wire_size
        self.enqueued_pkts += 1
        if self.bytes > self.max_bytes_seen:
            self.max_bytes_seen = self.bytes

    def pop(self) -> Packet:
        """Remove and return the head packet.  Raises ``IndexError`` if empty."""
        pkt = self._pkts.popleft()
        self.bytes -= pkt.wire_size
        self.dequeued_pkts += 1
        self.dequeued_bytes += pkt.wire_size
        return pkt

    def __len__(self) -> int:
        return len(self._pkts)

    def __bool__(self) -> bool:
        return bool(self._pkts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Queue {self.index} {len(self._pkts)}p/{self.bytes}B "
            f"w={self.weight} q={self.quantum}>"
        )
