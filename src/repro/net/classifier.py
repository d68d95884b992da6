"""DSCP-based packet classification (the qdisc prototype's first stage).

The paper's switch classifies packets to queues on the DSCP field set by
end hosts (§5): the DSCP is the queue index, clamped to the number of
queues.
"""

from __future__ import annotations

from repro.net.packet import Packet


class DscpClassifier:
    """Maps ``pkt.dscp`` to a queue index."""

    __slots__ = ("n_queues",)

    def __init__(self, n_queues: int) -> None:
        if n_queues < 1:
            raise ValueError(f"need at least one queue, got {n_queues}")
        self.n_queues = n_queues

    def __call__(self, pkt: Packet) -> int:
        dscp = pkt.dscp
        return dscp if dscp < self.n_queues else self.n_queues - 1
