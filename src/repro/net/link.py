"""A unidirectional wire: where a port's packets go, and how long they take.

Serialization delay lives in the transmitting :class:`~repro.net.port.
EgressPort` (it depends on the port rate); the link only contributes fixed
propagation delay and the destination node.
"""

from __future__ import annotations

from typing import Protocol

from repro.net.packet import Packet


class Node(Protocol):
    """Anything that can accept a packet: a host or a switch."""

    def receive(self, pkt: Packet) -> None:  # pragma: no cover - protocol
        ...


class Link:
    """Connects an egress port to its downstream node.

    The transmitting port schedules ``dst.receive`` directly via the
    engine's argument-carrying fast path — delivery costs no per-packet
    closure.  ``dst.receive`` is looked up at transmit time (not cached
    here) so tests and instrumentation can substitute a node's
    ``receive`` after wiring.

    >>> # a 10us one-way wire into some node
    >>> # Link(node, 10 * USEC)
    """

    __slots__ = ("dst", "delay_ns")

    def __init__(self, dst: "Node", delay_ns: int) -> None:
        if delay_ns < 0:
            raise ValueError(f"delay_ns must be >= 0, got {delay_ns}")
        self.dst = dst
        self.delay_ns = delay_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link -> {self.dst!r} {self.delay_ns}ns>"
