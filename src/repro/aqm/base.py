"""The AQM interface: two hooks around the scheduler.

An AQM instance is attached to one egress port.  The port calls

* :meth:`Aqm.on_enqueue` after buffer admission, *before* the packet enters
  its queue (queue-length schemes decide here), and
* :meth:`Aqm.on_dequeue` right after the scheduler picks a packet (sojourn
  time schemes — TCN, CoDel — decide here; the packet's ``enq_ts`` was
  stamped by the port at enqueue, modelling the 2-byte enqueue-timestamp
  metadata of §4.2).

A hook returning ``True`` requests a CE mark.  The port only applies it when
the packet carries ECT; non-ECT packets are never marked (and, per the
paper's marking-only design, never AQM-dropped either — only buffer overflow
drops packets).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.packet import Packet
from repro.net.queue import PacketQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import EgressPort


class Aqm:
    """Base class: never marks.  Subclasses override one or both hooks."""

    __slots__ = ()

    def setup(self, port: "EgressPort") -> None:
        """Called once when the AQM is attached to its port."""

    def on_enqueue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        """Marking decision at enqueue; ``queue`` does not yet hold ``pkt``."""
        return False

    def on_dequeue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        """Marking decision at dequeue; ``pkt`` has left ``queue``."""
        return False
