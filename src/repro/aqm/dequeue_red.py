"""Dequeue-side queue-length ECN marking (Wu et al., CoNEXT 2012).

Identical signal and threshold to per-queue ECN/RED, but the comparison is
made when a packet *leaves* the queue, against the backlog remaining behind
it.  Because the marked packet reaches the sender one queueing delay sooner
than an enqueue-marked one — and the mark reflects the congestion that
*future* departures will experience — dequeue marking reacts earlier during
buildups, which is why its slow-start peak in Fig. 3 is ~2xBDP rather than
~3xBDP.  It is still queue-length based, so it inherits every §3 problem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.aqm.base import Aqm
from repro.aqm.perqueue import PerQueueThresholds
from repro.net.packet import Packet
from repro.net.queue import PacketQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import EgressPort


class DequeueRed(PerQueueThresholds, Aqm):
    """Per-queue static threshold, evaluated on the dequeue side."""

    __slots__ = ()

    def on_dequeue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        # ``pkt`` has already been removed: queue.bytes is the backlog the
        # departing packet leaves behind, i.e. the current queue length.
        return queue.bytes > self._K[id(queue)]
