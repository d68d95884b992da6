"""Periodic RTT probing — the paper's `ping` measurement (Fig. 5b).

A :class:`Pinger` sends small probe packets at a fixed interval through the
same switch queues as data traffic (the probe's DSCP selects the queue);
the destination host echoes each probe and the measured round-trip times
accumulate in :attr:`Pinger.rtts_ns`.
"""

from __future__ import annotations

from typing import List

from repro.net.host import Host
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Simulator


class Pinger:
    """Sends probes from ``host`` to ``dst_host_id`` every ``interval_ns``."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst_host_id: int,
        flow_id: int,
        dscp: int = 0,
        interval_ns: int = 1_000_000,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        self.sim = sim
        self.host = host
        self.dst = dst_host_id
        self.flow_id = flow_id
        self.dscp = dscp
        self.interval_ns = interval_ns
        self.rtts_ns: List[int] = []
        self._running = False
        host.register_probe_handler(flow_id, self._on_reply)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._send_probe()

    def _send_probe(self) -> None:
        probe = Packet(
            self.flow_id,
            self.host.id,
            self.dst,
            PacketKind.PROBE,
            dscp=self.dscp,
            ts=self.sim.now,
        )
        self.host.send(probe)
        self.sim.schedule(self.interval_ns, self._send_probe)

    def _on_reply(self, reply: Packet) -> None:
        self.rtts_ns.append(self.sim.now - reply.ts)
