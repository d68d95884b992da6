"""A multi-port output-queued switch.

Forwarding is an arbitrary routing function ``(packet) -> egress port``;
topologies install static destination-based tables (star) or ECMP-hashed
ones (leaf-spine).  The switch fabric itself is modelled as instantaneous
(output-queued), which matches ns-2's default node model and keeps all
queueing at the egress ports where the paper's schemes operate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.packet import Packet
from repro.net.port import EgressPort
from repro.sim.engine import Simulator


class Switch:
    """Output-queued switch: ports plus a routing function.

    Deliberately *not* ``__slots__``-ed: a topology holds a handful of
    switches (vs. thousands of packets), and the test suite instruments
    forwarding by patching ``receive`` on instances.
    """

    def __init__(self, sim: Simulator, name: str = "sw") -> None:
        self.sim = sim
        self.name = name
        self.ports: List[EgressPort] = []
        #: routing override; when None, the destination table is used
        self.route_fn: Optional[Callable[[Packet], EgressPort]] = None
        self._dst_table: Dict[int, EgressPort] = {}

    def add_port(self, port: EgressPort) -> EgressPort:
        """Register an egress port (created by the topology builder)."""
        self.ports.append(port)
        return port

    def set_route(self, dst_host: int, port: EgressPort) -> None:
        """Static destination route: packets to ``dst_host`` leave via ``port``."""
        self._dst_table[dst_host] = port

    def receive(self, pkt: Packet) -> None:
        """Forward an arriving packet to its egress port."""
        if self.route_fn is not None:
            port = self.route_fn(pkt)
        else:
            port = self._dst_table.get(pkt.dst)
            if port is None:
                raise LookupError(
                    f"switch {self.name}: no route for destination {pkt.dst}"
                )
        port.receive(pkt)

    # -- aggregate statistics --------------------------------------------

    def total_drops(self) -> int:
        return sum(p.stats.dropped_pkts for p in self.ports)

    def total_marks(self) -> int:
        return sum(p.stats.marked_pkts for p in self.ports)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.name} {len(self.ports)} ports>"
