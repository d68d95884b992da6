"""An end host: a NIC plus a demultiplexer to transport endpoints.

The host owns one NIC egress port toward its switch and a table of
connection halves keyed by flow id.  Data packets go to the registered
receiver half, ACKs to the sender half, and probes are echoed back (the
ping responder used for the paper's RTT measurements, Fig. 5b).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.net.packet import Packet, PacketKind, release
from repro.net.port import EgressPort
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.base import SenderBase
    from repro.transport.receiver import Receiver

# hoisted enum members: receive() compares against these per packet, and
# a module global is one dict probe vs. the Enum class-attribute protocol
_DATA = PacketKind.DATA
_ACK = PacketKind.ACK
_PROBE = PacketKind.PROBE
_PROBE_REPLY = PacketKind.PROBE_REPLY


class Host:
    """One server: NIC + flow demux.

    Deliberately *not* ``__slots__``-ed: there is one Host per server (a
    few dozen per topology, vs. thousands of packets), and the test suite
    instruments delivery by patching ``receive`` on instances.
    """

    def __init__(self, sim: Simulator, host_id: int, nic: EgressPort) -> None:
        self.sim = sim
        self.id = host_id
        self.nic = nic
        self._senders: Dict[int, "SenderBase"] = {}
        self._receivers: Dict[int, "Receiver"] = {}
        self._probe_handlers: Dict[int, Callable[[Packet], None]] = {}

    # -- registration ------------------------------------------------------

    def register_sender(self, flow_id: int, sender: "SenderBase") -> None:
        self._senders[flow_id] = sender

    def register_receiver(self, flow_id: int, receiver: "Receiver") -> None:
        self._receivers[flow_id] = receiver

    def register_probe_handler(
        self, flow_id: int, handler: Callable[[Packet], None]
    ) -> None:
        self._probe_handlers[flow_id] = handler

    # -- data path -----------------------------------------------------------

    def send(self, pkt: Packet) -> None:
        """Push a packet into the NIC toward the network."""
        self.nic.receive(pkt)

    def receive(self, pkt: Packet) -> None:
        """Deliver a packet arriving from the network.

        The host is the packet's terminal hop: once the endpoint handler
        returns, no queue, link or scheduler can still reference the
        frame, so it is released to the packet freelist for reuse.
        """
        kind = pkt.kind
        if kind == _DATA:
            receiver = self._receivers.get(pkt.flow_id)
            if receiver is not None:
                receiver.on_data(pkt)
        elif kind == _ACK:
            sender = self._senders.get(pkt.flow_id)
            if sender is not None:
                sender.on_ack(pkt)
        elif kind == _PROBE:
            self._echo_probe(pkt)
        elif kind == _PROBE_REPLY:
            handler = self._probe_handlers.get(pkt.flow_id)
            if handler is not None:
                handler(pkt)
        release(pkt)

    def _echo_probe(self, probe: Packet) -> None:
        reply = Packet(
            probe.flow_id,
            self.id,
            probe.src,
            PacketKind.PROBE_REPLY,
            dscp=probe.dscp,
            ts=probe.ts,
        )
        self.send(reply)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.id}>"
