"""Network substrate: packets, queues, links, switch ports, hosts.

This package is the reproduction's stand-in for both the paper's
server-emulated Linux qdisc switch and its ns-2 simulation substrate.  Every
object here is driven purely by :class:`repro.sim.Simulator` events.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.net.packet import Packet, PacketKind
    from repro.net.queue import PacketQueue
    from repro.net.link import Link
    from repro.net.port import EgressPort, PortStats
    from repro.net.classifier import DscpClassifier
    from repro.net.switch import Switch
    from repro.net.host import Host
    from repro.net.nic import make_nic

__all__ = [
    "Packet",
    "PacketKind",
    "PacketQueue",
    "Link",
    "EgressPort",
    "PortStats",
    "DscpClassifier",
    "Switch",
    "Host",
    "make_nic",
]

_EXPORTS = {
    "Packet": "repro.net.packet",
    "PacketKind": "repro.net.packet",
    "PacketQueue": "repro.net.queue",
    "Link": "repro.net.link",
    "EgressPort": "repro.net.port",
    "PortStats": "repro.net.port",
    "DscpClassifier": "repro.net.classifier",
    "Switch": "repro.net.switch",
    "Host": "repro.net.host",
    "make_nic": "repro.net.nic",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
