"""Network substrate: packets, queues, links, switch ports, hosts.

This package is the reproduction's stand-in for both the paper's
server-emulated Linux qdisc switch and its ns-2 simulation substrate.  Every
object here is driven purely by :class:`repro.sim.Simulator` events.
"""

from repro import _lazy_exports

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

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
