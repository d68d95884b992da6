"""ECN-capable transports: DCTCP and ECN* over a shared NewReno base.

The paper's end hosts run DCTCP (testbed and default simulations) and ECN*
(robustness simulations, §6.2.2).  Both are implemented as window-based
senders over a common loss-recovery core; receivers echo CE marks per
packet (ECE) exactly as DCTCP requires.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.transport.flow import Flow
    from repro.transport.base import SenderBase, TransportStats
    from repro.transport.tcp import EcnStarSender, RenoSender
    from repro.transport.dctcp import DctcpSender
    from repro.transport.dcqcn import DcqcnSender
    from repro.transport.receiver import Receiver

__all__ = [
    "Flow",
    "SenderBase",
    "TransportStats",
    "EcnStarSender",
    "RenoSender",
    "DctcpSender",
    "DcqcnSender",
    "Receiver",
]

_EXPORTS = {
    "Flow": "repro.transport.flow",
    "SenderBase": "repro.transport.base",
    "TransportStats": "repro.transport.base",
    "EcnStarSender": "repro.transport.tcp",
    "RenoSender": "repro.transport.tcp",
    "DctcpSender": "repro.transport.dctcp",
    "DcqcnSender": "repro.transport.dcqcn",
    "Receiver": "repro.transport.receiver",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
