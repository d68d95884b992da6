"""ECN-capable transports: DCTCP and ECN* over a shared NewReno base.

The paper's end hosts run DCTCP (testbed and default simulations) and ECN*
(robustness simulations, §6.2.2).  Both are implemented as window-based
senders over a common loss-recovery core; receivers echo CE marks per
packet (ECE) exactly as DCTCP requires.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Flow": "repro.transport.flow",
    "SenderBase": "repro.transport.base",
    "TransportStats": "repro.transport.base",
    "EcnStarSender": "repro.transport.tcp",
    "RenoSender": "repro.transport.tcp",
    "DctcpSender": "repro.transport.dctcp",
    "Receiver": "repro.transport.receiver",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
