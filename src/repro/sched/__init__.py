"""Packet schedulers: FIFO, WRR, DWRR, WFQ and PIFO.  DWRR and WFQ serve
an optional strict-priority band of their first ``n_high`` queues ahead
of the rest (SP/DWRR, SP/WFQ); WFQ with every queue in the band is
strict priority (SP).

All schedulers share the :class:`~repro.sched.base.Scheduler` interface so an
egress port (and any AQM) is agnostic to the discipline — the property that
TCN exploits and queue-length ECN/RED cannot.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Scheduler": "repro.sched.base",
    "FifoScheduler": "repro.sched.fifo",
    "WrrScheduler": "repro.sched.wrr",
    "DwrrScheduler": "repro.sched.dwrr",
    "WfqScheduler": "repro.sched.wfq",
    "PifoScheduler": "repro.sched.pifo",
    "stfq_rank": "repro.sched.pifo",
    "lstf_rank": "repro.sched.pifo",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
