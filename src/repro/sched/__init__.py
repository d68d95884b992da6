"""Packet schedulers: FIFO, SP, WRR, DWRR, WFQ (each of the last two with
an optional strict-priority band: SP/DWRR, SP/WFQ), and PIFO.

All schedulers share the :class:`~repro.sched.base.Scheduler` interface so an
egress port (and any AQM) is agnostic to the discipline — the property that
TCN exploits and queue-length ECN/RED cannot.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Scheduler": "repro.sched.base",
    "FifoScheduler": "repro.sched.fifo",
    "StrictPriorityScheduler": "repro.sched.sp",
    "WrrScheduler": "repro.sched.wrr",
    "DwrrScheduler": "repro.sched.dwrr",
    "WfqScheduler": "repro.sched.wfq",
    "SpDwrrScheduler": "repro.sched.dwrr",
    "SpWfqScheduler": "repro.sched.wfq",
    "PifoScheduler": "repro.sched.pifo",
    "stfq_rank": "repro.sched.pifo",
    "lstf_rank": "repro.sched.pifo",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
