"""Active queue management / ECN marking schemes.

Everything the paper evaluates lives here:

* :class:`~repro.aqm.perqueue.PerQueueRed` — current practice (§3.2.1).
* :class:`~repro.aqm.perport.PerPortRed` / ``PerPoolRed`` — §3.2.2.
* :class:`~repro.aqm.dequeue_red.DequeueRed` — Wu et al.'s dequeue marking.
* :class:`~repro.aqm.mqecn.MqEcn` — round-robin-only dynamic thresholds.
* :class:`~repro.aqm.ideal.IdealRed` — Equation 2 driven by the Algorithm 1
  departure-rate meter (:class:`~repro.aqm.ratemeter.RateMeter`).
* :class:`~repro.aqm.codel.CoDel` — sojourn-time AQM, marking mode.
* :class:`repro.core.tcn.Tcn` — the paper's contribution (in ``repro.core``).
"""

from repro import _lazy_exports

_EXPORTS = {
    "Aqm": "repro.aqm.base",
    "PerQueueRed": "repro.aqm.perqueue",
    "PerPortRed": "repro.aqm.perport",
    "PerPoolRed": "repro.aqm.perport",
    "BufferPool": "repro.aqm.perport",
    "DequeueRed": "repro.aqm.dequeue_red",
    "MqEcn": "repro.aqm.mqecn",
    "RateMeter": "repro.aqm.ratemeter",
    "IdealRed": "repro.aqm.ideal",
    "CoDel": "repro.aqm.codel",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
