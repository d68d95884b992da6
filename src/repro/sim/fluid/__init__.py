"""Fluid-flow simulation: long flows as rates, not packets.

Long-lived flows dominate event counts (a 25 MB transfer is ~17k data
packets, each costing several events) while their behaviour is the part
of the system analytical models describe best: DCTCP drives every
long flow to its max-min fair share and holds the bottleneck queue at
the marking threshold.  This package models exactly that — flows become
piecewise-constant rates solved per link, re-evaluated only at
*rate-change epochs* (flow start/finish, share change, AQM threshold
crossing), so a second of simulated time costs hundreds of events
instead of millions.

Three pieces:

* :mod:`repro.sim.fluid.solver` — progressive water-filling max-min
  fair shares (the classical fluid abstraction; the analytical ECN
  treatment follows PCN's admission model, arxiv 1208.2314).
* :mod:`repro.sim.fluid.model` — per-flow / per-link fluid state.
* :mod:`repro.sim.fluid.network` — the epoch engine riding the normal
  :class:`~repro.sim.engine.Simulator` event queue, plus the hybrid
  coupling to packet-mode :class:`~repro.net.port.EgressPort` s.

See ``docs/FLUID.md`` for the model, its invariants, and its known
error bounds (and when *not* to trust it).
"""

from repro import _lazy_exports

_EXPORTS = {
    "build_fluid_network": "repro.sim.fluid.build",
    "split_flows": "repro.sim.fluid.build",
    "FluidFlow": "repro.sim.fluid.model",
    "FluidLink": "repro.sim.fluid.model",
    "FluidNetwork": "repro.sim.fluid.network",
    "max_min_shares": "repro.sim.fluid.solver",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
