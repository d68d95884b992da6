"""Discrete-event simulation core: the event heap and seeded RNG streams."""

from repro import _lazy_exports

_EXPORTS = {
    "EventHandle": "repro.sim.engine",
    "Simulator": "repro.sim.engine",
    "RngFactory": "repro.sim.rng",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
