"""Discrete-event simulation core: the event heap and seeded RNG streams."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.sim.engine import EventHandle, Simulator
    from repro.sim.rng import RngFactory

__all__ = ["EventHandle", "Simulator", "RngFactory"]

_EXPORTS = {
    "EventHandle": "repro.sim.engine",
    "Simulator": "repro.sim.engine",
    "RngFactory": "repro.sim.rng",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
