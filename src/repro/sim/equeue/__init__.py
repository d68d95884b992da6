"""Pluggable event-queue backends for :class:`repro.sim.engine.Simulator`.

Three interchangeable priority-queue structures over the engine's entry
tuples, all guaranteed to produce the exact same ``(time, seq)`` event
order (the golden-digest tests enforce this bit-for-bit):

``heap``
    The historical binary heap — the default.  Hard to beat at small
    event populations; the engine keeps an inlined fast path for it.
``ladder``
    Calendar/ladder queue with lazily resized buckets and a far-future
    overflow heap.  O(1)-amortized push; wins once the event population
    grows past a few hundred (leaf-spine sweeps, churn-heavy runs).
``wheel``
    Hierarchical 64-ary timer wheel with physical O(1) cancellation.
    Built for long-deadline, mostly-cancelled timer populations.

``auto`` resolves to a backend heuristically — at the Simulator level it
means "the ladder" (the best general-purpose structure beyond toy
scale); :func:`repro.harness.config.resolve_equeue` applies the
workload-aware version for experiments.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Iterator, Mapping, Type, Union

from repro import _lazy_exports
from repro.sim.equeue.base import Entry, EventQueue
from repro.sim.equeue.heap import HeapEventQueue

if TYPE_CHECKING:
    from repro.sim.equeue.ladder import LadderEventQueue
    from repro.sim.equeue.wheel import TimerWheelEventQueue

_EXPORTS = {
    "LadderEventQueue": "repro.sim.equeue.ladder",
    "TimerWheelEventQueue": "repro.sim.equeue.wheel",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)


class _Backends(Mapping[str, Type[EventQueue]]):
    """Backend name -> class; a backend's module loads on first lookup.

    Iteration, ``in`` and ``sorted()`` work on the names alone, so option
    parsing and config validation never import a backend they do not run.
    """

    _CLASSES = {
        "heap": "HeapEventQueue",
        "ladder": "LadderEventQueue",
        "wheel": "TimerWheelEventQueue",
    }

    def __getitem__(self, name: str) -> Type[EventQueue]:
        # plain attribute access on this package: heap is already bound,
        # ladder and wheel arrive through the lazy table above
        cls: Type[EventQueue] = getattr(
            sys.modules[__name__], self._CLASSES[name]
        )
        return cls

    def __contains__(self, name: object) -> bool:
        return name in self._CLASSES  # the mixin would call __getitem__

    def __iter__(self) -> Iterator[str]:
        return iter(self._CLASSES)

    def __len__(self) -> int:
        return len(self._CLASSES)


#: registry of selectable backends (name -> class)
BACKENDS: Mapping[str, Type[EventQueue]] = _Backends()

#: what ``auto`` means when nothing is known about the workload
AUTO_BACKEND = "ladder"

EQueueSpec = Union[str, EventQueue, None]


def make_equeue(spec: EQueueSpec = None) -> EventQueue:
    """Build (or pass through) an event-queue backend.

    ``spec`` may be a backend name from :data:`BACKENDS`, ``"auto"``,
    ``None`` (the default heap), or an already-constructed
    :class:`EventQueue` instance (tests inject pre-tuned ones).
    """
    if isinstance(spec, EventQueue):
        return spec
    name = spec or HeapEventQueue.name
    if name == "auto":
        name = AUTO_BACKEND
    cls = BACKENDS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown event-queue backend {spec!r}: expected one of "
            f"{sorted(BACKENDS)} or 'auto'"
        )
    return cls()


__all__ = [
    "AUTO_BACKEND",
    "BACKENDS",
    "Entry",
    "EQueueSpec",
    "EventQueue",
    "HeapEventQueue",
    "LadderEventQueue",
    "TimerWheelEventQueue",
    "make_equeue",
]
