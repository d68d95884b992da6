"""PIAS-style flow scheduling at end hosts."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.pias.tagger import PiasTagger

__all__ = ["PiasTagger"]

_EXPORTS = {
    "PiasTagger": "repro.pias.tagger",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
