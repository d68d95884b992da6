"""PIAS-style flow scheduling at end hosts."""

from repro import _lazy_exports

_EXPORTS = {
    "PiasTagger": "repro.pias.tagger",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
