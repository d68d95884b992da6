"""Measurement and traffic applications that run on hosts."""

from repro import _lazy_exports

_EXPORTS = {
    "Pinger": "repro.apps.pinger",
    "IncastApp": "repro.apps.incast",
    "IncastQuery": "repro.apps.incast",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
