"""Measurement and traffic applications that run on hosts."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.apps.pinger import Pinger
    from repro.apps.incast import IncastApp, IncastQuery

__all__ = ["Pinger", "IncastApp", "IncastQuery"]

_EXPORTS = {
    "Pinger": "repro.apps.pinger",
    "IncastApp": "repro.apps.incast",
    "IncastQuery": "repro.apps.incast",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
