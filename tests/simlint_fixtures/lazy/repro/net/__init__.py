"""Lazy-package fixture: the ``__init__`` idiom every ``repro`` package uses.

Nothing is imported at run time; the names are served by the PEP 562 table
and the real imports sit under ``TYPE_CHECKING``.  simlint must still see
through the package to each name's home module (see
``repro/transport/bad_lazy_reexport.py``).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.net.packet import make_data, release

__all__ = ["make_data", "release"]

_EXPORTS = {
    "make_data": "repro.net.packet",
    "release": "repro.net.packet",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
