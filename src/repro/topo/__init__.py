"""Topology builders: the testbed star and the leaf-spine fabric."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.topo.star import StarTopology
    from repro.topo.leafspine import LeafSpineTopology

__all__ = ["StarTopology", "LeafSpineTopology"]

_EXPORTS = {
    "StarTopology": "repro.topo.star",
    "LeafSpineTopology": "repro.topo.leafspine",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
