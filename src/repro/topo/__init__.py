"""Topology builders: the testbed star and the leaf-spine fabric."""

from repro import _lazy_exports

_EXPORTS = {
    "StarTopology": "repro.topo.star",
    "LeafSpineTopology": "repro.topo.leafspine",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
