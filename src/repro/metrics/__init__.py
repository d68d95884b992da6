"""Result collection: FCT statistics, goodput and occupancy time series."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.metrics.fct import FctCollector, FctSummary, percentile
    from repro.metrics.timeseries import GoodputTracker, OccupancySampler

__all__ = [
    "FctCollector",
    "FctSummary",
    "percentile",
    "GoodputTracker",
    "OccupancySampler",
]

_EXPORTS = {
    "FctCollector": "repro.metrics.fct",
    "FctSummary": "repro.metrics.fct",
    "percentile": "repro.metrics.fct",
    "GoodputTracker": "repro.metrics.timeseries",
    "OccupancySampler": "repro.metrics.timeseries",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
