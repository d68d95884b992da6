"""Result collection: FCT statistics, goodput and occupancy time series."""

from repro import _lazy_exports

_EXPORTS = {
    "FctCollector": "repro.metrics.fct",
    "FctSummary": "repro.metrics.fct",
    "percentile": "repro.metrics.fct",
    "GoodputTracker": "repro.metrics.timeseries",
    "OccupancySampler": "repro.metrics.timeseries",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
