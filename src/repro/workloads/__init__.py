"""Traffic workloads: empirical flow-size CDFs and Poisson flow generation."""

from repro import _lazy_exports

_EXPORTS = {
    "EmpiricalCdf": "repro.workloads.cdf",
    "WEB_SEARCH": "repro.workloads.distributions",
    "DATA_MINING": "repro.workloads.distributions",
    "HADOOP": "repro.workloads.distributions",
    "CACHE": "repro.workloads.distributions",
    "ALL_WORKLOADS": "repro.workloads.distributions",
    "workload_by_name": "repro.workloads.distributions",
    "FlowGenerator": "repro.workloads.generator",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
