"""Traffic workloads: empirical flow-size CDFs and Poisson flow generation."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.workloads.cdf import EmpiricalCdf
    from repro.workloads.distributions import (
        WEB_SEARCH,
        DATA_MINING,
        HADOOP,
        CACHE,
        ALL_WORKLOADS,
        workload_by_name,
    )
    from repro.workloads.generator import FlowGenerator

__all__ = [
    "EmpiricalCdf",
    "WEB_SEARCH",
    "DATA_MINING",
    "HADOOP",
    "CACHE",
    "ALL_WORKLOADS",
    "workload_by_name",
    "FlowGenerator",
]

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

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
