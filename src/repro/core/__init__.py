"""The paper's contribution: TCN and its threshold arithmetic."""

from repro import _lazy_exports

_EXPORTS = {
    "Tcn": "repro.core.tcn",
    "ProbabilisticTcn": "repro.core.tcn",
    "standard_red_threshold_bytes": "repro.core.thresholds",
    "standard_tcn_threshold_ns": "repro.core.thresholds",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
