"""The paper's contribution: TCN and its threshold arithmetic."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.core.tcn import Tcn, ProbabilisticTcn
    from repro.core.thresholds import (
        standard_red_threshold_bytes,
        standard_tcn_threshold_ns,
        ideal_red_threshold_bytes,
    )

__all__ = [
    "Tcn",
    "ProbabilisticTcn",
    "standard_red_threshold_bytes",
    "standard_tcn_threshold_ns",
    "ideal_red_threshold_bytes",
]

_EXPORTS = {
    "Tcn": "repro.core.tcn",
    "ProbabilisticTcn": "repro.core.tcn",
    "standard_red_threshold_bytes": "repro.core.thresholds",
    "standard_tcn_threshold_ns": "repro.core.thresholds",
    "ideal_red_threshold_bytes": "repro.core.thresholds",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
