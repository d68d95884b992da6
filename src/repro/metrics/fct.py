"""Flow-completion-time statistics, binned the way the paper reports them.

The evaluation reports, per scheme and load: average FCT over all flows,
average and 99th-percentile FCT for *small* flows (0, 100 KB], and average
FCT for *large* flows (10 MB, inf); results are normalized to TCN's.  This
module reproduces exactly those statistics.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

from repro.transport.flow import Flow
from repro.units import KB, MB

SMALL_MAX_BYTES = 100 * KB
LARGE_MIN_BYTES = 10 * MB


def percentile(values: List[int], p: float) -> float:
    """Nearest-rank percentile (``p`` in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of empty list")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0,100], got {p}")
    ordered = sorted(values)
    if p == 0:
        return float(ordered[0])
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return float(ordered[min(rank, len(ordered)) - 1])


class FctSummary:
    """The paper's four headline numbers (ns), plus counts.

    A run that completed no flow has ``n_flows == 0`` and every average
    ``None``.
    """

    __slots__ = (
        "n_flows",
        "avg_all_ns",
        "avg_small_ns",
        "p99_small_ns",
        "avg_medium_ns",
        "avg_large_ns",
        "n_small",
        "n_medium",
        "n_large",
    )

    def __init__(
        self,
        n_flows: int,
        avg_all_ns: Optional[float],
        avg_small_ns: Optional[float],
        p99_small_ns: Optional[float],
        avg_medium_ns: Optional[float],
        avg_large_ns: Optional[float],
        n_small: int,
        n_medium: int,
        n_large: int,
    ) -> None:
        self.n_flows = n_flows
        self.avg_all_ns = avg_all_ns
        self.avg_small_ns = avg_small_ns
        self.p99_small_ns = p99_small_ns
        self.avg_medium_ns = avg_medium_ns
        self.avg_large_ns = avg_large_ns
        self.n_small = n_small
        self.n_medium = n_medium
        self.n_large = n_large

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def us(value_ns: Optional[float]) -> str:
            return "-" if value_ns is None else f"{value_ns / 1000.0:.0f}"

        return (
            f"<FctSummary n={self.n_flows} avg={us(self.avg_all_ns)}us "
            f"small_avg={us(self.avg_small_ns)}us>"
        )


class FctCollector:
    """Accumulates completed flows; ``on_complete`` plugs into receivers."""

    def __init__(self) -> None:
        self.flows: List[Flow] = []

    def on_complete(self, flow: Flow) -> None:
        self.flows.append(flow)

    @property
    def count(self) -> int:
        return len(self.flows)

    def summarize(self) -> FctSummary:
        """The paper's FCT statistics over the completed flows, taken in
        completion order."""
        return summarize((f.size_bytes, f.fct_ns) for f in self.flows)


def summarize(pairs: Iterable[Tuple[int, int]]) -> FctSummary:
    """The paper's FCT statistics over ``(size_bytes, fct_ns)`` pairs.

    With no pair every average is ``None``: a run cut short by
    ``max_sim_ns`` still reports what it did.
    """
    all_fcts: List[int] = []
    small: List[int] = []
    medium: List[int] = []
    large: List[int] = []
    for size_bytes, fct_ns in pairs:
        all_fcts.append(fct_ns)
        if size_bytes <= SMALL_MAX_BYTES:
            small.append(fct_ns)
        elif size_bytes > LARGE_MIN_BYTES:
            large.append(fct_ns)
        else:
            medium.append(fct_ns)
    return FctSummary(
        n_flows=len(all_fcts),
        avg_all_ns=_mean(all_fcts),
        avg_small_ns=_mean(small),
        p99_small_ns=percentile(small, 99.0) if small else None,
        avg_medium_ns=_mean(medium),
        avg_large_ns=_mean(large),
        n_small=len(small),
        n_medium=len(medium),
        n_large=len(large),
    )


def _mean(values: List[int]) -> Optional[float]:
    return sum(values) / len(values) if values else None
