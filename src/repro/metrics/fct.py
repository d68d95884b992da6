"""Flow-completion-time statistics, binned the way the paper reports them.

The evaluation reports, per scheme and load: average FCT over all flows,
average and 99th-percentile FCT for *small* flows (0, 100 KB], and average
FCT for *large* flows (10 MB, inf); results are normalized to TCN's.  This
module reproduces exactly those statistics.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

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
        """Compute the paper's FCT statistics over completed flows.

        With no completed flow every average is ``None``: a run cut short
        by ``max_sim_ns`` still reports what it did.
        """
        all_fcts = [f.fct_ns for f in self.flows]
        small = [f.fct_ns for f in self.flows if f.size_bytes <= SMALL_MAX_BYTES]
        large = [f.fct_ns for f in self.flows if f.size_bytes > LARGE_MIN_BYTES]
        medium = [
            f.fct_ns
            for f in self.flows
            if SMALL_MAX_BYTES < f.size_bytes <= LARGE_MIN_BYTES
        ]
        return FctSummary(
            n_flows=len(all_fcts),
            avg_all_ns=_mean(all_fcts) if all_fcts else None,
            avg_small_ns=_mean(small) if small else None,
            p99_small_ns=percentile(small, 99.0) if small else None,
            avg_medium_ns=_mean(medium) if medium else None,
            avg_large_ns=_mean(large) if large else None,
            n_small=len(small),
            n_medium=len(medium),
            n_large=len(large),
        )


def _mean(values: Iterable[int]) -> float:
    values = list(values)
    return sum(values) / len(values)


def normalized(
    summaries: Dict[str, FctSummary], baseline: str, field: str
) -> Dict[str, Optional[float]]:
    """Each scheme's ``field`` divided by the baseline scheme's (the paper
    normalizes all FCT plots to TCN = 1.0)."""
    base = getattr(summaries[baseline], field)
    out: Dict[str, Optional[float]] = {}
    for name, summary in summaries.items():
        value = getattr(summary, field)
        if value is None or base is None or base == 0:
            out[name] = None
        else:
            out[name] = value / base
    return out
