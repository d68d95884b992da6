"""Log2-bucketed histograms: the distributions in a run's metrics dict.

``ExperimentResult.metrics`` stores ``fct_ns`` and, on traced runs,
``trace.sojourn_ns`` as :meth:`Histogram.snapshot` dicts.  A value lands
in bucket ``value.bit_length()``, i.e. bucket *i* covers
``[2^(i-1), 2^i)``: memory stays O(64) per histogram regardless of
sample count, ``count``/``sum``/``min``/``max`` stay exact, and
percentile estimates are within a factor of two — ample for sojourn/FCT
distributions that span six decades.  Snapshots of two identical runs
are equal, so cached sweep payloads stay byte-identical.
"""

from __future__ import annotations

from typing import Dict, Optional


class Histogram:
    """Log2-bucketed distribution of non-negative integers."""

    __slots__ = ("name", "buckets", "count", "sum", "min", "max")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name} takes values >= 0, got {value}")
        value = int(value)
        idx = value.bit_length()
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, p: float) -> Optional[float]:
        """Upper bound of the bucket holding the p-th percentile sample.

        Nearest-rank over buckets; exact to within the bucket's factor-of
        -two width (and exact at the extremes via ``min``/``max``).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0,100], got {p}")
        if self.count == 0:
            return None
        rank = max(1, -(-int(p * self.count) // 100))  # ceil(p/100 * n)
        rank = min(rank, self.count)
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                upper = (1 << idx) - 1 if idx else 0
                # clamp the edge buckets to the exact observed extremes
                if self.max is not None:
                    upper = min(upper, self.max)
                if self.min is not None:
                    upper = max(upper, self.min)
                return float(upper)
        raise AssertionError("unreachable: rank <= count")  # pragma: no cover

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def snapshot(self) -> Dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {str(idx): n for idx, n in sorted(self.buckets.items())},
        }
