"""Time-series instrumentation: goodput curves and buffer occupancy traces.

* :class:`GoodputTracker` records application bytes delivered per key
  (service, queue, host...) and answers windowed rates — the data behind
  Fig. 1 and Fig. 5a.
* :class:`OccupancySampler` snapshots a port's buffered bytes on every
  enqueue/dequeue, via the port's ``occupancy_tracker`` hook — the data
  behind Fig. 3.

Both record in simulated-time order (the event loop only moves forward),
which the query paths exploit: timestamps and cumulative prefix sums live
in parallel arrays, so a windowed query is two ``bisect`` calls and a
subtraction — O(log n) — instead of a scan over every sample ever taken.
The Fig. 5 benches take hundreds of thousands of samples and query dozens
of windows; per-call scans made the queries rival the simulation itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.net.port import EgressPort
from repro.units import SEC


class _CumSeries:
    """Parallel arrays (time, cumulative value)."""

    __slots__ = ("times", "cum")

    def __init__(self) -> None:
        self.times: List[int] = []
        self.cum: List[int] = []

    def append(self, t: int, value: int) -> None:
        self.times.append(t)
        self.cum.append(value + (self.cum[-1] if self.cum else 0))

    def sum_half_open(self, t_from: int, t_to: int) -> int:
        """Sum of values with timestamp in ``(t_from, t_to]``."""
        lo = bisect_right(self.times, t_from)
        hi = bisect_right(self.times, t_to)
        if hi <= lo:
            return 0
        return self.cum[hi - 1] - (self.cum[lo - 1] if lo else 0)


class GoodputTracker:
    """Accumulates (time, bytes) deliveries per key.

    ``record`` must be called with non-decreasing ``now`` (true for any
    simulation-driven caller); queries are then O(log n) bisects over
    cumulative byte counts.
    """

    def __init__(self) -> None:
        self._events: Dict[int, _CumSeries] = defaultdict(_CumSeries)

    def record(self, key: int, nbytes: int, now: int) -> None:
        self._events[key].append(now, nbytes)

    def goodput_bps(self, key: int, t_from_ns: int, t_to_ns: int) -> float:
        """Average delivery rate for ``key`` over a window."""
        if t_to_ns <= t_from_ns:
            raise ValueError("empty window")
        total = self._events[key].sum_half_open(t_from_ns, t_to_ns)
        return total * 8 * SEC / (t_to_ns - t_from_ns)


class OccupancySampler:
    """Traces one port's buffer occupancy over time.

    Samples arrive in time order, so windowed queries bisect the
    timestamp array; means additionally use a cumulative-occupancy prefix
    array, making ``mean_in_window`` O(log n) and ``peak_bytes`` O(1).
    (``max_in_window`` still scans the — bisect-bounded — window: the
    steady-state windows the benches query are a small slice of the
    trace.)
    """

    def __init__(self, port: EgressPort) -> None:
        self._times: List[int] = []
        self._occs: List[int] = []
        self._cum: List[int] = []
        self._peak = 0
        port.occupancy_tracker = self._on_change

    def _on_change(self, now: int, occupancy: int) -> None:
        self._times.append(now)
        self._occs.append(occupancy)
        self._cum.append(occupancy + (self._cum[-1] if self._cum else 0))
        if occupancy > self._peak:
            self._peak = occupancy

    @property
    def peak_bytes(self) -> int:
        return self._peak

    def _window(self, t_from_ns: int, t_to_ns: int) -> Tuple[int, int]:
        """Index range [lo, hi) of samples with ``t_from <= t <= t_to``."""
        lo = bisect_left(self._times, t_from_ns)
        hi = bisect_right(self._times, t_to_ns)
        return lo, hi

    def max_in_window(self, t_from_ns: int, t_to_ns: int) -> int:
        lo, hi = self._window(t_from_ns, t_to_ns)
        if hi <= lo:
            return 0
        return max(self._occs[lo:hi])

    def mean_in_window(self, t_from_ns: int, t_to_ns: int) -> float:
        lo, hi = self._window(t_from_ns, t_to_ns)
        if hi <= lo:
            return 0.0
        total = self._cum[hi - 1] - (self._cum[lo - 1] if lo else 0)
        return total / (hi - lo)
