"""Algorithm 1: departure-rate (queue-capacity) measurement, from PIE.

The best general-purpose capacity estimator the paper found (§3.3): start a
measurement cycle only when the backlog exceeds ``dq_thresh`` (so the queue
stays busy throughout), count departed bytes, and close the cycle once
``dq_count`` crosses ``dq_thresh``, yielding one rate sample that is then
EWMA-smoothed.

The whole point of reproducing this faithfully is to reproduce its
*failure mode* (Fig. 2): with ``dq_thresh`` below the DWRR quantum the
samples oscillate wildly between the line rate and a too-low rate and the
smoothed estimate converges to the wrong value; with a large ``dq_thresh``
there are too few samples to track capacity changes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.units import SEC


class RateMeter:
    """One queue's departure-rate estimator (Table 1 / Algorithm 1).

    Parameters
    ----------
    dq_thresh_bytes:
        Both the backlog level that opens a measurement cycle and the byte
        count that closes it.  PIE's conventional value is 10 KB.
    avg_weight:
        EWMA weight kept by the *old* average when a new sample arrives
        (the paper's "averaging parameter", 0.875).
    record_samples:
        When True, every ``(time, sample_rate, smoothed_rate)`` triple is
        appended to :attr:`samples` — used by the Fig. 2 bench.
    """

    __slots__ = (
        "dq_thresh",
        "avg_weight",
        "is_measure",
        "dq_count",
        "dq_start",
        "avg_rate",
        "sample_count",
        "samples",
        "record_samples",
    )

    def __init__(
        self,
        dq_thresh_bytes: int,
        avg_weight: float = 0.875,
        record_samples: bool = False,
    ) -> None:
        if dq_thresh_bytes <= 0:
            raise ValueError(f"dq_thresh_bytes must be > 0, got {dq_thresh_bytes}")
        if not 0.0 <= avg_weight < 1.0:
            raise ValueError(f"avg_weight must be in [0, 1), got {avg_weight}")
        self.dq_thresh = dq_thresh_bytes
        self.avg_weight = avg_weight
        self.is_measure = False
        self.dq_count = 0
        self.dq_start = 0
        self.avg_rate: Optional[float] = None  # bits per second
        self.sample_count = 0
        self.record_samples = record_samples
        self.samples: List[Tuple[int, float, float]] = []

    def on_departure(self, qlen_bytes: int, pkt_size_bytes: int, now: int) -> None:
        """Feed one packet departure (Algorithm 1 verbatim).

        ``qlen_bytes`` is the backlog remaining after the departure.

        Note the inherent bias, faithful to the published Algorithm 1 (and
        to Linux PIE): the departure that *opens* a cycle contributes its
        bytes but not its serialization time (``dq_start`` is stamped at
        that same departure), so a sample overestimates the true rate by
        roughly ``pkt_size / dq_thresh``.  This is part of why small
        ``dq_thresh`` values mis-estimate capacity (§3.3 / Fig. 2b).
        """
        # 1. Decide to be in a measurement cycle.
        if qlen_bytes >= self.dq_thresh and not self.is_measure:
            self.dq_count = 0
            self.dq_start = now
            self.is_measure = True
        # 2. During the measurement cycle.
        if self.is_measure:
            self.dq_count += pkt_size_bytes
            if self.dq_count > self.dq_thresh:
                elapsed = now - self.dq_start
                if elapsed > 0:
                    dq_rate = self.dq_count * 8 * SEC / elapsed
                    self._absorb(dq_rate, now)
                self.is_measure = False

    def _absorb(self, dq_rate: float, now: int) -> None:
        if self.avg_rate is None:
            self.avg_rate = dq_rate
        else:
            w = self.avg_weight
            self.avg_rate = w * self.avg_rate + (1.0 - w) * dq_rate
        self.sample_count += 1
        if self.record_samples:
            self.samples.append((now, dq_rate, self.avg_rate))

    def rate_or(self, default_bps: float) -> float:
        """The smoothed estimate, or ``default_bps`` before any sample."""
        return self.avg_rate if self.avg_rate is not None else default_bps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rate = f"{self.avg_rate:.0f}bps" if self.avg_rate is not None else "n/a"
        return f"<RateMeter thresh={self.dq_thresh}B avg={rate}>"
