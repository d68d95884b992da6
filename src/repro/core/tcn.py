"""TCN — Time-based Congestion Notification (the paper's contribution, §4).

TCN marks a departing packet when its *sojourn time* (dequeue time minus
enqueue timestamp) exceeds a single static threshold ``T = RTT x lambda``.
Because sojourn time already encodes the queue's effective drain rate, the
threshold is independent of the scheduler and of how capacity is being
shared — no rate measurement, no rounds, no per-queue state.

Two variants are provided:

* :class:`Tcn` — the headline instantaneous, stateless marker.
* :class:`ProbabilisticTcn` — the RED-like extension of §4.3 with two
  thresholds ``(T_min, T_max)`` and a maximum probability ``P_max``, for
  transports such as DCQCN that want probabilistic marking.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.aqm.base import Aqm
from repro.net.packet import Packet
from repro.net.queue import PacketQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import EgressPort


class Tcn(Aqm):
    """Instantaneous sojourn-time marking: completely stateless.

    Parameters
    ----------
    threshold_ns:
        The sojourn-time marking threshold ``T = RTT x lambda`` (Eq. 3).

    The marking rule is a single comparison per departing packet — the
    hardware-feasibility argument of §4.2 (one 2-byte enqueue timestamp of
    metadata, one unsigned subtraction, one compare).
    """

    __slots__ = ("threshold_ns",)

    def __init__(self, threshold_ns: int) -> None:
        if threshold_ns <= 0:
            raise ValueError(f"threshold_ns must be > 0, got {threshold_ns}")
        self.threshold_ns = threshold_ns

    def on_dequeue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        return now - pkt.enq_ts > self.threshold_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tcn T={self.threshold_ns}ns>"


class ProbabilisticTcn(Aqm):
    """RED-like TCN (§4.3): linear marking probability between two thresholds.

    * sojourn <= ``tmin_ns``: never mark.
    * sojourn >= ``tmax_ns``: always mark.
    * otherwise: mark with probability
      ``P_max x (sojourn - T_min) / (T_max - T_min)``.

    Still stateless across packets; the only extra ingredient is a random
    draw, for which a seeded ``random.Random`` can be injected to keep runs
    reproducible.
    """

    __slots__ = ("tmin_ns", "tmax_ns", "pmax", "rng")

    def __init__(
        self,
        tmin_ns: int,
        tmax_ns: int,
        pmax: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0 <= tmin_ns <= tmax_ns:
            raise ValueError(f"need 0 <= tmin <= tmax, got ({tmin_ns}, {tmax_ns})")
        if not 0.0 < pmax <= 1.0:
            raise ValueError(f"pmax must be in (0, 1], got {pmax}")
        self.tmin_ns = tmin_ns
        self.tmax_ns = tmax_ns
        self.pmax = pmax
        self.rng = rng or random.Random(0)

    def on_dequeue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        sojourn = now - pkt.enq_ts
        if sojourn <= self.tmin_ns:
            return False
        if sojourn >= self.tmax_ns:
            return True
        span = self.tmax_ns - self.tmin_ns
        if span == 0:
            return True
        prob = self.pmax * (sojourn - self.tmin_ns) / span
        return self.rng.random() < prob

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProbabilisticTcn [{self.tmin_ns},{self.tmax_ns}]ns "
            f"pmax={self.pmax}>"
        )
