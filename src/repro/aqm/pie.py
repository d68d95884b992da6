"""PIE (Pan et al., HPSR 2013) in marking mode — extension, not in the paper.

PIE estimates queueing delay as ``qlen / avg_dequeue_rate`` using the same
Algorithm 1 rate meter the "ideal" ECN/RED needs, then controls a marking
probability with a PI controller.  Included because (a) the paper borrows
its measurement machinery from PIE and (b) it rounds out the AQM family for
ablations: queue-length (RED), estimated-delay (PIE), measured-sojourn
(CoDel/TCN).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional

from repro.aqm.base import Aqm
from repro.aqm.ratemeter import RateMeter
from repro.net.packet import Packet
from repro.net.queue import PacketQueue
from repro.units import SEC, USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import EgressPort


class _PieState:
    __slots__ = ("meter", "prob", "old_delay_ns")

    def __init__(self, meter: RateMeter) -> None:
        self.meter = meter
        self.prob = 0.0
        self.old_delay_ns = 0.0


class Pie(Aqm):
    """PI-controlled probabilistic marking on estimated queue delay.

    Parameters are the PIE defaults rescaled for datacenter RTTs: the
    Internet reference point (target 20 ms, update 30 ms) becomes
    (target ~ RTT, update ~ RTT) at microsecond scale.
    """

    __slots__ = (
        "target_delay_ns", "update_interval_ns", "alpha", "beta",
        "dq_thresh_bytes", "rng", "_state", "_port",
    )

    def __init__(
        self,
        target_delay_ns: int = 100 * USEC,
        update_interval_ns: int = 100 * USEC,
        alpha: float = 0.125,
        beta: float = 1.25,
        dq_thresh_bytes: int = 10_000,
        rng: Optional[random.Random] = None,
    ) -> None:
        if update_interval_ns <= 0:  # the update timer re-arms at this delay
            raise ValueError(f"update_interval_ns must be > 0: {update_interval_ns}")
        self.target_delay_ns = target_delay_ns
        self.update_interval_ns = update_interval_ns
        self.alpha = alpha
        self.beta = beta
        self.dq_thresh_bytes = dq_thresh_bytes
        self.rng = rng or random.Random(0)
        self._state: Dict[int, _PieState] = {}
        self._port: Optional["EgressPort"] = None

    def setup(self, port: "EgressPort") -> None:
        self._port = port
        for queue in port.scheduler.queues:
            self._state[id(queue)] = _PieState(RateMeter(self.dq_thresh_bytes))
        port.sim.schedule(self.update_interval_ns, self._update_probs)

    def _update_probs(self) -> None:
        port = self._port
        assert port is not None
        now = port.sim.now
        for queue in port.scheduler.queues:
            st = self._state[id(queue)]
            rate = st.meter.rate_or(float(port.rate_bps))
            delay_ns = queue.bytes * 8 * SEC / rate if rate > 0 else 0.0
            err_s = (delay_ns - self.target_delay_ns) / SEC
            trend_s = (delay_ns - st.old_delay_ns) / SEC
            # PIE auto-scaling: gentler gains at small probabilities.
            if st.prob < 0.01:
                scale = 1 / 8
            elif st.prob < 0.1:
                scale = 1 / 2
            else:
                scale = 1.0
            st.prob += scale * (self.alpha * err_s + self.beta * trend_s) * 1000
            st.prob = min(max(st.prob, 0.0), 1.0)
            st.old_delay_ns = delay_ns
        port.sim.schedule(self.update_interval_ns, self._update_probs)

    def on_enqueue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        st = self._state[id(queue)]
        if st.prob <= 0.0:
            return False
        return self.rng.random() < st.prob

    def on_dequeue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        self._state[id(queue)].meter.on_departure(queue.bytes, pkt.wire_size, now)
        return False
