"""MQ-ECN (Bai et al., NSDI 2016): dynamic thresholds for round-robin.

MQ-ECN exploits the one structural fact round-robin schedulers guarantee:
in each round a non-empty queue transmits at most ``quantum_i`` bytes, so
``quantum_i / T_round`` is an accurate capacity estimate.  The scheduler
reports each queue's round time through the ``round_observer`` hook; the
smoothed estimate drives ``K_i = min(K_std, rate_i x RTT x lambda)``.

Attaching MQ-ECN to a scheduler without rounds (WFQ, SP, PIFO) raises
``ValueError`` — the precise limitation (§3.3, Remark after Fig. 2) that
motivates TCN.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.aqm.base import Aqm
from repro.net.packet import Packet
from repro.net.queue import PacketQueue
from repro.units import SEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import EgressPort


class MqEcn(Aqm):
    """Round-time based dynamic per-queue marking thresholds.

    Parameters
    ----------
    rtt_ns, lam:
        Equation 2 constants; ``K_std = C x RTT x lambda`` caps every
        dynamic threshold.
    beta:
        EWMA weight of the *new* round-time sample (the MQ-ECN paper's
        suggested 0.75 — heavy weight on fresh samples gives the fast
        convergence seen in Fig. 2c).
    idle_mtu:
        ``T_idle`` expressed in MTU transmission times at line rate: a queue
        idle longer than this forgets its round-time history and reverts to
        the standard threshold (fresh traffic should not be throttled by a
        stale low-rate estimate).
    """

    __slots__ = (
        "rtt_ns", "lam", "beta", "idle_mtu", "mtu_bytes",
        "_round_ns", "_last_activity", "_k_std", "_idle_ns",
        "_line_rate_bps",
    )

    def __init__(
        self,
        rtt_ns: int,
        lam: float = 1.0,
        beta: float = 0.75,
        idle_mtu: float = 1.0,
        mtu_bytes: int = 1500,
    ) -> None:
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        self.rtt_ns = rtt_ns
        self.lam = lam
        self.beta = beta
        self.idle_mtu = idle_mtu
        self.mtu_bytes = mtu_bytes
        self._round_ns: Dict[int, float] = {}
        self._last_activity: Dict[int, int] = {}
        self._k_std = 0.0
        self._line_rate_bps = 0.0
        self._idle_ns = 0

    def setup(self, port: "EgressPort") -> None:
        sched = port.scheduler
        if not getattr(sched, "supports_rounds", False):
            raise ValueError(
                f"scheduler {type(sched).__name__} has no rounds: MQ-ECN needs "
                f"a round-robin scheduler (the limitation TCN removes)"
            )
        sched.round_observer = self._on_round
        self._line_rate_bps = float(port.rate_bps)
        self._k_std = port.rate_bps * self.rtt_ns * self.lam / (8 * SEC)
        self._idle_ns = int(
            self.idle_mtu * self.mtu_bytes * 8 * SEC / port.rate_bps
        )

    # -- round-time bookkeeping -------------------------------------------

    def _on_round(self, queue: PacketQueue, round_ns: int, now: int) -> None:
        key = id(queue)
        prev = self._round_ns.get(key)
        if prev is None:
            self._round_ns[key] = float(round_ns)
        else:
            self._round_ns[key] = self.beta * round_ns + (1.0 - self.beta) * prev
        self._last_activity[key] = now

    def rate_estimate_bps(self, queue: PacketQueue) -> float:
        """``quantum_i / T_round`` in bits/s (line rate before any sample)."""
        round_ns = self._round_ns.get(id(queue))
        if round_ns is None or round_ns <= 0:
            return self._line_rate_bps
        return min(queue.quantum * 8 * SEC / round_ns, self._line_rate_bps)

    def threshold_bytes(self, queue: PacketQueue) -> float:
        """Current dynamic threshold ``K_i`` for ``queue``."""
        rate = self.rate_estimate_bps(queue)
        k = rate * self.rtt_ns * self.lam / (8 * SEC)
        return min(k, self._k_std)

    # -- marking -------------------------------------------------------------

    def on_enqueue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        key = id(queue)
        if queue.bytes == 0:
            # Queue was idle: if it stayed idle past T_idle, its round-time
            # history is stale — revert to the standard threshold.
            last = self._last_activity.get(key)
            if last is not None and now - last > self._idle_ns:
                self._round_ns.pop(key, None)
        return queue.bytes > self.threshold_bytes(queue)

    def on_dequeue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        self._last_activity[id(queue)] = now
        return False
