"""CoDel (Nichols & Jacobson) in ECN-marking mode, Linux-faithful.

CoDel also uses sojourn time, but conservatively: it only acts when the
*minimum* sojourn over a sliding ``interval`` stays above ``target``, and
then marks at a rate that increases as ``interval / sqrt(count)`` — the
control law whose square root is what made hardware implementations balk
(§4.3).  Per the paper's evaluation setup, our CoDel *marks* rather than
drops; state is per queue, as in the qdisc prototype where each transmission
queue runs its own instance.

The state machine below mirrors ``include/net/codel.h`` (first_above_time,
drop_next, count/lastcount with the re-entry heuristic), with "drop"
replaced by "mark".  Because marking cannot remove multiple packets at one
dequeue the way dropping can, at most one mark is applied per departure and
``drop_next`` advances once — the standard ECN adaptation.
"""

from __future__ import annotations

from math import sqrt
from typing import TYPE_CHECKING, Dict

from repro.aqm.base import Aqm
from repro.net.packet import Packet
from repro.net.queue import PacketQueue
from repro.units import MSEC, MTU

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import EgressPort


class _CodelState:
    """Per-queue CoDel variables (the four state words of §4.2)."""

    __slots__ = ("first_above_time", "mark_next", "count", "lastcount", "marking")

    def __init__(self) -> None:
        self.first_above_time = 0
        self.mark_next = 0
        self.count = 0
        self.lastcount = 0
        self.marking = False


class CoDel(Aqm):
    """Windowed-minimum sojourn marking.

    Parameters
    ----------
    target_ns:
        Acceptable standing sojourn time (Internet default 5 ms; the paper
        experimentally tuned 51.2 us for its 1 GbE testbed).
    interval_ns:
        Sliding window over which the minimum must exceed target before
        marking starts (Internet default 100 ms; testbed-tuned 1024 us).
    """

    __slots__ = ("target_ns", "interval_ns", "_state")

    def __init__(self, target_ns: int = 5 * MSEC, interval_ns: int = 100 * MSEC) -> None:
        if target_ns <= 0:
            raise ValueError(f"target_ns must be > 0, got {target_ns}")
        if interval_ns <= 0:
            raise ValueError(f"interval_ns must be > 0, got {interval_ns}")
        self.target_ns = target_ns
        self.interval_ns = interval_ns
        self._state: Dict[int, _CodelState] = {}

    def _state_for(self, queue: PacketQueue) -> _CodelState:
        st = self._state.get(id(queue))
        if st is None:
            st = _CodelState()
            self._state[id(queue)] = st
        return st

    def _control_law(self, base_ns: int, count: int) -> int:
        return base_ns + int(self.interval_ns / sqrt(count if count > 0 else 1))

    def _should_mark(self, st: _CodelState, queue: PacketQueue, sojourn: int, now: int) -> bool:
        """codel_should_drop: is the minimum-sojourn condition satisfied?"""
        if sojourn < self.target_ns or queue.bytes <= MTU:
            # Any single good packet proves the windowed minimum is below
            # target — reset the observation window.
            st.first_above_time = 0
            return False
        if st.first_above_time == 0:
            st.first_above_time = now + self.interval_ns
            return False
        return now >= st.first_above_time

    def on_dequeue(
        self, port: "EgressPort", queue: PacketQueue, pkt: Packet, now: int
    ) -> bool:
        st = self._state_for(queue)
        sojourn = now - pkt.enq_ts
        mark_now = self._should_mark(st, queue, sojourn, now)
        if st.marking:
            if not mark_now:
                st.marking = False
                return False
            if now >= st.mark_next:
                st.count += 1
                st.mark_next = self._control_law(st.mark_next, st.count)
                return True
            return False
        if mark_now:
            st.marking = True
            # Linux re-entry heuristic: if we were marking recently, resume
            # from (roughly) the previous rate rather than starting over.
            delta = st.count - st.lastcount
            if delta > 1 and now - st.mark_next < 16 * self.interval_ns:
                st.count = delta
            else:
                st.count = 1
            st.lastcount = st.count
            st.mark_next = self._control_law(now, st.count)
            return True
        return False
