"""The per-partition engine: composite event keys and boundary capture.

:class:`PartitionSimulator` is a :class:`repro.sim.engine.Simulator` that
makes two changes, both confined to the scheduling layer so every model
object (ports, switches, transports) runs unmodified on top of it:

**Composite sequence numbers.**  The serial engine breaks same-timestamp
ties with one process-global monotone counter — meaningless across
independent partitions.  Here every entry's ``seq`` is the composite key

    ``(scheduling_time << 24) | flags | payload``

* locally scheduled events: ``(sched_time << 24) | counter`` where the
  counter resets whenever ``now`` advances (bit 23 clear, so locals sort
  before same-``sched_time`` arrivals);
* cross-partition arrivals: ``(send_time << 24) | ARRIVAL | (src_pid <<
  14) | handoff_counter`` assigned by the *sending* partition.

Since ``now`` never decreases and counters reset per timestamp, keys are
unique — all the heap needs — and two
events whose scheduling times differ order exactly as the serial
engine's global counter would have ordered them.  Only the interleaving
of *same fire-time, same scheduling-time* events from different
partitions can differ from a serial run; the equivalence suite pins the
resulting digests.

**Boundary capture.**  ``schedule_tx`` is the single point every
transmitted packet passes through.  When the delivery callback belongs
to a registered boundary sink (a leaf uplink rewired to a
:class:`repro.net.boundary.BoundaryMux`), the serializer-done tick is
still scheduled locally — the uplink port's pacing is partition-local
state — but the delivery becomes an outbox record ``(rx_time, seq,
spine, fields)`` for the coordinator to route, and the frame itself is
surrendered to the sink (exported to plain fields, released to the
freelist).  The receiving partition rebuilds the packet and inserts the
delivery with :meth:`insert_arrival` — one event, exactly like the
serial engine's ``rx_fn(pkt)`` entry, so event counts match.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Protocol,
    Tuple,
)

from repro.sim.engine import EventHandle, Simulator

#: composite-key layout: time in the high bits, then one arrival flag,
#: 9 bits of source partition, 14 bits of per-timestamp counter
TIME_SHIFT = 24
ARRIVAL_BIT = 1 << 23
SRC_SHIFT = 14
MAX_PARTITIONS = 1 << (23 - SRC_SHIFT)      # 512
HANDOFF_LIMIT = 1 << SRC_SHIFT              # per (timestamp, partition)
LOCAL_LIMIT = ARRIVAL_BIT                   # per-timestamp local events

#: one captured cross-partition delivery:
#: ``(rx_time_ns, composite_seq, spine_id, packed packet fields)``
Handoff = Tuple[int, int, int, Tuple[Any, ...]]


class BoundarySink(Protocol):
    """What ``schedule_tx`` needs from a boundary endpoint.

    Implemented by :class:`repro.net.boundary.BoundaryMux`; kept as a
    protocol so this module (and the ``repro.sim`` layer) never imports
    packet machinery.
    """

    #: index of the spine whose replica receives in the destination
    #: partition
    spine_id: int

    def export(self, pkt: Any) -> Tuple[Any, ...]:
        """Serialize ``pkt`` to plain fields and surrender the frame."""
        ...


class PartitionSimulator(Simulator):
    """One partition's event loop (see module docstring)."""

    __slots__ = (
        "pid",
        "outbox",
        "_sinks",
        "_seq_time",
        "_seq_cnt",
        "_handoff_cnt",
    )

    def __init__(self, pid: int, sanitize: Any = None) -> None:
        if not 0 <= pid < MAX_PARTITIONS:
            raise ValueError(
                f"partition id {pid} outside [0, {MAX_PARTITIONS})"
            )
        super().__init__(sanitize=sanitize)
        self.pid = pid
        #: handoffs captured since the coordinator last drained them
        self.outbox: List[Handoff] = []
        #: delivery callback -> boundary sink (identity/equality keyed)
        self._sinks: Dict[Any, BoundarySink] = {}
        #: timestamp the counters below are valid for
        self._seq_time = -1
        self._seq_cnt = 0
        self._handoff_cnt = 0

    # -- boundary wiring -------------------------------------------------

    def register_boundary(self, rx_fn: Any, sink: BoundarySink) -> None:
        """Mark ``rx_fn`` (a boundary node's ``receive``) for capture."""
        self._sinks[rx_fn] = sink

    # -- composite keys --------------------------------------------------

    def _alloc(self, n: int) -> int:
        """Reserve ``n`` consecutive local counters; return the first key."""
        now = self.now
        if now != self._seq_time:
            self._seq_time = now
            self._seq_cnt = 0
            self._handoff_cnt = 0
        c = self._seq_cnt
        nc = c + n
        if nc > LOCAL_LIMIT:
            raise RuntimeError(
                f"partition {self.pid}: more than {LOCAL_LIMIT} events "
                f"scheduled at t={now} — composite key space exhausted"
            )
        self._seq_cnt = nc
        return (now << TIME_SHIFT) | c

    def _put(self, entry: EventHandle) -> None:
        heap = self._heap
        self._push(heap, entry)
        if len(heap) > self.heap_hwm:
            self.heap_hwm = len(heap)

    # -- scheduling overrides --------------------------------------------

    def schedule(self, delay_ns: int, fn: Callable[[], None]) -> EventHandle:
        if delay_ns < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay_ns})")
        entry = (self.now + delay_ns, self._alloc(1), fn)
        self._put(entry)
        return entry

    def schedule_at(self, time_ns: int, fn: Callable[[], None]) -> EventHandle:
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule at {time_ns} before now ({self.now})"
            )
        entry = (time_ns, self._alloc(1), fn)
        self._put(entry)
        return entry

    def schedule_call(
        self, delay_ns: int, fn: Callable[[Any], None], arg: Any
    ) -> EventHandle:
        entry = (self.now + delay_ns, self._alloc(1), fn, arg)
        self._put(entry)
        return entry

    def schedule_many(
        self, items: Iterable[Tuple[int, Callable[[], None]]]
    ) -> None:
        now = self.now
        heap = self._heap
        push = self._push
        for delay_ns, fn in items:
            push(heap, (now + delay_ns, self._alloc(1), fn))
        if len(heap) > self.heap_hwm:
            self.heap_hwm = len(heap)

    def schedule_tx(
        self,
        tx_ns: int,
        done_fn: Callable[[], None],
        rx_ns: int,
        rx_fn: Callable[[Any], None],
        pkt: Any,
    ) -> None:
        """Transmit pair with boundary capture (see module docstring).

        The boundary branch assumes the caller never touches ``pkt``
        after this call — true of ``EgressPort._transmit``, the sole
        transmit path — because the frame is exported and released here.
        """
        sink = self._sinks.get(rx_fn)
        now = self.now
        if now != self._seq_time:
            self._seq_time = now
            self._seq_cnt = 0
            self._handoff_cnt = 0
        c = self._seq_cnt
        base = now << TIME_SHIFT
        if sink is None:
            if c + 2 > LOCAL_LIMIT:
                raise RuntimeError(
                    f"partition {self.pid}: composite key space exhausted "
                    f"at t={now}"
                )
            self._seq_cnt = c + 2
            self._put((now + tx_ns, base | c, done_fn))
            self._put((now + rx_ns, base | (c + 1), rx_fn, pkt))
            return
        if c + 1 > LOCAL_LIMIT:
            raise RuntimeError(
                f"partition {self.pid}: composite key space exhausted "
                f"at t={now}"
            )
        self._seq_cnt = c + 1
        self._put((now + tx_ns, base | c, done_fn))
        h = self._handoff_cnt
        if h >= HANDOFF_LIMIT:
            raise RuntimeError(
                f"partition {self.pid}: more than {HANDOFF_LIMIT} handoffs "
                f"at t={now} — composite key space exhausted"
            )
        self._handoff_cnt = h + 1
        aseq = base | ARRIVAL_BIT | (self.pid << SRC_SHIFT) | h
        self.outbox.append((now + rx_ns, aseq, sink.spine_id, sink.export(pkt)))

    # -- coordinator interface -------------------------------------------

    def insert_arrival(
        self, time_ns: int, seq: int, fn: Callable[[Any], None], arg: Any
    ) -> None:
        """Insert a routed cross-partition delivery.

        ``seq`` is the composite key the sending partition stamped on the
        handoff.  The lookahead guarantee makes every arrival strictly
        later than the horizon the partition has run to; violating that
        means the sync protocol is broken, so it is checked hard.
        """
        if time_ns <= self.now:
            raise RuntimeError(
                f"partition {self.pid}: arrival at t={time_ns} not after "
                f"now={self.now} — lookahead violated"
            )
        san = self._san
        if san is not None:
            # ownership handoff checks: the composite key must say
            # "arrival, stamped by a *different* partition, sent no
            # later than it is delivered" — SIM014's runtime twin
            if not seq & ARRIVAL_BIT:
                san.record(
                    "boundary-ownership",
                    f"partition {self.pid}: arrival key {seq:#x} lacks "
                    "the ARRIVAL bit — a local event was injected "
                    "through the boundary interface",
                )
            elif (seq >> SRC_SHIFT) & (MAX_PARTITIONS - 1) == self.pid:
                san.record(
                    "arrival-from-self",
                    f"partition {self.pid}: arrival key {seq:#x} names "
                    "this partition as its own sender",
                )
            if seq >> TIME_SHIFT > time_ns:
                san.record(
                    "send-after-delivery",
                    f"partition {self.pid}: arrival stamped at send time "
                    f"{seq >> TIME_SHIFT} but delivered at {time_ns}",
                )
        self._put((time_ns, seq, fn, arg))

    def drain_outbox(self) -> List[Handoff]:
        """Hand the captured handoffs to the coordinator (and reset)."""
        out = self.outbox
        self.outbox = []
        return out
