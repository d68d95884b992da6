"""The switch egress port: buffer admission, scheduling, marking, pacing.

This object is the software analogue of one port of the paper's
server-emulated switch (§5): a shared per-port buffer feeding a pluggable
multi-queue scheduler, with AQM hooks on both sides of the scheduler and a
serializer that models the output link (the qdisc prototype's token-bucket
rate limiter collapses into exact per-packet serialization here, since we
control the whole pipeline).

Lifecycle of a packet through a port, in the order of the qdisc
pipeline (classifier, enqueue marking, scheduler, rate limiter, dequeue
marking)::

    receive(pkt)
      -> classifier: dscp -> queue index
      -> admission: drop if port occupancy + pkt > buffer (shared,
         first-in-first-serve, as in the paper's testbed switch)
      -> stamp enq_ts; AQM.on_enqueue may set CE
      -> scheduler.enqueue
    _transmit (whenever the serializer is idle and the scheduler is not)
      -> scheduler.dequeue -> AQM.on_dequeue may set CE
      -> serialize for wire_size*8/rate, then propagate for link.delay:
         one Simulator.schedule_tx pair (done tick, delivery)
      -> link.dst.receive(pkt)

Every stage is the generic call except two shortcuts (docs/PERFORMANCE.md):
a single-queue FIFO port (every host NIC) pushes and pops its queue
directly, and an AQM hook left as the ``Aqm`` base-class no-op is never
called.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.aqm.base import Aqm
from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.queue import PacketQueue
from repro.sched.base import Scheduler
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.units import SEC

#: nanoseconds-per-second times bits-per-byte — serialization constant
_BITS_NS = 8 * SEC


class PortStats:
    """Aggregate counters for one egress port."""

    __slots__ = (
        "rx_pkts",
        "rx_bytes",
        "tx_pkts",
        "tx_bytes",
        "dropped_pkts",
        "dropped_bytes",
        "marked_pkts",
    )

    def __init__(self) -> None:
        self.rx_pkts = 0
        self.rx_bytes = 0
        self.tx_pkts = 0
        self.tx_bytes = 0
        self.dropped_pkts = 0
        self.dropped_bytes = 0
        self.marked_pkts = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PortStats rx={self.rx_pkts} tx={self.tx_pkts} "
            f"drop={self.dropped_pkts} mark={self.marked_pkts}>"
        )


class EgressPort:
    """One output port: shared buffer + scheduler + AQM + output link."""

    __slots__ = (
        "sim",
        "name",
        "rate_bps",
        "buffer_bytes",
        "scheduler",
        "aqm",
        "occupancy",
        "busy",
        "stats",
        "pool",
        "occupancy_tracker",
        "tracer",
        "fluid",
        "_fifo",
        "_tx_done_cb",
        "_classify",
        "_aqm_enq",
        "_aqm_deq",
        "_link",
        "_link_dst",
        "_link_delay",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: int,
        buffer_bytes: int,
        scheduler: Scheduler,
        aqm: Optional["Aqm"] = None,
        link: Optional[Link] = None,
        classify: Optional[Callable[[Packet], int]] = None,
        name: str = "port",
    ) -> None:
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.buffer_bytes = buffer_bytes
        self.scheduler = scheduler
        self.aqm = aqm
        self.link = link
        # None means "everything to queue 0", no call made
        self._classify = classify
        self.occupancy = 0
        self.busy = False
        self.stats = PortStats()
        #: optional shared service pool (per-pool buffering / marking)
        self.pool = None
        #: optional callable(now, occupancy) sampled on every change
        self.occupancy_tracker: Optional[Callable[[int, int], None]] = None
        #: optional repro.obs.Tracer; None keeps the hot path branch-only
        self.tracer = None
        #: hybrid fluid-mode coupling: when the port carries fluid
        #: background load across a saturated link, this holds the
        #: repro.sim.fluid FluidLink whose ``mark_frac`` sets the CE
        #: probability packet flows should see on top of it.  None (the
        #: default, and the only value outside hybrid runs) keeps the
        #: ingress path to a single predicted-not-taken branch.
        self.fluid = None
        # Single-queue FIFO bypass: host NICs (the most numerous ports)
        # run a plain FIFO, where the generic dequeue indirection buys
        # nothing — _transmit pops the queue directly instead.
        self._fifo = (
            scheduler.queues[0] if type(scheduler) is FifoScheduler else None
        )
        self._tx_done_cb = self._tx_done  # bound once, scheduled per packet
        # Hot-path AQM hook cache: a hook left as the Aqm base-class no-op
        # is stored as None so the per-packet call is skipped entirely
        # (e.g. TCN never looks at enqueue, queue-length ECN never at
        # dequeue).  Instance-level hook overrides are still honoured —
        # only methods literally inherited from Aqm are elided.
        if aqm is not None:
            enq = aqm.on_enqueue
            deq = aqm.on_dequeue
            self._aqm_enq = (
                None
                if getattr(enq, "__func__", None) is Aqm.on_enqueue
                else enq
            )
            self._aqm_deq = (
                None
                if getattr(deq, "__func__", None) is Aqm.on_dequeue
                else deq
            )
            aqm.setup(self)
        else:
            self._aqm_enq = None
            self._aqm_deq = None

    @property
    def link(self) -> Optional[Link]:
        """The output link; assignable (topologies wire ports up late)."""
        return self._link

    @link.setter
    def link(self, link: Optional[Link]) -> None:
        # cache the destination node and delay so the per-packet transmit
        # path skips the link indirection (the node's ``receive`` is
        # still looked up per packet — tests patch it on instances)
        self._link = link
        self._link_dst = link.dst if link is not None else None
        self._link_delay = link.delay_ns if link is not None else 0

    # -- ingress ---------------------------------------------------------

    def receive(self, pkt: Packet) -> None:
        """Classify, admit, (maybe) mark, and enqueue an arriving packet.

        Classification happens exactly once, before the admission check:
        a stateful classifier must not be stepped twice for a packet that
        is then dropped (and the drop must be charged to the queue the
        packet was headed for).
        """
        stats = self.stats
        stats.rx_pkts += 1
        size = pkt.wire_size
        stats.rx_bytes += size
        classify = self._classify
        qidx = classify(pkt) if classify is not None else 0
        occ = self.occupancy
        if occ + size > self.buffer_bytes:
            self._drop(pkt, qidx, "buffer")
            return
        pool = self.pool
        if pool is not None and not pool.admit(size):
            self._drop(pkt, qidx, "pool")
            return
        scheduler = self.scheduler
        now = self.sim.now
        pkt.enq_ts = now
        fl = self.fluid
        if fl is not None and pkt.ect:
            # hybrid coupling: the fluid background load holds this
            # link's queue at the AQM threshold, so transiting packet
            # flows must see its marking rate.  Deterministic
            # accumulator thinning — every 1/mark_frac-th ECT packet is
            # CE-marked — keeps runs bit-reproducible (no RNG).
            acc = fl.mark_acc + fl.mark_frac
            if acc >= 1.0:
                acc -= 1.0
                self._mark(pkt, scheduler.queues[qidx], "enq")
            fl.mark_acc = acc
        aqm_enq = self._aqm_enq
        if aqm_enq is not None:
            queue = scheduler.queues[qidx]
            if aqm_enq(self, queue, pkt, now):
                self._mark(pkt, queue, "enq")
        self.occupancy = occ + size
        if pool is not None:
            pool.occupancy += size
        fifo = self._fifo
        if fifo is not None:
            # single-queue FIFO bypass (enqueue side): inlined
            # PacketQueue.push + byte accounting
            fifo._pkts.append(pkt)
            fifo.bytes = fbytes = fifo.bytes + size
            fifo.enqueued_pkts += 1
            if fbytes > fifo.max_bytes_seen:
                fifo.max_bytes_seen = fbytes
            scheduler.total_bytes += size
        else:
            scheduler.enqueue(pkt, qidx, now)
        if self.tracer is not None:
            self.tracer.enqueue(now, self.name, qidx, pkt)
        if self.occupancy_tracker is not None:
            self.occupancy_tracker(now, self.occupancy)
        if not self.busy:
            self._transmit()

    # -- egress ----------------------------------------------------------

    def _transmit(self) -> None:
        sim = self.sim
        now = sim.now
        fifo = self._fifo
        if fifo is not None:
            # single-queue FIFO bypass: skip the scheduler's dequeue
            # indirection and its (packet, queue) tuple; inlined
            # PacketQueue.pop + byte accounting
            pkts = fifo._pkts
            if not pkts:
                return
            pkt = pkts.popleft()
            queue = fifo
            size = pkt.wire_size
            fifo.bytes -= size
            fifo.dequeued_pkts += 1
            fifo.dequeued_bytes += size
            self.scheduler.total_bytes -= size
        else:
            result = self.scheduler.dequeue(now)
            if result is None:
                return
            pkt, queue = result
            size = pkt.wire_size
        if self.tracer is not None:
            self.tracer.dequeue(
                now, self.name, queue.index, pkt, now - pkt.enq_ts
            )
        aqm_deq = self._aqm_deq
        if aqm_deq is not None and aqm_deq(self, queue, pkt, now):
            self._mark(pkt, queue, "deq")
        self.occupancy -= size
        pool = self.pool
        if pool is not None:
            pool.occupancy -= size
        if self.occupancy_tracker is not None:
            self.occupancy_tracker(now, self.occupancy)
        self.busy = True
        tx_ns = -(-size * _BITS_NS // self.rate_bps)
        dst = self._link_dst
        if dst is not None:
            sim.schedule_tx(
                tx_ns,
                self._tx_done_cb,
                tx_ns + self._link_delay,
                dst.receive,
                pkt,
            )
        else:
            sim.schedule(tx_ns, self._tx_done_cb)
        stats = self.stats
        stats.tx_pkts += 1
        stats.tx_bytes += size

    def _tx_done(self) -> None:
        """Serializer-done tick: the link idles, or the next frame starts."""
        self.busy = False
        if self.scheduler.total_bytes:
            self._transmit()

    # -- helpers -----------------------------------------------------------

    def _mark(self, pkt: Packet, queue: PacketQueue, where: str) -> None:
        if pkt.ect and not pkt.ce:
            pkt.ce = True
            queue.marked_pkts += 1
            self.stats.marked_pkts += 1
            if self.tracer is not None:
                self.tracer.mark(
                    self.sim.now, self.name, queue.index, pkt, where
                )

    def _drop(self, pkt: Packet, qidx: int, cause: str = "buffer") -> None:
        self.stats.dropped_pkts += 1
        self.stats.dropped_bytes += pkt.wire_size
        self.scheduler.queues[qidx].dropped_pkts += 1
        if self.tracer is not None:
            self.tracer.drop(self.sim.now, self.name, qidx, pkt, cause)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EgressPort {self.name} {self.occupancy}B buffered>"
