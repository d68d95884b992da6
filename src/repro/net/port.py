"""The switch egress port: buffer admission, scheduling, marking, pacing.

This object is the software analogue of one port of the paper's
server-emulated switch (§5): a shared per-port buffer feeding a pluggable
multi-queue scheduler, with AQM hooks on both sides of the scheduler and a
serializer that models the output link (the qdisc prototype's token-bucket
rate limiter collapses into exact per-packet serialization here, since we
control the whole pipeline).

Lifecycle of a packet through a port::

    receive(pkt)
      -> classifier: dscp -> queue index
      -> admission: drop if port occupancy + pkt > buffer (shared,
         first-in-first-serve, as in the paper's testbed switch)
      -> stamp enq_ts; AQM.on_enqueue may set CE
      -> scheduler.enqueue
    _transmit loop (whenever link idle and scheduler non-empty)
      -> scheduler.dequeue -> AQM.on_dequeue may set CE
      -> serialize for wire_size*8/rate, then propagate for link.delay
      -> link.dst.receive(pkt)
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.aqm.base import Aqm
from repro.net.classifier import DscpClassifier
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
        "classify",
        "occupancy",
        "busy",
        "stats",
        "pool",
        "occupancy_tracker",
        "tracer",
        "fluid",
        "_qindex",
        "_fifo",
        "_tx_done_cb",
        "_classify",
        "_cls_get",
        "_cls_max",
        "_aqm_enq",
        "_aqm_deq",
        "_link",
        "_link_dst",
        "_link_delay",
        "_tx_cache",
        "_batch",
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
        # per-size serialization-time cache: wire sizes are few and the
        # rate is fixed at construction, so the ceil-division runs once
        # per distinct size instead of once per packet
        self._tx_cache: Dict[int, int] = {}
        self.link = link
        self.classify = classify or (lambda pkt: 0)
        # hot-path cache: None means "everything to queue 0", no call made
        self._classify = classify
        # DSCP-classifier bypass: the standard classifier's decision is a
        # dict probe or a clamp, so receive() inlines it instead of
        # paying a Python call per packet (_cls_max < 0 = not applicable)
        self._cls_get = None
        self._cls_max = -1
        if isinstance(classify, DscpClassifier):
            self._classify = None
            self._cls_max = classify.n_queues - 1
            if classify.table is not None:
                self._cls_get = classify.table.get
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
        # Stable queue-object -> global-index map for trace labels: hybrid
        # schedulers rewrite queue.index to band-local values, so position
        # in scheduler.queues is the only trustworthy global identity.
        self._qindex = {id(q): i for i, q in enumerate(scheduler.queues)}
        # batched transmit trains (see _tx_done): follows the engine's
        # --no-batch escape hatch; cached because the flag never changes
        # mid-run and the check sits on the per-frame path
        self._batch = sim.batch
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
        cmax = self._cls_max
        if cmax >= 0:
            get = self._cls_get
            if get is not None:
                qidx = get(pkt.dscp, cmax)
            else:
                qidx = pkt.dscp
                if qidx > cmax:
                    qidx = cmax
        else:
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
                now, self.name, self._qindex[id(queue)], pkt, now - pkt.enq_ts
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
        try:
            tx_ns = self._tx_cache[size]
        except KeyError:
            tx_ns = -(-size * _BITS_NS // self.rate_bps)
            self._tx_cache[size] = tx_ns
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
        """Serializer-done tick: transmit the next queued frame, if any.

        On the batched path this is the *anchor* of a potential transmit
        train: the first frame is processed with exactly ``_transmit``'s
        body (no hoisting — in a busy fabric the global event queue
        almost always denies the inline step, so the attempt must cost
        nothing beyond a floor probe), and only when the engine proves
        the frame's done tick safe and runs it inline does the hoisted
        train loop (:meth:`_tx_train`) take over for the rest.
        """
        scheduler = self.scheduler
        if not scheduler.total_bytes:
            self.busy = False
            return
        if not self._batch or self._link_dst is None:
            self.busy = False
            self._transmit()
            return
        # -- frame 1: _transmit's body, minus the redundant busy store
        #    (busy is already True on every done tick), with the
        #    schedule_tx -> schedule_tx_train swap at the end
        sim = self.sim
        now = sim.now
        fifo = self._fifo
        if fifo is not None:
            # single-queue FIFO bypass (see _transmit)
            pkts = fifo._pkts
            pkt = pkts.popleft()
            queue = fifo
            size = pkt.wire_size
            fifo.bytes -= size
            fifo.dequeued_pkts += 1
            fifo.dequeued_bytes += size
            scheduler.total_bytes -= size
        else:
            result = scheduler.dequeue(now)
            if result is None:
                # non-work-conserving corner: mirrors _transmit's early
                # return with the link left idle
                self.busy = False
                return
            pkt, queue = result
            size = pkt.wire_size
        if self.tracer is not None:
            self.tracer.dequeue(
                now, self.name, self._qindex[id(queue)], pkt, now - pkt.enq_ts
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
        try:
            tx_ns = self._tx_cache[size]
        except KeyError:
            tx_ns = -(-size * _BITS_NS // self.rate_bps)
            self._tx_cache[size] = tx_ns
        stats = self.stats
        stats.tx_pkts += 1
        stats.tx_bytes += size
        if sim.schedule_tx_train(
            tx_ns,
            self._tx_done_cb,
            tx_ns + self._link_delay,
            self._link_dst.receive,
            pkt,
        ):
            # the done tick ran inline: the train is live, keep feeding
            # it frames from the (now advanced) clock
            self._tx_train(scheduler)
        else:
            # the pair was scheduled normally; the done tick will
            # re-enter _tx_done through the queue (busy stays True,
            # exactly as _transmit would have left it)
            sim.train_fallbacks += 1

    def _tx_train(self, scheduler: Scheduler) -> None:
        """Continue the transmit train whose first frame just ran inline.

        The serializer-done tick of frame 1 was executed inside the
        anchor event (:meth:`_tx_done`), so the next transmission starts
        *now* — and as long as the engine keeps proving no competing
        event fires before each frame's done tick
        (:meth:`Simulator.schedule_tx_train`), the whole train runs
        inside this one event: dequeue → AQM-on-dequeue → serialize,
        advancing the clock frame by frame.  Every per-frame observable
        — sojourn time, mark decision, trace record, occupancy sample —
        is produced at exactly the timestamp the per-frame path would
        have used, because the clock *is* at that timestamp when the
        frame is processed.  The first frame whose done tick cannot be
        proven safe falls back to a normally scheduled pair and the
        train ends; per-frame dispatch resumes at that tick.
        """
        sim = self.sim
        fifo = self._fifo
        tracer = self.tracer
        aqm_deq = self._aqm_deq
        pool = self.pool
        occ_tracker = self.occupancy_tracker
        tx_cache = self._tx_cache
        delay = self._link_delay
        done_cb = self._tx_done_cb
        rx_fn = self._link_dst.receive
        train = sim.schedule_tx_train
        stats = self.stats
        n = 1  # frame 1 already rode this event (its done tick ran inline)
        while scheduler.total_bytes:
            now = sim.now
            if fifo is not None:
                # single-queue FIFO bypass (see _transmit)
                pkt = fifo._pkts.popleft()
                queue = fifo
                size = pkt.wire_size
                fifo.bytes -= size
                fifo.dequeued_pkts += 1
                fifo.dequeued_bytes += size
                scheduler.total_bytes -= size
            else:
                result = scheduler.dequeue(now)
                if result is None:
                    # non-work-conserving corner: mirrors _transmit's
                    # early return with the link left idle
                    self.busy = False
                    break
                pkt, queue = result
                size = pkt.wire_size
            if tracer is not None:
                tracer.dequeue(
                    now,
                    self.name,
                    self._qindex[id(queue)],
                    pkt,
                    now - pkt.enq_ts,
                )
            if aqm_deq is not None and aqm_deq(self, queue, pkt, now):
                self._mark(pkt, queue, "deq")
            self.occupancy -= size
            if pool is not None:
                pool.occupancy -= size
            if occ_tracker is not None:
                occ_tracker(now, self.occupancy)
            try:
                tx_ns = tx_cache[size]
            except KeyError:
                tx_ns = -(-size * _BITS_NS // self.rate_bps)
                tx_cache[size] = tx_ns
            stats.tx_pkts += 1
            stats.tx_bytes += size
            n += 1
            if not train(tx_ns, done_cb, tx_ns + delay, rx_fn, pkt):
                # fallback: the pair was scheduled normally, the done
                # tick re-enters _tx_done through the queue (busy stays
                # True, exactly as _transmit would have left it)
                sim.train_fallbacks += 1
                break
        else:
            # every queued frame's done tick ran inline: the link goes
            # idle at the clock's current (advanced) time, just as the
            # last scheduled tick would have left it
            self.busy = False
        sim.trains += 1
        sim.train_pkts += n
        h = n.bit_length()
        hist = sim.train_hist
        hist[h if h < 17 else 17] += 1

    # -- helpers -----------------------------------------------------------

    def _mark(self, pkt: Packet, queue: PacketQueue, where: str) -> None:
        if pkt.ect and not pkt.ce:
            pkt.ce = True
            queue.marked_pkts += 1
            self.stats.marked_pkts += 1
            if self.tracer is not None:
                self.tracer.mark(
                    self.sim.now, self.name, self._qindex[id(queue)], pkt, where
                )

    def _drop(self, pkt: Packet, qidx: int, cause: str = "buffer") -> None:
        self.stats.dropped_pkts += 1
        self.stats.dropped_bytes += pkt.wire_size
        self.scheduler.queues[qidx].dropped_pkts += 1
        if self.tracer is not None:
            self.tracer.drop(self.sim.now, self.name, qidx, pkt, cause)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EgressPort {self.name} {self.occupancy}B buffered>"
