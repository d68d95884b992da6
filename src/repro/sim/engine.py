"""A small, fast discrete-event engine with pluggable event queues.

A scheduled callback is stored as a plain ``(time, seq, fn)`` tuple (or
``(time, seq, fn, arg)`` for the argument-carrying fast path), so every
ordering comparison runs on machine integers in C — no ``Event`` object
is allocated and no Python-level ``__lt__`` ever runs.  Events at the
same timestamp fire in scheduling order (the monotonically increasing
``seq`` breaks ties, and because it is unique the comparison never
reaches the callback slot, which is why mixed 3- and 4-tuples can share
one structure).

The future-event list itself is a pluggable backend from
:mod:`repro.sim.equeue`: the default binary heap, a ladder/calendar
queue, or a hierarchical timer wheel — all guaranteed to dispatch in the
exact same ``(time, seq)`` total order, so the choice is purely a
performance knob (``Simulator(equeue="ladder")``).  When the default
heap is selected the engine keeps its historical *inlined* dispatch and
push paths over the raw heap list, so the default costs nothing over the
pre-backend engine; other backends supply their own
:meth:`~repro.sim.equeue.base.EventQueue.run_loop`.

Cancellation is handle-based and (by default) lazy: ``schedule`` returns
the pushed tuple as an opaque handle, and :meth:`Simulator.cancel` first
offers the entry to the backend — the timer wheel removes it physically
in O(1) — falling back to a side set of cancelled sequence numbers that
the run loop consults (and drains) when the entry surfaces.  The common
case — no cancellation outstanding — costs one truthiness check per
event.

Design notes
------------
* Time is an **integer nanosecond** count (see :mod:`repro.units`), so there
  are no floating-point ordering surprises and runs are bit-reproducible.
* Callbacks receive no arguments; closures, ``functools.partial`` or the
  ``schedule_call`` fast path bind whatever state they need.
* The engine knows nothing about packets or networks; everything above it
  (links, queues, transports) is built from ``schedule`` calls.
"""

from __future__ import annotations

import gc
import os
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    cast,
)

from bisect import insort

from repro.sim.equeue import EQueueSpec, EventQueue, make_equeue
from repro.sim.equeue.heap import HeapEventQueue, heappop, heappush

if TYPE_CHECKING:  # pragma: no cover - the ladder loads only when asked for
    from repro.sim.equeue.ladder import LadderEventQueue

#: The opaque handle returned by ``schedule``/``schedule_at``/``schedule_call``
#: — the queue entry itself.  ``handle[0]`` is the absolute fire time (ns);
#: treat everything else as private and pass the handle to
#: :meth:`Simulator.cancel` to cancel it.
EventHandle = Tuple[Any, ...]

#: "no bound" sentinel for run(): beyond any reachable time or event count
#: (~292 years of simulated nanoseconds), while keeping the per-event stop
#: comparisons int-vs-int
_NEVER = 2**63 - 1


class Simulator:
    """The event loop.

    ``equeue`` selects the future-event-list backend: a name from
    :data:`repro.sim.equeue.BACKENDS` (``"heap"``, ``"ladder"``,
    ``"wheel"``), ``"auto"``, a pre-built
    :class:`~repro.sim.equeue.base.EventQueue` instance, or ``None`` for
    the default heap.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(100, lambda: fired.append(sim.now))
    >>> sim.run()
    1
    >>> fired
    [100]
    """

    __slots__ = (
        "now",
        # hot entry points, bound per instance by _bind_hot_paths():
        # each simulator carries callables specialized to its backend,
        # so the per-call backend dispatch (heap? ladder? generic?) is
        # paid once at construction instead of on every schedule/cancel
        "schedule",
        "schedule_call",
        "schedule_tx",
        "schedule_tx_train",
        "cancel",
        "_equeue",
        "_eq_push",
        "_eq_cancel",
        "_heap",
        "_ladder",
        "_seq",
        "_cancelled",
        "_running",
        "events_executed",
        "heap_hwm",
        "batch",
        "_run_bound",
        "_drain_left",
        "_inline_ct",
        "_floor_cache",
        "runs_drained",
        "run_hist",
        "trains",
        "train_pkts",
        "train_hist",
        "train_fallbacks",
        "_san",
    )

    def __init__(
        self,
        equeue: EQueueSpec = None,
        batch: bool = True,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.now: int = 0
        self._seq: int = 0
        #: seqs of entries cancelled but not physically removed (lazy deletion)
        self._cancelled: Set[int] = set()
        eq = make_equeue(equeue)
        #: the runtime sanitizer (repro.sanitize.Sanitizer) when armed —
        #: ``sanitize=None`` defers to the REPRO_SANITIZE env switch
        #: (unset/``0`` = off, as :func:`repro.sanitize.env_enabled`
        #: reads it — repeated here so an unarmed engine never imports
        #: the sanitizer), so an unmodified test suite can run fully
        #: sanitized.  Arming wraps the backend *before* the
        #: specialization probes below: the wrapped queue is neither a
        #: raw heap nor a ladder, so every schedule/pop/drain routes
        #: through the checked generic paths.
        self._san = None
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        if sanitize:
            from repro.sanitize import Sanitizer, SanitizingEventQueue

            san = Sanitizer(sim=self)
            san.attach_freelist()
            eq = SanitizingEventQueue(eq, san)
            self._san = san
        self._equeue: EventQueue = eq
        eq.attach(self._cancelled)
        #: bound push — single-attribute hot path for non-heap backends
        self._eq_push: Callable[[EventHandle], int] = eq.push
        #: bound cancel for backends with physical removal, else ``None``
        #: (saves a guaranteed-False Python call per lazy cancellation)
        self._eq_cancel: Optional[Callable[[EventHandle], bool]] = (
            eq.cancel if eq.physical_cancel else None
        )
        #: the raw heap list when the default backend is active (the
        #: inlined fast paths below key off this), else ``None``
        self._heap: Optional[List[EventHandle]] = (
            eq.entries if isinstance(eq, HeapEventQueue) else None
        )
        #: the ladder, when active — its bucket routing is cheap enough
        #: that the per-push method call would dominate it, so the
        #: schedule methods inline it exactly like the heap's heappush
        #: (recognised by registry name: the class is not imported here)
        self._ladder: Optional[LadderEventQueue] = (
            cast("LadderEventQueue", eq) if eq.name == "ladder" else None
        )
        self._running = False
        #: lifetime count of executed (non-cancelled) events — profiling
        self.events_executed: int = 0
        #: high-water mark of the pending-event pool (cancelled included)
        self.heap_hwm: int = 0
        #: batched hot path: same-timestamp run draining in the dispatch
        #: loop plus inline transmit trains via :meth:`schedule_tx_train`.
        #: ``False`` restores the per-event dispatch loop and makes
        #: ``schedule_tx_train`` an alias for ``schedule_tx`` — the
        #: ``--no-batch`` A/B escape hatch.  Both modes are bit-identical.
        self.batch: bool = batch
        #: inclusive ``until`` bound of the run() call in progress when
        #: batching, else -1 — inline train steps may never advance the
        #: clock past it (that would break the run(until=...) contract)
        self._run_bound: int = -1
        #: events of the current drained-run snapshot still undispatched
        #: (generic backend path only; native loops keep entries queue-
        #: visible, so this stays 0).  Non-zero blocks inline train steps:
        #: a snapshot entry is invisible to the queue floor probe.
        self._drain_left: int = 0
        #: inline train steps executed by the run() call in progress;
        #: folded into its return value and ``events_executed``
        self._inline_ct: int = 0
        #: denied-train memo: the queue floor observed by the last train
        #: probe that denied an inline step.  While ``now`` has not
        #: reached it, that event is still pending (lazy-tombstone
        #: backends never remove entries early), so any train tick at or
        #: after it can be denied without re-probing the queue.  Denials
        #: are always safe — the fallback path is the per-frame engine —
        #: so a stale-low memo costs speed, never correctness.  -1 (past)
        #: means no valid memo.
        self._floor_cache: int = -1
        # -- batch counters (profiling; zero when batch is off) ---------
        #: same-timestamp runs dispatched by the batched loops
        self.runs_drained: int = 0
        #: run-length histogram: index = bit_length(run_len), capped
        self.run_hist: List[int] = [0] * 18
        #: transmit trains: port done-tick anchors that ran at least one
        #: serializer tick inline
        self.trains: int = 0
        #: frames carried by those trains (>= trains)
        self.train_pkts: int = 0
        #: train-length histogram: index = bit_length(train_len), capped
        self.train_hist: List[int] = [0] * 18
        #: inline train steps denied because a competing event at or
        #: before the serializer-done tick could not be ruled out (each
        #: denial schedules the pair normally and ends any live train)
        self.train_fallbacks: int = 0
        self._bind_hot_paths()

    def _bind_hot_paths(self) -> None:
        """Bind the hot entry points, specialized to the active backend.

        The names are instance slots (see ``__slots__``): the default
        heap backend gets closures over the raw entry list, so every
        ``schedule``/``schedule_tx`` call skips the backend dispatch and
        the ``self._heap`` indirection the generic bodies pay; other
        backends bind the generic ``_*_any`` methods.  A subclass that
        defines any of these names as a real method (the partitioned
        engine's composite-key schedule family) shadows the slot — the
        bind raises ``AttributeError`` for that name and is skipped, so
        the method stays in charge.
        """
        heap = self._heap
        if heap is None:
            schedule = self._schedule_any
            schedule_call = self._schedule_call_any
            schedule_tx = self._schedule_tx_any
            schedule_tx_train = self._schedule_tx_train_any
        else:
            sim = self
            push = heappush

            def schedule(
                delay_ns: int, fn: Callable[[], None]
            ) -> EventHandle:
                """Schedule ``fn`` in ``delay_ns`` ns (heap fast path)."""
                if delay_ns < 0:
                    raise ValueError(
                        f"cannot schedule in the past (delay={delay_ns})"
                    )
                sim._seq = seq = sim._seq + 1
                entry = (sim.now + delay_ns, seq, fn)
                push(heap, entry)
                n = len(heap)
                if n > sim.heap_hwm:
                    sim.heap_hwm = n
                return entry

            def schedule_call(
                delay_ns: int, fn: Callable[[Any], None], arg: Any
            ) -> EventHandle:
                """Schedule ``fn(arg)`` in ``delay_ns`` ns (heap fast path)."""
                sim._seq = seq = sim._seq + 1
                entry = (sim.now + delay_ns, seq, fn, arg)
                push(heap, entry)
                n = len(heap)
                if n > sim.heap_hwm:
                    sim.heap_hwm = n
                return entry

            def schedule_tx(
                tx_ns: int,
                done_fn: Callable[[], None],
                rx_ns: int,
                rx_fn: Callable[[Any], None],
                pkt: Any,
            ) -> None:
                """Schedule a transmit pair: done tick then delivery."""
                seq = sim._seq + 1
                sim._seq = seq + 1
                now = sim.now
                push(heap, (now + tx_ns, seq, done_fn))
                push(heap, (now + rx_ns, seq + 1, rx_fn, pkt))
                n = len(heap)
                if n > sim.heap_hwm:
                    sim.heap_hwm = n

            def schedule_tx_train(
                tx_ns: int,
                done_fn: Callable[[], None],
                rx_ns: int,
                rx_fn: Callable[[Any], None],
                pkt: Any,
            ) -> bool:
                """Transmit pair with the inline-train fast path.

                See :meth:`Simulator._schedule_tx_train_any` for the
                proof obligations; this is its heap specialization with
                the fallback pair-push inlined.  The denied-floor memo
                of the generic body is deliberately absent here: the
                heap's floor probe is one list index, cheaper than the
                memo compare is worth.
                """
                now = sim.now
                t_next = now + tx_ns
                if (
                    t_next <= sim._run_bound
                    and not sim._drain_left
                    and (heap[0][0] if heap else _NEVER) > t_next
                ):
                    sim._seq = seq = sim._seq + 2
                    push(heap, (now + rx_ns, seq, rx_fn, pkt))
                    n = len(heap)
                    if n > sim.heap_hwm:
                        sim.heap_hwm = n
                    sim.now = t_next
                    sim._inline_ct += 1
                    return True
                seq = sim._seq + 1
                sim._seq = seq + 1
                push(heap, (t_next, seq, done_fn))
                push(heap, (now + rx_ns, seq + 1, rx_fn, pkt))
                n = len(heap)
                if n > sim.heap_hwm:
                    sim.heap_hwm = n
                return False

        if self._eq_cancel is not None:
            cancel = self._cancel_any
        else:
            cancelled_add = self._cancelled.add

            def cancel(handle: EventHandle) -> None:
                """Cancel a scheduled event (lazy tombstone path)."""
                cancelled_add(handle[1])

        for name, fn in (
            ("schedule", schedule),
            ("schedule_call", schedule_call),
            ("schedule_tx", schedule_tx),
            ("schedule_tx_train", schedule_tx_train),
            ("cancel", cancel),
        ):
            try:
                setattr(self, name, fn)
            except AttributeError:
                # shadowed by a subclass method — keep the method
                pass

    # -- scheduling -----------------------------------------------------
    #
    # ``schedule`` / ``schedule_call`` / ``schedule_tx`` /
    # ``schedule_tx_train`` / ``cancel`` are instance slots bound by
    # :meth:`_bind_hot_paths`: the default heap backend gets closures
    # over the raw entry list, every other backend gets the ``_*_any``
    # methods below (whose bodies keep the historical three-way backend
    # dispatch).  Subclasses that define these names as real methods —
    # the partitioned engine overrides the schedule family for composite
    # sequence keys — shadow the slot and keep their methods.

    def _schedule_any(self, delay_ns: int, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` to run ``delay_ns`` nanoseconds from now.

        Returns a handle usable with :meth:`cancel`.
        """
        if delay_ns < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay_ns})")
        self._seq = seq = self._seq + 1
        entry = (self.now + delay_ns, seq, fn)
        heap = self._heap
        if heap is not None:
            heappush(heap, entry)
            n = len(heap)
            if n > self.heap_hwm:
                self.heap_hwm = n
        else:
            lad = self._ladder
            if lad is None:
                n = self._eq_push(entry)
                if n > self.heap_hwm:
                    self.heap_hwm = n
            else:
                # inlined LadderEventQueue.push, cheapest case first: a
                # due-now entry bisects straight into the active run with
                # no counter or high-water-mark work (the ladder samples
                # its pool hwm at refill; run() folds it back in)
                b = entry[0] >> lad._shift
                if b <= lad._cur:
                    insort(lad._bottom, entry, lad._bi)
                elif b < lad._limit:
                    lad._ring[b & lad._mask].append(entry)
                    lad._count += 1
                else:
                    lad.push(entry)
        return entry

    def schedule_at(self, time_ns: int, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` at absolute time ``time_ns``."""
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule at {time_ns} before now ({self.now})"
            )
        self._seq = seq = self._seq + 1
        entry = (time_ns, seq, fn)
        heap = self._heap
        if heap is not None:
            heappush(heap, entry)
            n = len(heap)
            if n > self.heap_hwm:
                self.heap_hwm = n
        else:
            lad = self._ladder
            if lad is None:
                n = self._eq_push(entry)
                if n > self.heap_hwm:
                    self.heap_hwm = n
            else:
                # inlined LadderEventQueue.push, cheapest case first: a
                # due-now entry bisects straight into the active run with
                # no counter or high-water-mark work (the ladder samples
                # its pool hwm at refill; run() folds it back in)
                b = entry[0] >> lad._shift
                if b <= lad._cur:
                    insort(lad._bottom, entry, lad._bi)
                elif b < lad._limit:
                    lad._ring[b & lad._mask].append(entry)
                    lad._count += 1
                else:
                    lad.push(entry)
        return entry

    def _schedule_call_any(
        self, delay_ns: int, fn: Callable[[Any], None], arg: Any
    ) -> EventHandle:
        """Hot-path scheduling: ``fn(arg)`` in ``delay_ns`` nanoseconds.

        This is the monotonic fast path used by ports and links: the delay
        is trusted to be non-negative (serialization and propagation delays
        are by construction), and the single argument rides in the queue
        entry itself, so no closure or callable wrapper is allocated per
        event.  ``fn`` must accept exactly one positional argument.
        """
        self._seq = seq = self._seq + 1
        entry = (self.now + delay_ns, seq, fn, arg)
        heap = self._heap
        if heap is not None:
            heappush(heap, entry)
            n = len(heap)
            if n > self.heap_hwm:
                self.heap_hwm = n
        else:
            lad = self._ladder
            if lad is None:
                n = self._eq_push(entry)
                if n > self.heap_hwm:
                    self.heap_hwm = n
            else:
                # inlined LadderEventQueue.push, cheapest case first: a
                # due-now entry bisects straight into the active run with
                # no counter or high-water-mark work (the ladder samples
                # its pool hwm at refill; run() folds it back in)
                b = entry[0] >> lad._shift
                if b <= lad._cur:
                    insort(lad._bottom, entry, lad._bi)
                elif b < lad._limit:
                    lad._ring[b & lad._mask].append(entry)
                    lad._count += 1
                else:
                    lad.push(entry)
        return entry

    def _schedule_tx_any(
        self,
        tx_ns: int,
        done_fn: Callable[[], None],
        rx_ns: int,
        rx_fn: Callable[[Any], None],
        pkt: Any,
    ) -> None:
        """Hot-path scheduling of a transmit pair.

        Every transmitted packet schedules exactly two events — the
        serializer-done tick at ``tx_ns`` and the propagated delivery
        ``rx_fn(pkt)`` at ``rx_ns`` — so one call covers both, paying the
        call and queue-routing prologue once.  Delays are trusted to be
        non-negative and ``rx_ns >= tx_ns``; no handles are returned
        (ports never cancel these).  The done tick takes the lower seq,
        exactly as two back-to-back ``schedule``/``schedule_call`` calls
        would order it.
        """
        seq = self._seq + 1
        self._seq = seq + 1
        now = self.now
        e1 = (now + tx_ns, seq, done_fn)
        e2 = (now + rx_ns, seq + 1, rx_fn, pkt)
        heap = self._heap
        if heap is not None:
            heappush(heap, e1)
            heappush(heap, e2)
            n = len(heap)
            if n > self.heap_hwm:
                self.heap_hwm = n
        else:
            lad = self._ladder
            if lad is None:
                self._eq_push(e1)
                n = self._eq_push(e2)
                if n > self.heap_hwm:
                    self.heap_hwm = n
            else:
                # inlined LadderEventQueue.push twice (see schedule_call)
                shift = lad._shift
                cur = lad._cur
                limit = lad._limit
                b = e1[0] >> shift
                if b <= cur:
                    insort(lad._bottom, e1, lad._bi)
                elif b < limit:
                    lad._ring[b & lad._mask].append(e1)
                    lad._count += 1
                else:
                    lad.push(e1)
                b = e2[0] >> shift
                if b <= cur:
                    insort(lad._bottom, e2, lad._bi)
                elif b < limit:
                    lad._ring[b & lad._mask].append(e2)
                    lad._count += 1
                else:
                    lad.push(e2)

    def _schedule_tx_train_any(
        self,
        tx_ns: int,
        done_fn: Callable[[], None],
        rx_ns: int,
        rx_fn: Callable[[Any], None],
        pkt: Any,
    ) -> bool:
        """Transmit-pair scheduling with an inline fast path for trains.

        Semantically identical to :meth:`schedule_tx`, but when the
        engine can *prove* that nothing else fires at or before the
        serializer-done tick — the queue's floor is strictly later, the
        tick is inside the current ``run(until=...)`` bound, and no
        drained-run snapshot is mid-dispatch — the tick is executed
        inline instead of round-tripping through the event queue: the
        sequence number the done event would have consumed is burned (so
        the delivery event, and every later event in the simulation,
        gets the exact ``(time, seq)`` tuple the per-frame path would
        have produced), the delivery is pushed, and the clock advances
        to the tick.  Returns ``True`` in that case — the caller (the
        port's transmit train) loops and transmits the next frame
        directly, skipping one full dispatch round-trip per frame.

        Returns ``False`` when the proof fails; the pair has then been
        scheduled exactly as :meth:`schedule_tx` would, and ``done_fn``
        will fire through the normal loop.  Because the inline path
        advances the clock only when no other event could observe the
        intermediate states, both outcomes are bit-identical to the
        per-frame engine — pinned by the golden digests and the
        batched-vs-unbatched fuzz.

        A denial memoizes the floor it observed in ``_floor_cache``:
        train ticks attempted at or before that time which also reach
        past it are denied without re-probing the backend (the floor
        probe is the expensive part of a denial on non-heap backends —
        the timer wheel walks buckets to answer it).  The common hit is
        the handler of the denying event itself: it runs with the clock
        *equal* to the memo and immediately attempts the next train.
        At that instant the memoized event has already fired, so a
        fresh probe might have allowed the step — the memo trades those
        (rare, ~2% of attempts at the memoized timestamp) inline wins
        for skipping the probe on the ~98% denial traffic.  Results are
        bit-identical either way: a denial takes exactly the per-frame
        path; only the ``trains``/``train_pkts`` observability counters
        and wall time can move.
        """
        now = self.now
        t_next = now + tx_ns
        if now <= self._floor_cache <= t_next:
            self.schedule_tx(tx_ns, done_fn, rx_ns, rx_fn, pkt)
            return False
        if t_next <= self._run_bound and not self._drain_left:
            heap = self._heap
            lad = self._ladder
            # non-mutating lower bound on the next pending event's time;
            # tombstoned heads only make it conservative (a denied inline
            # falls back to the per-frame path, never a wrong one)
            if heap is not None:
                floor = heap[0][0] if heap else _NEVER
            elif lad is not None:
                bottom = lad._bottom
                bi = lad._bi
                if bi < len(bottom):
                    floor = bottom[bi][0]
                elif lad._count:
                    floor = (lad._cur + 1) << lad._shift
                else:
                    floor = _NEVER
            else:
                floor = self._equeue.peek_floor()
            if floor > t_next:
                self._seq = seq = self._seq + 2
                entry = (self.now + rx_ns, seq, rx_fn, pkt)
                if heap is not None:
                    heappush(heap, entry)
                    n = len(heap)
                    if n > self.heap_hwm:
                        self.heap_hwm = n
                elif lad is not None:
                    # inlined LadderEventQueue.push (see schedule_call)
                    b = entry[0] >> lad._shift
                    if b <= lad._cur:
                        insort(lad._bottom, entry, lad._bi)
                    elif b < lad._limit:
                        lad._ring[b & lad._mask].append(entry)
                        lad._count += 1
                    else:
                        lad.push(entry)
                else:
                    n = self._eq_push(entry)
                    if n > self.heap_hwm:
                        self.heap_hwm = n
                self.now = t_next
                self._inline_ct += 1
                return True
            self._floor_cache = floor
        self.schedule_tx(tx_ns, done_fn, rx_ns, rx_fn, pkt)
        return False

    def schedule_many(
        self, items: Iterable[Tuple[int, Callable[[], None]]]
    ) -> None:
        """Batch-schedule ``(delay_ns, fn)`` pairs in one call.

        Amortizes attribute lookups and the high-water-mark update across
        the batch; no handles are returned, so batched events cannot be
        cancelled.  Delays are trusted to be non-negative.
        """
        now = self.now
        seq = self._seq
        heap = self._heap
        if heap is not None:
            push = heappush
            for delay_ns, fn in items:
                seq += 1
                push(heap, (now + delay_ns, seq, fn))
            n = len(heap)
        else:
            eq_push = self._eq_push
            n = 0
            for delay_ns, fn in items:
                seq += 1
                n = eq_push((now + delay_ns, seq, fn))
        self._seq = seq
        if n > self.heap_hwm:
            self.heap_hwm = n

    def _cancel_any(self, handle: EventHandle) -> None:
        """Cancel a scheduled event.

        The backend gets first refusal — the timer wheel removes the
        entry physically in O(1); every other backend declines, and the
        sequence number goes into the lazy side set that dispatch skips
        (and drains) when the entry surfaces.  Cancelling an event that
        has already fired is a harmless no-op in practice — the stale
        sequence number simply sits in the side set — but callers should
        not rely on that as a pattern.
        """
        cancel = self._eq_cancel
        if cancel is None or not cancel(handle):
            self._cancelled.add(handle[1])

    # -- execution ------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events in order.

        Stops when the queue is empty, when the next event is later than
        ``until``, or after ``max_events`` events.  Returns the number of
        events executed.

        Boundary contract (pinned by ``tests/test_run_boundaries.py`` on
        every backend):

        * ``until`` is **inclusive**: an event whose timestamp exactly
          equals ``until`` executes in this call; the first event strictly
          later stays queued.
        * The clock is advanced to ``until`` only when no event remains at
          or before it — if the run stopped on ``max_events`` with such
          events still pending, the clock stays put (at the last executed
          event's time) so the next ``run()``/``step()`` never moves time
          backwards, and a later ``run(until=...)`` call resumes exactly
          where the budget cut in.
        * ``max_events`` counts engine-dispatched (non-cancelled) events
          only, and the run stops *after* the event that exhausts the
          budget.  Inline transmit-train steps (see
          :meth:`schedule_tx_train`) ride inside their anchor event's
          dispatch: they are included in the return value and in
          ``events_executed``, but a budget check cannot cut a train
          mid-flight any more than it could interrupt a callback.
        """
        heap = self._heap
        cancelled = self._cancelled
        # hoist the stop conditions out of the loop: compare against
        # integer sentinels instead of re-testing `is not None` (or
        # paying an int/float comparison) per event
        until_bound = _NEVER if until is None else until
        budget = _NEVER if max_events is None else max_events
        executed = 0
        batch = self.batch
        if batch:
            # inline train steps may advance the clock up to (and
            # including) this bound without breaking the until contract
            self._run_bound = until_bound
        self._inline_ct = 0
        self._running = True
        # Pause the cyclic collector for the duration of the loop: the
        # hot path allocates nothing but short-lived event tuples and
        # freelisted packets — all acyclic, reclaimed by refcounting the
        # moment they are dropped — so generation-0 passes triggered by
        # that churn only scan for cycles that never exist.  Cyclic
        # garbage created by callbacks keeps accumulating until the
        # collector resumes below, which bounds the drift to one run call.
        # The disable itself sits inside the try: the matching gc.enable()
        # in the finally block must run even when a callback raises (or an
        # async exception lands between the disable and the loop), or the
        # process is left with the cyclic collector permanently off.
        gc_was_enabled = False
        try:
            gc_was_enabled = gc.isenabled()
            if gc_was_enabled:
                gc.disable()
            if heap is not None and batch:
                # batched dispatch: pop-first with a same-timestamp fast
                # path.  Every event of a run after the first skips the
                # until comparison and the clock store, and popping
                # before the tombstone check saves the separate heap[0]
                # peek the legacy loop paid per event (tombstones
                # included).  Entries stay queue-visible until popped
                # one at a time, so callbacks — and the train floor
                # probe — always see a truthful queue.  Singleton runs
                # (the overwhelming majority in timer-churn workloads)
                # fold into one counter at the boundary; the histogram
                # write happens only for multi-event runs.
                pop = heappop
                time = -1
                hist = self.run_hist
                # Run accounting rides the *rare* path only: a singleton
                # run (the overwhelming majority in timer-churn
                # workloads) pays two predictable compares and nothing
                # else; `mlen` tracks the multi-event run in progress
                # (0 = none) and `multi` the events those runs carried,
                # so singles fall out as `executed - multi` at the end.
                mlen = 0
                multi = 0
                runs = 0
                if until_bound == _NEVER and budget == _NEVER:
                    # free-running run() (no until, no max_events): the
                    # per-event budget compare and per-run until compare
                    # drop out of the loop entirely, and the empty check
                    # rides on heappop's IndexError (free until it fires
                    # once, at the end) instead of a per-event truthiness
                    # test
                    while True:
                        try:
                            entry = pop(heap)
                        except IndexError:
                            break
                        if cancelled and entry[1] in cancelled:
                            # tombstones never advance the clock or
                            # close a run
                            cancelled.discard(entry[1])
                            continue
                        t = entry[0]
                        if t != time:
                            if mlen:
                                runs += 1
                                multi += mlen
                                b = mlen.bit_length()
                                hist[b if b < 17 else 17] += 1
                                mlen = 0
                            self.now = time = t
                        else:
                            mlen = mlen + 1 if mlen else 2
                        if len(entry) == 3:
                            entry[2]()
                        else:
                            entry[2](entry[3])
                        executed += 1
                else:
                    while True:
                        try:
                            entry = pop(heap)
                        except IndexError:
                            break
                        if cancelled and entry[1] in cancelled:
                            # tombstones never advance the clock or close
                            # a run — dropping one past `until` here
                            # (instead of leaving it queued like the
                            # peek-first loop would) is pure compaction,
                            # the same the legacy engine performs in
                            # peek_time()
                            cancelled.discard(entry[1])
                            continue
                        t = entry[0]
                        if t != time:
                            if t > until_bound:
                                heappush(heap, entry)
                                break
                            if mlen:
                                runs += 1
                                multi += mlen
                                b = mlen.bit_length()
                                hist[b if b < 17 else 17] += 1
                                mlen = 0
                            self.now = time = t
                        else:
                            mlen = mlen + 1 if mlen else 2
                        if len(entry) == 3:
                            entry[2]()
                        else:
                            entry[2](entry[3])
                        executed += 1
                        if executed >= budget:
                            break
                if mlen:
                    runs += 1
                    multi += mlen
                    b = mlen.bit_length()
                    hist[b if b < 17 else 17] += 1
                singles = executed - multi
                hist[1] += singles
                self.runs_drained += runs + singles
            elif heap is not None:
                pop = heappop
                while heap:
                    entry = heap[0]
                    time = entry[0]
                    if time > until_bound:
                        break
                    pop(heap)
                    if cancelled and entry[1] in cancelled:
                        cancelled.discard(entry[1])
                        continue
                    self.now = time
                    if len(entry) == 3:
                        entry[2]()
                    else:
                        entry[2](entry[3])
                    executed += 1
                    if executed >= budget:
                        break
            else:
                executed = self._equeue.run_loop(
                    self, until_bound, budget, cancelled
                )
        finally:
            self._running = False
            self._run_bound = -1
            self._drain_left = 0
            executed += self._inline_ct
            self._inline_ct = 0
            self.events_executed += executed
            lad = self._ladder
            if lad is not None and lad._hwm > self.heap_hwm:
                self.heap_hwm = lad._hwm
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until:
            nxt = self.peek_time()
            if nxt is None or nxt > until:
                self.now = until
        return executed

    def step(self) -> bool:
        """Execute the single next (non-cancelled) event.

        Returns ``False`` when no event remains.
        """
        heap = self._heap
        cancelled = self._cancelled
        if heap is not None:
            while heap:
                entry = heappop(heap)
                if cancelled and entry[1] in cancelled:
                    cancelled.discard(entry[1])
                    continue
                self.now = entry[0]
                if len(entry) == 3:
                    entry[2]()
                else:
                    entry[2](entry[3])
                self.events_executed += 1
                return True
            return False
        eq_pop = self._equeue.pop
        while True:
            popped = eq_pop()
            if popped is None:
                return False
            if cancelled and popped[1] in cancelled:
                cancelled.discard(popped[1])
                continue
            self.now = popped[0]
            if len(popped) == 3:
                popped[2]()
            else:
                popped[2](popped[3])
            self.events_executed += 1
            return True

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or ``None`` if idle.

        Compacts cancelled entries off the queue head as a side effect
        (the lazy-deletion mechanic); the answer is unaffected, and the
        high-water mark can only have been set at push time, so profiling
        counters are not perturbed.
        """
        heap = self._heap
        cancelled = self._cancelled
        if heap is not None:
            while heap and cancelled and heap[0][1] in cancelled:
                cancelled.discard(heap[0][1])
                heappop(heap)
            return heap[0][0] if heap else None
        eq = self._equeue
        while True:
            entry = eq.peek()
            if entry is None:
                return None
            if cancelled and entry[1] in cancelled:
                cancelled.discard(entry[1])
                eq.pop()
                continue
            return entry[0]

    # -- introspection --------------------------------------------------

    @property
    def equeue_name(self) -> str:
        """The active event-queue backend's registry name."""
        return self._equeue.name

    def equeue_stats(self) -> Dict[str, int]:
        """The backend's structure counters (see ``EventQueue.stats``)."""
        return self._equeue.stats()

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still scheduled.

        Purely a read: unlike :meth:`peek_time`, this never compacts the
        queue, so profiling or debugging reads cannot perturb engine
        state.  Lazily-cancelled events linger until popped and are
        excluded from the count.  O(n) in queue size; for a boolean
        check prefer :attr:`idle`.
        """
        cancelled = self._cancelled
        eq = self._equeue
        if not cancelled:
            return len(eq)
        return sum(1 for entry in eq if entry[1] not in cancelled)

    @property
    def idle(self) -> bool:
        """True when no live event remains — nothing can ever fire again."""
        return self.peek_time() is None
