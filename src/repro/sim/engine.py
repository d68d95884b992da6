"""A small, fast discrete-event engine: one heap, one dispatch loop.

A scheduled callback is stored as a plain ``(time, seq, fn)`` tuple (or
``(time, seq, fn, arg)`` for the argument-carrying fast path) in a single
:mod:`heapq` list, so every ordering comparison runs on machine integers
in C — no ``Event`` object is allocated and no Python-level ``__lt__``
ever runs.  Events at the same timestamp fire in scheduling order (the
monotonically increasing ``seq`` breaks ties, and because it is unique
the comparison never reaches the callback slot, which is why mixed 3- and
4-tuples can share one heap).

Cancellation is handle-based and lazy: ``schedule`` returns the pushed
tuple as an opaque handle, :meth:`Simulator.cancel` records its sequence
number in a side set, and the run loop drops the entry (and the set
member) when it surfaces.  The common case — no cancellation outstanding
— costs one truthiness check per event.

The runtime sanitizer (:mod:`repro.sanitize`) arms by handing the engine
checked push/pop functions with ``heapq.heappush``/``heappop``'s
signatures; they are bound into the same closures and the same loop once,
at construction, so an unarmed engine carries no sanitizer code at all.

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
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Set, Tuple

#: The opaque handle returned by ``schedule``/``schedule_at``/``schedule_call``
#: — the heap entry itself.  ``handle[0]`` is the absolute fire time (ns);
#: treat everything else as private and pass the handle to
#: :meth:`Simulator.cancel` to cancel it.
EventHandle = Tuple[Any, ...]

#: "no bound" sentinel for run(): beyond any reachable time or event count
#: (~292 years of simulated nanoseconds), while keeping the per-event stop
#: comparisons int-vs-int
_NEVER = 2**63 - 1


class Simulator:
    """The event loop.

    ``sanitize`` arms the runtime sanitizer; ``None`` defers to the
    ``REPRO_SANITIZE`` environment switch.

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
        # hot entry points, bound per instance by _bind_hot_paths() as
        # closures over the heap list and the push primitive
        "schedule",
        "schedule_call",
        "schedule_tx",
        "cancel",
        "_heap",
        "_push",
        "_pop",
        "_seq",
        "_cancelled",
        "events_executed",
        "heap_hwm",
        "_san",
    )

    def __init__(self, sanitize: Optional[bool] = None) -> None:
        self.now: int = 0
        self._seq: int = 0
        #: the future-event list: a heapq-ordered list of entry tuples
        self._heap: List[EventHandle] = []
        #: seqs of entries cancelled but still in the heap (lazy deletion)
        self._cancelled: Set[int] = set()
        #: lifetime count of executed (non-cancelled) events — profiling
        self.events_executed: int = 0
        #: high-water mark of the heap (cancelled entries included)
        self.heap_hwm: int = 0
        # The REPRO_SANITIZE switch is read here rather than through
        # repro.sanitize.env_enabled so an unarmed engine never imports
        # the sanitizer; unset/"0" means off.
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        push, pop = heappush, heappop
        self._san = None
        if sanitize:
            from repro.sanitize import Sanitizer

            san = Sanitizer(sim=self)
            san.attach_freelist()
            push, pop = san.push, san.pop
            self._san = san
        #: the heap primitives every push and pop goes through
        self._push: Callable[[List[EventHandle], EventHandle], None] = push
        self._pop: Callable[[List[EventHandle]], EventHandle] = pop
        self._bind_hot_paths()

    def _bind_hot_paths(self) -> None:
        """Bind ``schedule``/``schedule_call``/``schedule_tx``/``cancel``.

        The names are instance slots holding closures over the heap list
        and the push primitive, which skips the ``self`` attribute reads
        a method body would pay per call.
        """
        sim = self
        heap = self._heap
        push = self._push
        cancelled_add = self._cancelled.add

        def schedule(delay_ns: int, fn: Callable[[], None]) -> EventHandle:
            """Schedule ``fn`` to run ``delay_ns`` nanoseconds from now.

            Returns a handle usable with :meth:`cancel`.
            """
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
            """Hot-path scheduling: ``fn(arg)`` in ``delay_ns`` nanoseconds.

            The monotonic fast path used by ports and links: the delay is
            trusted to be non-negative (serialization and propagation
            delays are by construction), and the single argument rides in
            the heap entry itself, so no closure is allocated per event.
            """
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
            """Schedule a transmit pair: done tick, then delivery.

            Every transmitted packet schedules exactly two events — the
            serializer-done tick at ``tx_ns`` and the propagated delivery
            ``rx_fn(pkt)`` at ``rx_ns`` — so one call covers both.
            Delays are trusted to be non-negative and ``rx_ns >= tx_ns``;
            no handles are returned (ports never cancel these).  The done
            tick takes the lower seq, exactly as two back-to-back
            ``schedule``/``schedule_call`` calls would order it.
            """
            seq = sim._seq + 1
            sim._seq = seq + 1
            now = sim.now
            push(heap, (now + tx_ns, seq, done_fn))
            push(heap, (now + rx_ns, seq + 1, rx_fn, pkt))
            n = len(heap)
            if n > sim.heap_hwm:
                sim.heap_hwm = n

        def cancel(handle: EventHandle) -> None:
            """Cancel a scheduled event (lazily: the loop skips it later).

            Cancelling an event that has already fired is a harmless
            no-op in practice — the stale sequence number simply sits in
            the side set — but callers should not rely on that.
            """
            cancelled_add(handle[1])

        self.schedule = schedule
        self.schedule_call = schedule_call
        self.schedule_tx = schedule_tx
        self.cancel = cancel

    # -- scheduling (cold paths) ------------------------------------------

    def schedule_at(self, time_ns: int, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` at absolute time ``time_ns``."""
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule at {time_ns} before now ({self.now})"
            )
        self._seq = seq = self._seq + 1
        entry = (time_ns, seq, fn)
        heap = self._heap
        self._push(heap, entry)
        if len(heap) > self.heap_hwm:
            self.heap_hwm = len(heap)
        return entry

    def schedule_many(
        self, items: Iterable[Tuple[int, Callable[[], None]]]
    ) -> None:
        """Batch-schedule ``(delay_ns, fn)`` pairs in one call.

        Amortizes attribute lookups and the high-water-mark update across
        the batch; no handles are returned, so these events cannot be
        cancelled.  Delays are trusted to be non-negative.
        """
        now = self.now
        seq = self._seq
        heap = self._heap
        push = self._push
        for delay_ns, fn in items:
            seq += 1
            push(heap, (now + delay_ns, seq, fn))
        self._seq = seq
        if len(heap) > self.heap_hwm:
            self.heap_hwm = len(heap)

    # -- execution ------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events in order.

        Stops when the heap is empty, when the next event is later than
        ``until``, or after ``max_events`` events.  Returns the number of
        events executed.

        Boundary contract (pinned by ``tests/test_run_boundaries.py``):

        * ``until`` is **inclusive**: an event whose timestamp exactly
          equals ``until`` executes in this call; the first event strictly
          later stays queued.
        * The clock is advanced to ``until`` only when no event remains at
          or before it — if the run stopped on ``max_events`` with such
          events still pending, the clock stays put (at the last executed
          event's time) so the next ``run()``/``step()`` never moves time
          backwards, and a later ``run(until=...)`` call resumes exactly
          where the budget cut in.
        * ``max_events`` counts executed (non-cancelled) events only; the
          run stops *after* the event that exhausts the budget, and a
          budget of 0 executes nothing.  A negative budget is an error.
        """
        if max_events is None:
            budget = _NEVER
        elif max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        else:
            budget = max_events
        # hoisted stop condition: an int sentinel instead of re-testing
        # `is not None` per event
        until_bound = _NEVER if until is None else until
        heap = self._heap
        pop = self._pop
        cancelled = self._cancelled
        executed = 0
        time = -1
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
            # Pop first: the empty check rides on heappop's IndexError
            # (free until it fires once, at the end), and an entry past
            # `until` is pushed back.  Events sharing the previous
            # event's timestamp skip the until compare and the clock
            # store, and only a dispatched event pays the budget check
            # (a budget of 0 never enters the loop).
            if budget:
                while True:
                    try:
                        entry = pop(heap)
                    except IndexError:
                        break
                    if cancelled and entry[1] in cancelled:
                        # tombstones never advance the clock; dropping
                        # one past `until` is pure compaction
                        cancelled.discard(entry[1])
                        continue
                    t = entry[0]
                    if t != time:
                        if t > until_bound:
                            self._push(heap, entry)
                            break
                        self.now = time = t
                    if len(entry) == 3:
                        entry[2]()
                    else:
                        entry[2](entry[3])
                    executed += 1
                    if executed == budget:
                        break
        finally:
            self.events_executed += executed
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
        while heap:
            entry = self._pop(heap)
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

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or ``None`` if idle.

        Compacts cancelled entries off the heap head as a side effect
        (the lazy-deletion mechanic); the answer is unaffected, and the
        high-water mark can only have been set at push time, so profiling
        counters are not perturbed.
        """
        heap = self._heap
        cancelled = self._cancelled
        while heap and cancelled and heap[0][1] in cancelled:
            cancelled.discard(heap[0][1])
            self._pop(heap)
        return heap[0][0] if heap else None

    # -- introspection --------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still scheduled.

        Purely a read: unlike :meth:`peek_time`, this never compacts the
        heap, so profiling or debugging reads cannot perturb engine
        state.  Lazily-cancelled events linger until popped and are
        excluded from the count.  O(n) in heap size; for a boolean check
        prefer :attr:`idle`.
        """
        cancelled = self._cancelled
        if not cancelled:
            return len(self._heap)
        return sum(1 for entry in self._heap if entry[1] not in cancelled)

    @property
    def idle(self) -> bool:
        """True when no live event remains — nothing can ever fire again."""
        return self.peek_time() is None
