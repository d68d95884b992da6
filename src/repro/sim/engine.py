"""A small, fast discrete-event engine: one heap, one dispatch loop.

A scheduled callback is stored as a plain ``(time, seq, fn)`` tuple in a
single :mod:`heapq` list, so every ordering comparison runs on machine
integers in C — no ``Event`` object is allocated and no Python-level
``__lt__`` ever runs.  Events at the same timestamp fire in scheduling
order (the monotonically increasing ``seq`` breaks ties, and because it
is unique the comparison never reaches the callback slot).  The one
exception is :meth:`Simulator.schedule_tx`, the port's transmit pair,
whose delivery entry carries the packet as a fourth slot,
``(time, seq, fn, pkt)``, so no closure is allocated per packet.

Cancellation is handle-based and lazy: ``schedule`` returns the pushed
tuple as an opaque handle, :meth:`Simulator.cancel` records its sequence
number in a side set, and the run loop drops the entry (and the set
member) when it surfaces.  The common case — no cancellation outstanding
— costs one truthiness check per event.  Tombstones that sit far in the
future would otherwise pile up, so ``cancel`` also compacts: once the
heap holds more than ``_COMPACT_MIN_ENTRIES`` entries and more than half
of them are cancelled, it rebuilds the heap without them in one pass
(:func:`compact_heap`, the rule CPython's asyncio loop applies to its
timer heap).  Each rebuild is paid for by the cancels since the last one,
so a cancel stays amortised O(1), and after any cancel at most half of a
heap over ``_COMPACT_MIN_ENTRIES`` entries is tombstones.  Compaction
never changes which entries are live, so dispatch order is unaffected.

The runtime sanitizer (:mod:`repro.sanitize`) arms by handing the engine
checked push/pop/compact functions with the signatures of
``heapq.heappush``/``heappop`` and :func:`compact_heap`; they are bound
into the same closures and the same loop once, at construction, so an
unarmed engine carries no sanitizer code at all.

Design notes
------------
* Time is an **integer nanosecond** count (see :mod:`repro.units`), so there
  are no floating-point ordering surprises and runs are bit-reproducible.
* Callbacks receive no arguments; closures or ``functools.partial`` bind
  whatever state they need.
* The engine knows nothing about packets or networks; everything above it
  (links, queues, transports) is built from ``schedule`` calls.
"""

from __future__ import annotations

import gc
import os
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Set, Tuple

#: The opaque handle returned by ``schedule`` — the heap entry itself.
#: ``handle[0]`` is the absolute fire time (ns); treat everything else as
#: private and pass the handle to :meth:`Simulator.cancel` to cancel it.
EventHandle = Tuple[Any, ...]

#: "no bound" sentinel for run(): beyond any reachable time or event count
#: (~292 years of simulated nanoseconds), while keeping the per-event stop
#: comparisons int-vs-int
_NEVER = 2**63 - 1

#: ``cancel`` compacts the heap once it holds more than
#: ``_COMPACT_MIN_ENTRIES`` entries and more than
#: ``1 / _COMPACT_CANCELLED_INVERSE`` of them are cancelled: asyncio's
#: ``_MIN_SCHEDULED_TIMER_HANDLES = 100`` and
#: ``_MIN_CANCELLED_TIMER_HANDLES_FRACTION = 0.5``, the fraction stored as
#: its inverse so the per-cancel test stays in integers
_COMPACT_MIN_ENTRIES = 100
_COMPACT_CANCELLED_INVERSE = 2


def compact_heap(heap: List[EventHandle], cancelled: Set[int]) -> None:
    """Drop every cancelled entry from ``heap`` and clear ``cancelled``.

    Both are mutated in place: the run loop holds local references to
    them, and a callback may cancel (and so compact) mid-run.  Seqs in
    ``cancelled`` with no entry in the heap go too; they belong to
    events that already left it.
    """
    heap[:] = [entry for entry in heap if entry[1] not in cancelled]
    heapify(heap)
    cancelled.clear()


class Simulator:
    """The event loop.

    ``sanitize`` arms the runtime sanitizer; ``None`` defers to the
    ``REPRO_SANITIZE`` environment switch (unset or ``0`` is off), the
    one switch outside the tests.

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
        "schedule_tx",
        "cancel",
        "_heap",
        "_push",
        "_pop",
        "_compact",
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
        #: seqs of cancelled entries still in the heap (lazy deletion),
        #: plus any stale ones ``cancel`` documents; emptied by compaction
        self._cancelled: Set[int] = set()
        #: lifetime count of executed (non-cancelled) events — profiling
        self.events_executed: int = 0
        #: high-water mark of the heap (cancelled entries included)
        self.heap_hwm: int = 0
        # read here, not in repro.sanitize, so an unarmed engine never
        # imports the sanitizer
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        push, pop, compact = heappush, heappop, compact_heap
        self._san = None
        if sanitize:
            from repro.sanitize import Sanitizer

            san = Sanitizer(sim=self)
            san.attach_freelist()
            push, pop, compact = san.push, san.pop, san.compact
            self._san = san
        #: the heap primitives every push, pop and compaction goes through
        self._push: Callable[[List[EventHandle], EventHandle], None] = push
        self._pop: Callable[[List[EventHandle]], EventHandle] = pop
        self._compact: Callable[[List[EventHandle], Set[int]], None] = compact
        self._bind_hot_paths()

    def _bind_hot_paths(self) -> None:
        """Bind ``schedule``/``schedule_tx``/``cancel``.

        The names are instance slots holding closures over the heap list
        and the push primitive, which skips the ``self`` attribute reads
        a method body would pay per call.
        """
        sim = self
        heap = self._heap
        push = self._push
        compact = self._compact
        cancelled = self._cancelled
        cancelled_add = cancelled.add
        min_entries = _COMPACT_MIN_ENTRIES
        inverse = _COMPACT_CANCELLED_INVERSE

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
            ``schedule`` calls would order it.
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
            """Cancel a scheduled event.

            Lazy: the entry stays in the heap as a tombstone that the
            loop skips when it surfaces, unless this cancel tips the heap
            over the compaction threshold (see the module docstring), in
            which case every tombstone goes at once.  A handle whose time
            is behind the clock has already fired — nothing behind the
            clock can still be queued — so cancelling it is a no-op.  One
            that fired at the current instant, or a second cancel of the
            same handle, leaves a stale seq in the side set until the
            next compaction; that costs a little speed, never
            correctness.
            """
            if handle[0] < sim.now:
                return
            cancelled_add(handle[1])
            if inverse * len(cancelled) > len(heap) > min_entries:
                compact(heap, cancelled)

        self.schedule = schedule
        self.schedule_tx = schedule_tx
        self.cancel = cancel

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
          event's time) so the next ``run()`` never moves time
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

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or ``None`` if idle.

        Pops cancelled entries off the heap head as a side effect (the
        lazy-deletion mechanic); the answer is unaffected, and the
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

        Purely a read: unlike :meth:`peek_time`, this never touches the
        heap, so profiling or debugging reads cannot perturb engine
        state.  Lazily-cancelled events linger until popped or compacted
        and are excluded from the count.  O(n) in heap size while any
        cancellation is outstanding; for a boolean check prefer
        :attr:`idle`.
        """
        cancelled = self._cancelled
        if not cancelled:
            return len(self._heap)
        return sum(1 for entry in self._heap if entry[1] not in cancelled)

    @property
    def idle(self) -> bool:
        """True when no live event remains — nothing can ever fire again."""
        return self.peek_time() is None
