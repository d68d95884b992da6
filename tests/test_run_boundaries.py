"""Pin ``Simulator.run``'s boundary contract.

The harness drives every run in ``run(until=...)`` chunks and reasons
about which events executed, so the contract documented on
``Simulator.run`` is pinned here:

* ``until`` is inclusive; the first strictly-later event stays queued;
* when nothing remains at or before ``until``, the clock advances to
  ``until`` exactly (idempotently);
* ``max_events`` counts executed events only and stops *after* the
  budget-exhausting event, leaving the clock on that event's timestamp;
  a budget of 0 executes nothing and a negative one is an error;
* cutting a run with ``until``/``max_events`` — even inside a
  same-timestamp run, with cancellations landing mid-run — executes the
  same event sequence as one uncut ``run()``.

Plus the GC regression: ``run`` disables gc for the hot loop and must
restore it even when a callback raises.

The boundary cases run on both push/pop primitive pairs the one run loop
can be bound to: plain ``heapq`` ("heap") and the runtime sanitizer's
checked twins ("checked").
"""

import gc
import random

import pytest

from repro.net import packet
from repro.sanitize import detach
from repro.sim.engine import Simulator


@pytest.fixture(params=[False, True], ids=["heap", "checked"])
def make_sim(request):
    """A Simulator factory bound to one primitive pair."""
    yield lambda: Simulator(sanitize=request.param)
    # a checked engine installs the process-global freelist hook
    detach()
    packet.reset_freelist()


def _log_cb(log, label):
    def cb():
        log.append(label)

    return cb


class TestUntilBoundary:
    def test_event_exactly_at_until_executes(self, make_sim):
        sim = make_sim()
        log = []
        sim.schedule(100, _log_cb(log, "at"))
        sim.schedule(101, _log_cb(log, "after"))
        executed = sim.run(until=100)
        assert executed == 1
        assert log == ["at"]
        assert sim.now == 100

    def test_event_after_until_stays_queued(self, make_sim):
        sim = make_sim()
        log = []
        sim.schedule(101, _log_cb(log, "after"))
        assert sim.run(until=100) == 0
        assert log == []
        assert not sim.idle
        assert sim.peek_time() == 101
        # the event is intact and fires on the next call
        assert sim.run(until=101) == 1
        assert log == ["after"]

    def test_clock_advances_to_until_when_drained(self, make_sim):
        sim = make_sim()
        sim.schedule(10, lambda: None)
        sim.run(until=500)
        assert sim.now == 500

    def test_clock_advance_is_idempotent(self, make_sim):
        """Chunked driving: an empty chunk still parks now on the bound."""
        sim = make_sim()
        sim.schedule(10, lambda: None)
        for bound in (100, 200, 300):
            sim.run(until=bound)
            assert sim.now == bound
        assert sim.events_executed == 1

    def test_until_in_the_past_is_a_noop(self, make_sim):
        sim = make_sim()
        sim.schedule(10, lambda: None)
        sim.schedule(300, lambda: None)
        sim.run(until=200)
        assert sim.now == 200
        assert sim.run(until=100) == 0
        assert sim.now == 200  # the clock never moves backward

    def test_until_does_not_advance_past_pending_event(self, make_sim):
        """The tail advance only fires when nothing remains <= until."""
        sim = make_sim()
        sim.schedule(50, lambda: None)
        sim.schedule(150, lambda: None)
        sim.run(until=100)
        assert sim.now == 100
        assert sim.peek_time() == 150

    def test_same_timestamp_events_all_run_at_until(self, make_sim):
        sim = make_sim()
        log = []
        for i in range(5):
            sim.schedule(100, _log_cb(log, i))
        assert sim.run(until=100) == 5
        assert log == [0, 1, 2, 3, 4]  # schedule order preserved


class TestMaxEvents:
    def test_budget_counts_executed_only(self, make_sim):
        sim = make_sim()
        fired = []
        for i in range(10):
            sim.schedule(10 * (i + 1), _log_cb(fired, i))
        assert sim.run(max_events=3) == 3
        assert fired == [0, 1, 2]
        # clock rests on the budget-exhausting event's timestamp
        assert sim.now == 30
        assert sim.peek_time() == 40

    def test_budget_with_until_stops_at_whichever_first(self, make_sim):
        sim = make_sim()
        for i in range(10):
            sim.schedule(10 * (i + 1), lambda: None)
        # budget binds before the time bound ...
        assert sim.run(until=1000, max_events=2) == 2
        assert sim.now == 20
        # ... and the time bound binds before the budget
        assert sim.run(until=50, max_events=100) == 3
        assert sim.now == 50

    def test_cancelled_events_do_not_consume_budget(self, make_sim):
        sim = make_sim()
        fired = []
        handles = [sim.schedule(10 * (i + 1), _log_cb(fired, i)) for i in range(6)]
        for handle in handles[:3]:
            sim.cancel(handle)
        assert sim.run(max_events=3) == 3
        assert fired == [3, 4, 5]

    def test_resume_after_budget_is_seamless(self, make_sim):
        """Driving by repeated small budgets executes the same schedule."""
        sim_a = make_sim()
        sim_b = make_sim()
        log_a, log_b = [], []
        for sim, log in ((sim_a, log_a), (sim_b, log_b)):
            for i in range(20):
                sim.schedule(7 * (i % 5) + i, _log_cb(log, i))
        total_a = sim_a.run()
        total_b = 0
        while True:
            n = sim_b.run(max_events=3)
            total_b += n
            if n == 0:
                break
        assert total_a == total_b == 20
        assert log_a == log_b

    def test_zero_budget_executes_nothing(self, make_sim):
        sim = make_sim()
        fired = []
        sim.schedule(10, _log_cb(fired, "a"))
        sim.schedule(10, _log_cb(fired, "b"))
        assert sim.run(max_events=0) == 0
        assert fired == []
        assert sim.now == 0
        assert sim.events_executed == 0
        assert sim.pending == 2
        assert sim.run() == 2
        assert fired == ["a", "b"]

    def test_zero_budget_still_parks_the_clock_on_until(self, make_sim):
        # nothing is due by the bound, so the clock advances exactly as
        # an empty run(until=...) would — and no event is touched
        sim = make_sim()
        sim.schedule(500, lambda: None)
        assert sim.run(until=100, max_events=0) == 0
        assert sim.now == 100
        assert sim.peek_time() == 500

    def test_negative_budget_is_rejected(self, make_sim):
        sim = make_sim()
        fired = []
        sim.schedule(10, _log_cb(fired, "a"))
        with pytest.raises(ValueError, match="max_events"):
            sim.run(max_events=-1)
        assert fired == [] and sim.now == 0
        assert gc.isenabled()


#: the fuzz workload is driven up to this simulated time
_HORIZON = 2_500


def _fuzz_drive(seed, segmented):
    """A randomized re-entrant workload; returns (events, now, executed).

    Callbacks draw from one seeded RNG, so two drives coincide exactly
    when their execution orders do.  Same-timestamp clusters make
    multi-event runs, random cancellation hits pending events mid-run,
    and zero-delay schedules extend the run in progress.  ``segmented``
    drives to ``_HORIZON`` with ``until``/``max_events`` cuts that land
    inside those runs (a separate RNG picks the cuts); otherwise with one
    ``run(until=_HORIZON)`` call.
    """
    sim = Simulator()
    rng = random.Random(seed)
    events = []
    handles = []
    counter = [0]

    def make(tag):
        def fn():
            events.append((sim.now, tag))
            roll = rng.random()
            if roll < 0.5:
                delay = rng.randrange(0, 40) * 10
                for _ in range(rng.randrange(1, 5)):
                    counter[0] += 1
                    handles.append(sim.schedule(delay, make(counter[0])))
            if roll < 0.3 and handles:
                sim.cancel(handles.pop(rng.randrange(len(handles))))
            if roll < 0.15:
                counter[0] += 1
                handles.append(sim.schedule(0, make(counter[0])))
        return fn

    for _ in range(12):
        counter[0] += 1
        handles.append(sim.schedule(rng.randrange(0, 200), make(counter[0])))

    if not segmented:
        sim.run(until=_HORIZON)
        return events, sim.now, sim.events_executed
    cuts = random.Random(seed + 9001)
    while True:
        nxt = sim.peek_time()
        if nxt is None or nxt > _HORIZON:
            break
        if cuts.random() < 0.5:
            bound = min(sim.now + cuts.randrange(0, 300), _HORIZON)
            sim.run(until=bound)
            # everything due by the bound ran and the clock parked on it
            assert sim.now == bound
            nxt = sim.peek_time()
            assert nxt is None or nxt > bound
        else:
            budget = cuts.randrange(0, 7)
            assert sim.run(until=_HORIZON, max_events=budget) <= budget
    sim.run(until=_HORIZON)
    return events, sim.now, sim.events_executed


@pytest.mark.parametrize("seed", [2, 11, 23])
def test_segmented_driving_matches_one_uncut_run(seed):
    uncut = _fuzz_drive(seed, segmented=False)
    assert len(uncut[0]) > 100, "fuzz produced too few events"
    assert uncut[1] == _HORIZON
    assert _fuzz_drive(seed, segmented=True) == uncut


class TestGcRestoration:
    def test_gc_reenabled_after_clean_run(self, make_sim):
        assert gc.isenabled()
        sim = make_sim()
        sim.schedule(1, lambda: None)
        sim.run()
        assert gc.isenabled()

    def test_gc_reenabled_when_callback_raises(self, make_sim):
        """Regression: the hot loop disables gc; a raising callback must
        not leak the disabled state into the caller's process."""
        assert gc.isenabled()
        sim = make_sim()

        def boom():
            raise RuntimeError("injected")

        sim.schedule(1, boom)
        with pytest.raises(RuntimeError, match="injected"):
            sim.run()
        assert gc.isenabled()

    def test_gc_state_preserved_if_caller_disabled_it(self, make_sim):
        """run() restores the caller's state, whatever it was."""
        sim = make_sim()
        sim.schedule(1, lambda: None)
        gc.disable()
        try:
            sim.run()
            assert not gc.isenabled()
        finally:
            gc.enable()
