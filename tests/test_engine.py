"""The discrete-event engine: ordering, cancellation, run bounds, the
port's transmit pair, and end-to-end runs of every scheduling discipline
on it."""

from functools import partial

import pytest
from hypothesis import given, strategies as st

from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.harness.schemes import SCHEDULERS
from repro.net import packet
from repro.sanitize import SanitizeError, detach
from repro.sim.engine import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, lambda: fired.append(30))
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(20, lambda: fired.append(20))
        sim.run()
        assert fired == [10, 20, 30]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(100, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_schedule_during_run(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(5, lambda: fired.append("second"))

        sim.schedule(10, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 15

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_zero_delay_fires_now(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: sim.schedule(0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [10]

    def test_partial_passes_argument(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, partial(fired.append, "a"))
        sim.schedule(5, partial(fired.append, "b"))
        sim.run()
        assert fired == ["b", "a"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(10, lambda: fired.append(1))
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.schedule(10, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.run() == 0

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        evs = [sim.schedule(i, lambda i=i: fired.append(i)) for i in range(5)]
        sim.cancel(evs[2])
        sim.run()
        assert fired == [0, 1, 3, 4]

    def test_cancel_partial_handle(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(10, partial(fired.append, 1))
        sim.schedule(20, partial(fired.append, 2))
        sim.cancel(ev)
        sim.run()
        assert fired == [2]

    def test_cancelled_events_not_counted_as_executed(self):
        sim = Simulator()
        keep = sim.schedule(10, lambda: None)
        drop = sim.schedule(20, lambda: None)
        sim.cancel(drop)
        assert sim.run() == 1
        assert sim.events_executed == 1
        assert keep  # the handle itself is a plain truthy tuple

    def test_cancel_after_fire_leaves_no_tombstone(self):
        """Regression: cancelling a handle that already fired used to park
        its seq in the side set for the rest of the run, so every later
        event paid the tombstone probe and ``pending`` its O(n) scan."""
        sim = Simulator()
        fired = sim.schedule(10, lambda: None)
        sim.schedule(30, lambda: None)
        sim.run(until=20)
        sim.cancel(fired)
        assert not sim._cancelled
        assert sim.pending == 1 and sim.run() == 1

    def test_cancel_compacts_once_most_of_the_heap_is_dead(self):
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(i + 1, partial(fired.append, i)) for i in range(200)
        ]
        for handle in handles[:100]:  # exactly half: not yet
            sim.cancel(handle)
        assert len(sim._heap) == 200 and len(sim._cancelled) == 100
        sim.cancel(handles[100])  # more than half: one rebuild
        assert len(sim._heap) == 99 and not sim._cancelled
        assert sim.heap_hwm == 200
        assert sim.run() == 99
        assert fired == list(range(101, 200))

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        handles = [sim.schedule(i + 1, lambda: None) for i in range(100)]
        for handle in handles[:99]:
            sim.cancel(handle)
        assert len(sim._heap) == 100 and len(sim._cancelled) == 99
        assert sim.run() == 1


class TestRunBounds:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(100, lambda: fired.append(100))
        sim.run(until=50)
        assert fired == [10]
        assert sim.now == 50  # clock advanced to the bound

    def test_until_resumes(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(100, lambda: fired.append(100))
        sim.run(until=50)
        sim.run()
        assert fired == [10, 100]

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(50, lambda: fired.append(50))
        sim.run(until=50)
        assert fired == [50]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(i, lambda i=i: fired.append(i))
        executed = sim.run(max_events=3)
        assert executed == 3
        assert fired == [0, 1, 2]

    def test_returns_executed_count(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(i, lambda: None)
        assert sim.run() == 7

    def test_max_events_with_until_does_not_jump_clock(self):
        """Regression: stopping on max_events with events still pending
        before `until` must not force-advance the clock past them."""
        sim = Simulator()
        fired = []
        for t in (10, 20, 30):
            sim.schedule(t, lambda t=t: fired.append(t))
        assert sim.run(until=100, max_events=1) == 1
        assert sim.now == 10  # NOT 100: events at 20/30 are still due
        sim.run()
        assert fired == [10, 20, 30]
        assert sim.now == 30

    def test_max_events_then_step_never_goes_backwards(self):
        sim = Simulator()
        times = []
        for t in (10, 20):
            sim.schedule(t, lambda: times.append(sim.now))
        sim.run(until=100, max_events=1)
        before = sim.now
        sim.run(max_events=1)
        assert sim.now >= before
        assert times == sorted(times)

    def test_until_advances_when_remaining_events_are_later(self):
        # stopped on max_events, but every remaining event is past `until`:
        # advancing the clock to the bound is still correct
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(500, lambda: None)
        sim.run(until=100, max_events=1)
        assert sim.now == 100

    def test_until_advances_past_cancelled_pending_event(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        ev = sim.schedule(50, lambda: None)
        sim.cancel(ev)
        sim.run(until=100, max_events=1)
        assert sim.now == 100


class TestStepAndPeek:
    """A single step is ``run(max_events=1)``."""

    def test_step_executes_one(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: fired.append(1))
        sim.schedule(2, lambda: fired.append(2))
        assert sim.run(max_events=1) == 1
        assert fired == [1] and sim.now == 1

    def test_step_on_empty_returns_false(self):
        sim = Simulator()
        assert not sim.run(max_events=1)
        assert sim.now == 0

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(5, lambda: None)
        sim.schedule(9, lambda: None)
        sim.cancel(ev)
        assert sim.peek_time() == 9

    def test_peek_empty_is_none(self):
        assert Simulator().peek_time() is None


class TestPendingAndIdle:
    def test_pending_counts_live_events(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(i + 1, lambda: None)
        assert sim.pending == 4

    def test_pending_excludes_cancelled(self):
        """Regression: lazily-cancelled events must not count as work."""
        sim = Simulator()
        evs = [sim.schedule(i + 1, lambda: None) for i in range(5)]
        sim.cancel(evs[0])
        sim.cancel(evs[3])
        assert sim.pending == 3

    def test_pending_zero_when_all_cancelled(self):
        sim = Simulator()
        evs = [sim.schedule(i + 1, lambda: None) for i in range(3)]
        for ev in evs:
            sim.cancel(ev)
        assert sim.pending == 0
        assert sim.idle

    def test_pending_is_side_effect_free(self):
        """`pending` is a pure observer: reading it must not reorder or
        compact the heap, so interleaved reads never perturb execution."""
        sim = Simulator()
        fired = []
        evs = [sim.schedule(i + 1, lambda i=i: fired.append(i)) for i in range(6)]
        sim.cancel(evs[0])
        sim.cancel(evs[2])
        heap = sim._heap
        before = list(heap)
        assert sim.pending == 4
        assert sim.pending == 4  # repeated reads agree
        assert list(heap) == before  # heap untouched
        sim.run()
        assert fired == [1, 3, 4, 5]

    def test_idle_lifecycle(self):
        sim = Simulator()
        assert sim.idle
        ev = sim.schedule(5, lambda: None)
        assert not sim.idle
        sim.cancel(ev)
        assert sim.idle
        sim.schedule(7, lambda: None)
        sim.run()
        assert sim.idle


class TestCounters:
    def test_heap_hwm_tracks_peak_outstanding(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        assert sim.heap_hwm == 5
        sim.run()
        assert sim.heap_hwm == 5  # high-water mark, not current size

    def test_events_executed_accumulates_across_runs(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.run()
        sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_executed == 2


class TestScheduleTx:
    """The port's transmit pair: a done tick and a delivery carrying the
    packet, pushed by one call."""

    @staticmethod
    def _tie_order(use_tx):
        # other events at both instants, armed before and after the pair
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append("tx-before"))
        sim.schedule(25, lambda: fired.append("rx-before"))
        done = partial(fired.append, "done")
        if use_tx:
            sim.schedule_tx(10, done, 25, fired.append, "pkt")
        else:
            sim.schedule(10, done)
            sim.schedule(25, partial(fired.append, "pkt"))
        sim.schedule(10, lambda: fired.append("tx-after"))
        sim.schedule(25, lambda: fired.append("rx-after"))
        sim.run()
        return fired, sim.now, sim.heap_hwm, sim.events_executed

    def test_pair_pops_like_two_schedules(self):
        paired = self._tie_order(use_tx=True)
        assert paired == self._tie_order(use_tx=False)
        assert paired[0] == [
            "tx-before", "done", "tx-after", "rx-before", "pkt", "rx-after",
        ]

    def test_equal_instants_keep_done_first(self):
        sim = Simulator()
        fired = []
        sim.schedule_tx(0, partial(fired.append, "done"), 0, fired.append, "pkt")
        sim.run()
        assert fired == ["done", "pkt"]

    def test_heap_hwm_counts_both_pushes(self):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        sim.schedule_tx(1, lambda: None, 3, lambda pkt: None, None)
        assert sim.heap_hwm == 3 and sim.pending == 3

    def test_sanitized_push_sees_both_entries(self):
        sim = Simulator(sanitize=True)
        try:
            sim.schedule_tx(1, lambda: None, 3, lambda pkt: None, None)
            assert sim._san._live == {1, 2}
            sim.run()
            assert not sim._san._live and not sim._san.violations
            # a delivery behind the clock is caught on the second push
            with pytest.raises(SanitizeError, match="push-into-past"):
                sim.schedule_tx(0, lambda: None, -1, lambda pkt: None, None)
        finally:
            detach()
            packet.reset_freelist()


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_property_events_fire_in_nondecreasing_time(delays):
    """Whatever the scheduling order, execution times never go backwards."""
    sim = Simulator()
    times = []
    for d in delays:
        sim.schedule(d, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1_000), st.booleans()),
        min_size=1,
        max_size=100,
    )
)
def test_property_cancelled_subset_never_fires(plan):
    """Exactly the non-cancelled events fire, in time order."""
    sim = Simulator()
    fired = []
    expected = []
    for i, (delay, cancelled) in enumerate(plan):
        ev = sim.schedule(delay, lambda i=i: fired.append(i))
        if cancelled:
            sim.cancel(ev)
        else:
            expected.append((delay, i))
    sim.run()
    expected.sort()
    assert fired == [i for _, i in expected]


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_every_discipline_is_sanitizer_transparent(scheduler):
    """End to end, per scheduling discipline: the checked heap primitives
    see every push and pop of the run and change nothing."""
    base = dict(
        scheme="tcn", scheduler=scheduler, workload="cache",
        load=0.4, n_flows=8, seed=3,
    )
    try:
        plain = run_experiment(ExperimentConfig(**base))
        packet.reset_freelist()
        checked = run_experiment(ExperimentConfig(sanitize=True, **base))
    finally:
        detach()
        packet.reset_freelist()

    def facts(result):
        fcts = [(f.id, f.fct_ns) for f in result.flows]
        return (fcts, result.completed, result.timeouts, result.drops,
                result.marks, result.sim_ns, result.events)

    assert plain.completed == plain.total
    assert facts(checked) == facts(plain)
