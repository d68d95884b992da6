"""The event heap dispatches in exact ``(time, seq)`` order.

The one run loop can be bound to two push/pop primitive pairs: plain
``heapq`` ("heap") and the runtime sanitizer's checked twins
("checked").  Three layers of evidence, from the structure up to the
paper's pinned experiments, hold for both:

1. engine fuzz — randomized schedule/transmit-pair/cancel/step/peek
   sequences against a sorted-list reference model, over clustered,
   bimodal and far-future delay mixes (a step is ``run(max_events=1)``);
2. Simulator-level re-entrant fuzz — callbacks that schedule and cancel
   more work (including zero-delay and far-future events) must execute
   the identical event sequence as the reference model with lazy
   cancellation, the minimal correct event queue;
3. end-to-end — both pinned golden configs land on the trace and FCT
   digests committed in test_trace_determinism.py.

Between layers 2 and 3, a cancel-heavy re-entrant workload drives the
heap across its compaction threshold repeatedly and must still dispatch
exactly like the never-compacting reference.
"""

import hashlib
import io
import json
import random
from functools import partial

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.net import packet
from repro.obs import Tracer
from repro.sanitize import detach
from repro.sim.engine import Simulator

#: primitive pair name -> the ``sanitize`` flag that binds it
BACKENDS = {"heap": False, "checked": True}
ALL = list(BACKENDS)


@pytest.fixture(autouse=True)
def _clean_freelist():
    """A checked engine installs the process-global freelist hook."""
    yield
    detach()
    packet.reset_freelist()


def _make_sim(backend):
    return Simulator(sanitize=BACKENDS[backend])


# -- layer 1: the engine against a reference model ---------------------------


class _RefModel:
    """Sorted list + lazy-cancel set: the minimal correct queue."""

    def __init__(self):
        self.entries = []
        self.cancelled = set()

    def push(self, entry):
        self.entries.append(entry)
        self.entries.sort()

    def cancel(self, entry):
        self.cancelled.add(entry[1])

    def live(self):
        return [e for e in self.entries if e[1] not in self.cancelled]

    def pop_live(self):
        while self.entries:
            entry = self.entries.pop(0)
            if entry[1] in self.cancelled:
                self.cancelled.discard(entry[1])
                continue
            return entry
        return None


def _delay_mixes():
    return {
        "clustered": lambda rng: rng.randrange(0, 2_000),
        "bimodal": lambda rng: (
            rng.randrange(0, 500)
            if rng.random() < 0.8
            else rng.randrange(100_000, 50_000_000)
        ),
        "far": lambda rng: rng.randrange(1_000_000, 10_000_000_000),
    }


@pytest.mark.parametrize("backend", ALL)
@pytest.mark.parametrize("mix", sorted(_delay_mixes()))
@pytest.mark.parametrize("seed", [1, 7])
def test_fuzz_backend_matches_reference_model(backend, mix, seed):
    rng = random.Random(seed)
    delay = _delay_mixes()[mix]
    sim = _make_sim(backend)
    ref = _RefModel()
    fired = []
    handles = {}  # reference entry -> engine handle, while still live
    tag = 0

    def step_both():
        expect = ref.pop_live()
        assert sim.run(max_events=1) == (expect is not None)
        if expect is not None:
            assert (sim.now, fired[-1]) == expect
            handles.pop(expect, None)
        return expect

    for _ in range(4000):
        op = rng.random()
        if op < 0.45 or not ref.entries:
            tag += 1
            entry = (sim.now + delay(rng), tag)
            handles[entry] = sim.schedule(
                entry[0] - sim.now, partial(fired.append, tag)
            )
            ref.push(entry)
        elif op < 0.55:
            # a port's transmit pair: two uncancellable entries, the
            # delivery carrying its argument in the heap entry
            tx_ns = delay(rng)
            rx_ns = tx_ns + delay(rng)
            sim.schedule_tx(
                tx_ns, partial(fired.append, tag + 1), rx_ns, fired.append,
                tag + 2,
            )
            ref.push((sim.now + tx_ns, tag + 1))
            ref.push((sim.now + rx_ns, tag + 2))
            tag += 2
        elif op < 0.70 and handles:
            victim = rng.choice(sorted(handles))
            sim.cancel(handles.pop(victim))
            ref.cancel(victim)
        else:
            step_both()
        live = ref.live()
        assert sim.pending == len(live)
        assert sim.peek_time() == (live[0][0] if live else None)
    # drain: the full remaining order must match
    while step_both() is not None:
        pass
    assert sim.idle and sim.pending == 0


@pytest.mark.parametrize("backend", ALL)
def test_peek_is_nondestructive_and_matches_pop(backend):
    sim = _make_sim(backend)
    rng = random.Random(3)
    handles = [
        sim.schedule(rng.randrange(0, 1_000_000), lambda: None)
        for _ in range(200)
    ]
    for handle in handles[::5]:
        sim.cancel(handle)
    while True:
        head = sim.peek_time()
        pending = sim.pending
        assert sim.peek_time() == head
        assert sim.pending == pending
        assert sim.run(max_events=1) == (head is not None)
        if head is None:
            break
        assert sim.now == head
        assert sim.pending == pending - 1
    assert sim.events_executed == 160


# -- layer 2: Simulator-level re-entrant equivalence -------------------------


class _RefSim:
    """Sorted list + lazy-cancel set: the minimal correct event loop."""

    def __init__(self):
        self.now = 0
        self.events_executed = 0
        self._entries = []
        self._cancelled = set()
        self._seq = 0

    def schedule(self, delay, fn):
        self._seq += 1
        entry = (self.now + delay, self._seq, fn)
        self._entries.append(entry)
        self._entries.sort(key=lambda e: e[:2])
        return entry

    def schedule_tx(self, tx_ns, done_fn, rx_ns, rx_fn, pkt):
        self.schedule(tx_ns, done_fn)
        self.schedule(rx_ns, partial(rx_fn, pkt))

    def cancel(self, handle):
        self._cancelled.add(handle[1])

    def run(self, max_events=None, until=None):
        """The engine's ``run`` contract: ``until`` is inclusive, and the
        clock moves to it only when no live event remains at or before
        it."""
        budget = float("inf") if max_events is None else max_events
        executed = 0
        while self._entries and executed < budget:
            entry = self._entries[0]
            if entry[1] in self._cancelled:
                self._entries.pop(0)
                self._cancelled.discard(entry[1])
                continue
            if until is not None and entry[0] > until:
                break
            self._entries.pop(0)
            self.now = entry[0]
            entry[2]()
            executed += 1
        if until is not None and self.now < until:
            live = [e for e in self._entries if e[1] not in self._cancelled]
            if not live or live[0][0] > until:
                self.now = until
        self.events_executed += executed
        return executed


def _run_reentrant(sim, seed):
    """A self-scheduling workload: every callback logs and spawns more."""
    rng = random.Random(seed)
    log = []
    pending = []

    def fire(tag):
        log.append((sim.now, tag))
        for _ in range(rng.randrange(0, 3)):
            tag2 = len(log) * 1000 + rng.randrange(100)
            delay = rng.choice((0, rng.randrange(1, 300), rng.randrange(1, 10_000_000)))
            pending.append(sim.schedule(delay, partial(fire, tag2)))
        if rng.random() < 0.1:
            # a transmit pair, which may tie with the entries above
            tx_ns = rng.choice((0, rng.randrange(1, 300)))
            sim.schedule_tx(
                tx_ns, partial(log.append, (tag, "done")),
                tx_ns + rng.choice((0, 200)), fire, -tag,
            )
        if pending and rng.random() < 0.3:
            sim.cancel(pending.pop(rng.randrange(len(pending))))

    for tag in range(40):
        pending.append(sim.schedule(rng.randrange(0, 5_000), partial(fire, tag)))
    executed = sim.run(max_events=6000)
    return log, sim.now, sim.events_executed, executed


@pytest.mark.parametrize("seed", [11, 23])
def test_reentrant_schedules_execute_identically_on_all_backends(seed):
    reference = _run_reentrant(_RefSim(), seed)
    assert len(reference[0]) > 1000, "workload generated too few events"
    for backend in ALL:
        run = _run_reentrant(_make_sim(backend), seed)
        assert run == reference, f"{backend} diverged from the reference"


# -- layer 2b: compaction under re-entrant cancellation ----------------------


def _run_churn(sim, seed):
    """Far-future timers cancelled faster than they fire, from callbacks
    and between bounded ``run`` calls, so tombstones keep piling up past
    the compaction threshold.  ``timers`` keeps handles that already
    fired, so stale cancels are exercised too."""
    rng = random.Random(seed)
    log = []
    timers = []

    def arm(tag):
        timers.append(sim.schedule(rng.randrange(0, 40_000), partial(fire, tag)))

    def cancel_some(n):
        for _ in range(n):
            if timers:
                sim.cancel(timers.pop(rng.randrange(len(timers))))

    def fire(tag):
        log.append((sim.now, tag))
        for k in range(rng.randrange(0, 4)):
            arm(tag * 4 + k)
        cancel_some(rng.randrange(0, 4))

    for tag in range(400):
        arm(tag)
    returns = []
    for i in range(60):
        if i % 2:
            returns.append(sim.run(max_events=rng.randrange(0, 120)))
        else:
            returns.append(sim.run(until=sim.now + rng.randrange(0, 3_000)))
        cancel_some(rng.randrange(0, 80))
        for k in range(rng.randrange(0, 60)):
            arm(10**6 + i * 100 + k)
    returns.append(sim.run(max_events=20_000))
    return log, returns, sim.now, sim.events_executed


@pytest.mark.parametrize("seed", [3, 19])
def test_compaction_dispatches_exactly_like_lazy_deletion(seed, monkeypatch):
    import repro.sanitize
    import repro.sim.engine

    compactions = []
    real = repro.sim.engine.compact_heap

    def counting(heap, cancelled):
        compactions.append(len(heap))
        real(heap, cancelled)

    monkeypatch.setattr(repro.sim.engine, "compact_heap", counting)
    monkeypatch.setattr(repro.sanitize, "compact_heap", counting)
    reference = _run_churn(_RefSim(), seed)
    assert len(reference[0]) > 2000, "workload generated too few events"
    for backend in ALL:
        compactions.clear()
        sim = _make_sim(backend)
        assert _run_churn(sim, seed) == reference, f"{backend} diverged"
        assert len(compactions) >= 3, "the workload never crossed the threshold"
        assert sim.idle


def test_timer_churn_heap_stays_within_twice_live():
    """The ledger's timer_churn shape: cancel the oldest of 256 timers and
    arm a replacement every 10 ns, each one 5-6 us out.  Lazy deletion
    alone let tombstones reach 3x the live set; compaction holds the
    heap to at most twice the live set plus the 100-entry floor."""
    sim = Simulator()
    rng = random.Random(1)
    timers = [sim.schedule(5_000 + i, _never) for i in range(256)]
    left = [20_000]

    def drive():
        left[0] -= 1
        if left[0] == 0:
            for handle in timers:
                sim.cancel(handle)
            return
        sim.cancel(timers.pop(0))
        timers.append(sim.schedule(5_000 + rng.randrange(1_000), _never))
        sim.schedule(10, drive)

    sim.schedule(0, drive)
    assert sim.run() == 20_000
    live = 256 + 1  # the timers and the next drive() step
    assert sim.heap_hwm <= 2 * live + 100
    assert sim.idle


def _never():
    raise AssertionError("every timer is cancelled before it fires")


# -- layer 3: end-to-end golden digests --------------------------------------

# the single source of truth for the pinned configs and their digests
from tests.test_trace_determinism import _GOLDEN  # noqa: E402


def _digests(config, backend):
    tracer = Tracer()
    result = run_experiment(
        ExperimentConfig(sanitize=BACKENDS[backend], **config), tracer=tracer
    )
    detach()
    packet.reset_freelist()
    buf = io.StringIO()
    tracer.export_jsonl(buf)
    trace_sha = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    fcts = [f.fct_ns for f in result.flows]
    fct_sha = hashlib.sha256(json.dumps(fcts).encode()).hexdigest()
    return trace_sha, fct_sha


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_golden_digests_identical_across_backends(name):
    golden = _GOLDEN[name]
    for backend in ALL:
        trace_sha, fct_sha = _digests(golden["config"], backend)
        # both primitive pairs must land on the committed pins — not just
        # agree with each other
        assert trace_sha == golden["trace_sha256"], (
            f"{backend} trace digest diverges from the pin on {name}"
        )
        assert fct_sha == golden["fct_sha256"], (
            f"{backend} FCT digest diverges from the pin on {name}"
        )
