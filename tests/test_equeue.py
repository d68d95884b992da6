"""The event heap dispatches in exact ``(time, seq)`` order.

The one run loop can be bound to two push/pop primitive pairs: plain
``heapq`` ("heap") and the runtime sanitizer's checked twins
("checked").  Three layers of evidence, from the structure up to the
paper's pinned experiments, hold for both:

1. engine fuzz — randomized schedule/cancel/step/peek sequences against a
   sorted-list reference model, over clustered, bimodal and far-future
   delay mixes;
2. Simulator-level re-entrant fuzz — callbacks that schedule and cancel
   more work (including zero-delay and far-future events) must execute
   the identical event sequence as the reference model with lazy
   cancellation, the minimal correct event queue;
3. end-to-end — both pinned golden configs land on the trace and FCT
   digests committed in test_trace_determinism.py.
"""

import hashlib
import io
import json
import random

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
        assert sim.step() == (expect is not None)
        if expect is not None:
            assert (sim.now, fired[-1]) == expect
            del handles[expect]
        return expect

    for _ in range(4000):
        op = rng.random()
        if op < 0.55 or not ref.entries:
            tag += 1
            entry = (sim.now + delay(rng), tag)
            handles[entry] = sim.schedule_call(
                entry[0] - sim.now, fired.append, tag
            )
            ref.push(entry)
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
        assert sim.step() == (head is not None)
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

    def schedule_call(self, delay, fn, arg):
        self._seq += 1
        entry = (self.now + delay, self._seq, fn, arg)
        self._entries.append(entry)
        self._entries.sort(key=lambda e: e[:2])
        return entry

    def cancel(self, handle):
        self._cancelled.add(handle[1])

    def run(self, max_events):
        executed = 0
        while self._entries and executed < max_events:
            entry = self._entries.pop(0)
            if entry[1] in self._cancelled:
                self._cancelled.discard(entry[1])
                continue
            self.now = entry[0]
            entry[2](entry[3])
            executed += 1
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
            pending.append(sim.schedule_call(delay, fire, tag2))
        if pending and rng.random() < 0.3:
            sim.cancel(pending.pop(rng.randrange(len(pending))))

    for tag in range(40):
        pending.append(sim.schedule_call(rng.randrange(0, 5_000), fire, tag))
    executed = sim.run(max_events=6000)
    return log, sim.now, sim.events_executed, executed


@pytest.mark.parametrize("seed", [11, 23])
def test_reentrant_schedules_execute_identically_on_all_backends(seed):
    reference = _run_reentrant(_RefSim(), seed)
    assert len(reference[0]) > 1000, "workload generated too few events"
    for backend in ALL:
        run = _run_reentrant(_make_sim(backend), seed)
        assert run == reference, f"{backend} diverged from the reference"


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
