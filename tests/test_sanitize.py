"""The runtime sanitizer: freelist ownership and event order, checked as a run goes.

Three properties are pinned here:

* **transparency** — a sanitized run of a clean simulation raises
  nothing and produces bit-identical results (FCTs, counters, sim_ns)
  to the unsanitized run;
* **detection** — each invariant class (freelist double-release /
  direct-tampering, heap push-into-past / duplicate seq / pop order /
  time regression) has a seeded violation the sanitizer catches;
* **zero footprint when off** — an unsanitized engine runs on
  ``heapq``'s own push/pop and carries no freelist hook.

The freelist hook is process-global, so every test detaches it on the
way out (autouse fixture) to keep the rest of the suite unaffected.
"""

import heapq
import os
import subprocess
import sys

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.net import packet
from repro.net.packet import make_ack, make_data, make_data_run, release
from repro.sanitize import (
    POISON,
    SanitizeError,
    Sanitizer,
    Violation,
    detach,
    env_enabled,
)
from repro.sim.engine import Simulator


@pytest.fixture(autouse=True)
def _clean_freelist():
    """Isolate the process-global freelist hook and frame pool."""
    detach()
    packet.reset_freelist()
    yield
    detach()
    packet.reset_freelist()


def _collecting_sanitizer(sim=None):
    return Sanitizer(sim=sim, raise_on_violation=False)


class TestFreelistPoisoning:
    def test_double_release_raises(self):
        san = Sanitizer()
        san.attach_freelist()
        pkt = make_data(1, 2, 3, 0, 1000, True, 0, 50)
        release(pkt)
        with pytest.raises(SanitizeError, match="double-release"):
            release(pkt)

    def test_double_release_does_not_duplicate_the_frame(self):
        san = _collecting_sanitizer()
        san.attach_freelist()
        pkt = make_data(1, 2, 3, 0, 1000, True, 0, 50)
        release(pkt)
        release(pkt)
        assert [v.kind for v in san.violations] == ["double-release"]
        # the second release must not append again: one frame, one owner
        assert packet.freelist_stats()[2] == 1

    def test_released_frames_are_poisoned_and_reuse_is_clean(self):
        san = Sanitizer()
        san.attach_freelist()
        pkt = make_data(1, 2, 3, 0, 1000, True, 0, 50)
        release(pkt)
        assert pkt.ts == POISON and pkt.enq_ts == POISON
        again = make_data(4, 5, 6, 7, 500, False, 2, 60)
        assert again is pkt  # recycled
        assert again.ts == 60 and again.enq_ts == 0  # fully rewritten

    def test_make_ack_and_run_reuse_are_clean(self):
        san = Sanitizer()
        san.attach_freelist()
        frames = [make_data(1, 2, 3, s, 1000, True, 0, 5) for s in range(4)]
        for f in frames:
            release(f)
        data = make_data(1, 2, 3, 9, 1000, True, 0, 70)
        make_ack(data, 10, False, 71)
        run = make_data_run(1, 2, 3, 0, 4, 1000, True, 0, 72)
        assert [p.seq for p in run] == [0, 1, 2, 3]
        assert all(p.ts == 72 for p in run)
        assert san.violations == []

    def test_freelist_tampering_is_caught_on_reuse(self):
        san = _collecting_sanitizer()
        san.attach_freelist()
        pkt = make_data(1, 2, 3, 0, 1000, True, 0, 50)
        # bypass release(): push the live frame straight onto the pool
        packet._free.append(pkt)
        make_data(1, 2, 3, 1, 1000, True, 0, 51)
        assert [v.kind for v in san.violations] == ["freelist-corruption"]

    def test_attach_clears_retained_frames(self):
        pkt = make_data(1, 2, 3, 0, 1000, True, 0, 50)
        release(pkt)  # unsanitized: retained without poison
        assert packet.freelist_stats()[2] == 1
        Sanitizer().attach_freelist()
        assert packet.freelist_stats()[2] == 0

    def test_violation_carries_sim_time(self):
        sim = Simulator()
        sim.now = 777
        san = _collecting_sanitizer(sim=sim)
        san.record("demo", "msg")
        assert san.violations == [Violation("demo", "msg", 777)]


def _noop():
    pass


def _kinds(sim):
    return [v.kind for v in sim._san.violations]


class TestEventQueueChecks:
    """Seeded heap faults on the engine."""

    def _armed(self):
        """A sanitizing engine collecting violations."""
        sim = Simulator(sanitize=True)
        sim._san.raise_on_violation = False
        return sim

    def test_push_into_past(self):
        armed = self._armed()
        armed.schedule(10, _noop)
        armed.run()
        armed._push(armed._heap, (5, 10**12, _noop))
        assert _kinds(armed) == ["push-into-past"]

    def test_duplicate_seq_and_push_into_past(self):
        armed = self._armed()
        handle = armed.schedule(200, _noop)
        armed._push(armed._heap, (210, handle[1], _noop))
        armed.run(until=100)
        armed._push(armed._heap, (50, 10**12, _noop))
        assert _kinds(armed) == ["duplicate-seq", "push-into-past"]

    def test_pop_order_violation(self):
        armed = self._armed()
        for t in (10, 20, 30):
            armed.schedule(t, _noop)
        heap = armed._heap
        # corrupt the heap: the latest entry sits at the root
        i = heap.index(max(heap))
        heap[0], heap[i] = heap[i], heap[0]
        armed._san.raise_on_violation = True
        with pytest.raises(SanitizeError, match="pop-order"):
            armed.run()

    def test_time_regression(self):
        armed = self._armed()
        armed.run(until=50)
        # an entry behind the clock that bypassed the checked push
        armed._heap.append((20, 10**12, _noop))
        armed.run()
        assert _kinds(armed) == ["time-regression"]

    def test_push_back_and_dropped_tombstones_are_lawful(self):
        """run(until=...) pops past its bound before it stops: the entry
        it pushes back, or the tombstone it drops, must not make a later
        earlier push look like a pop-order violation."""
        armed = self._armed()
        armed.schedule(150, _noop)
        armed.cancel(armed.schedule(140, _noop))
        armed.run(until=100)
        armed.schedule(20, _noop)
        armed.run(until=130)
        armed.cancel(armed.schedule(60, _noop))
        armed.run(until=180)
        armed.schedule(10, _noop)
        armed.run()
        assert armed.events_executed == 3 and armed.now == 190
        assert armed._san.violations == []

    def test_cancel_is_lazy(self):
        armed = self._armed()
        handle = armed.schedule(10, _noop)
        armed.cancel(handle)
        # the tombstone stays heap-visible and flows through the checks
        assert handle in armed._heap
        assert armed.run() == 0
        assert armed._heap == [] and armed._san.violations == []

    def test_push_after_probe_lawfully_lowers_the_claim(self):
        """A probe that drops a head tombstone pops it through the checked
        pop, raising the order bar; a later push of an earlier (but not
        past) event lowers the bar again instead of tripping pop-order."""
        armed = self._armed()
        armed.schedule(30, _noop)
        armed.cancel(armed.schedule(20, _noop))
        assert armed.peek_time() == 30  # the tombstone at 20 is dropped
        armed.schedule(10, _noop)
        fired = []
        armed.schedule(10, lambda: fired.append(armed.now))
        assert armed.run() == 3
        assert fired == [10] and armed.now == 30
        assert armed._san.violations == []


class TestTransparency:
    CFG = dict(
        scheme="tcn", scheduler="dwrr", load=0.7, n_flows=40, seed=1,
    )

    def _facts(self, result):
        return (
            result.completed, result.total, result.timeouts,
            result.drops, result.marks, result.sim_ns,
        )

    def test_serial_run_is_bit_identical(self):
        plain = run_experiment(ExperimentConfig(**self.CFG))
        detach()
        packet.reset_freelist()
        sanitized = run_experiment(ExperimentConfig(sanitize=True, **self.CFG))
        assert self._facts(plain) == self._facts(sanitized)

    def test_leafspine_slice_is_bit_identical(self):
        cfg = dict(
            scheme="tcn", scheduler="sp_dwrr", topology="leafspine",
            workload="mixed", load=0.6, n_flows=60, seed=3,
        )
        plain = run_experiment(ExperimentConfig(**cfg))
        detach()
        packet.reset_freelist()
        sanitized = run_experiment(ExperimentConfig(sanitize=True, **cfg))
        assert self._facts(plain) == self._facts(sanitized)

    def test_off_means_no_wrapper_and_no_hook(self, monkeypatch):
        # force the default path even when the suite runs sanitized
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sim = Simulator()
        assert sim._san is None
        assert sim._push is heapq.heappush and sim._pop is heapq.heappop
        assert packet._san is None

    def test_on_binds_the_checked_primitives(self):
        sim = Simulator(sanitize=True)
        assert sim._push == sim._san.push and sim._pop == sim._san.pop
        assert packet._san is sim._san

    def test_config_fingerprint_ignores_sanitize(self):
        from repro.harness.sweep import config_fingerprint

        a = config_fingerprint(ExperimentConfig(**self.CFG))
        b = config_fingerprint(ExperimentConfig(sanitize=True, **self.CFG))
        assert a == b


class TestEnvSwitch:
    def test_env_enabled_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not env_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not env_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert env_enabled()

    def test_env_arms_default_constructed_simulator(self):
        # subprocess: the hook is process-global and engine construction
        # reads the env at call time — keep this hermetic
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.sim.engine import Simulator\n"
            "sim = Simulator()\n"
            "assert sim._san is not None\n"
            "print('armed')\n"
        )
        env = dict(os.environ, REPRO_SANITIZE="1", PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "armed"

    def test_explicit_false_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sim = Simulator(sanitize=False)
        assert sim._san is None
