"""The pinned scenarios: what each one stresses, and how it runs.

A scenario is a name, a one-line description, and a ``run()`` (taking
optional ``spans`` recorder, ``sanitize`` and ``mode`` keywords)
returning ``(profile, fingerprint)``:

* ``profile`` — the :class:`~repro.obs.profile.RunProfile` dict for the
  run (events, heap_hwm, wall_s, events_per_sec, rss_hwm_bytes);
* ``fingerprint`` — deterministic facts about *what* the run computed
  (completed flows, simulated ns, ...), used to confirm that two builds
  being compared actually did the same work.

Everything here is seed-pinned; do not change sizes or seeds without
regenerating the committed baselines in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple, Union

from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.obs.profile import RunProfile
from repro.obs.spans import SpanRecorder
from repro.sim.engine import Simulator

Fingerprint = Mapping[str, Union[int, float]]
Profile = Dict[str, object]
RunFn = Callable[..., Tuple[Profile, Fingerprint]]


class Scenario(NamedTuple):
    name: str
    description: str
    run: RunFn
    #: the simulation mode the scenario pins (the bench CLI's --mode
    #: overrides it run-wide; results are not comparable across modes)
    mode: str = "packet"


def _engine_churn(
    spans: Optional[SpanRecorder] = None,
    sanitize: bool = False,
    mode: Optional[str] = None,
) -> Tuple[Profile, Fingerprint]:
    """Pure engine stress: a rotating timer set under constant churn.

    Models the shape RTO timers impose on the heap: a driver event fires
    every 10 ns, cancels the oldest of 256 outstanding timers and arms a
    replacement 5 us out.  Every timer is cancelled well before its
    deadline (it reaches the front of the rotation after 2.56 us), so
    the heap carries a steady tombstone population that the pop loop
    drains lazily — this exercises schedule, cancel, the tombstone
    drain, and tie-ordered dispatch, with zero network objects.

    ``spans`` is accepted for interface uniformity and ignored: the
    scenario drives the ``Simulator`` directly, without the chunked
    harness loop the serial span instrumentation hangs off.
    """
    del spans
    if mode not in (None, "packet"):
        raise ValueError(
            "engine_churn has no flows to promote (mode must be packet)"
        )
    steps = 200_000
    k_timers = 256
    timer_horizon_ns = 5_000
    sim = Simulator(sanitize=sanitize or None)
    timers = deque()

    def noop() -> None:
        pass

    for i in range(k_timers):
        timers.append(sim.schedule(timer_horizon_ns + i, noop))

    remaining = [steps]

    def drive() -> None:
        left = remaining[0]
        if left == 0:
            for handle in timers:
                sim.cancel(handle)
            return
        remaining[0] = left - 1
        sim.cancel(timers.popleft())
        timers.append(sim.schedule(timer_horizon_ns, noop))
        sim.schedule(10, drive)

    sim.schedule(0, drive)
    # simlint: disable=SIM001 -- benchmark timing: perf_counter measures the run, it does not drive it
    start = time.perf_counter()
    sim.run()
    # simlint: disable=SIM001 -- closes the benchmark timing pair above
    wall = time.perf_counter() - start
    profile = RunProfile.capture(sim, wall).as_dict()
    fingerprint = {"steps": steps, "sim_ns": sim.now}
    return profile, fingerprint


def _experiment(**overrides) -> RunFn:
    def run(
        spans: Optional[SpanRecorder] = None,
        sanitize: bool = False,
        mode: Optional[str] = None,
    ) -> Tuple[Profile, Fingerprint]:
        params = dict(overrides)
        if mode is not None:
            params["mode"] = mode
        result = run_experiment(
            ExperimentConfig(sanitize=sanitize, **params),
            spans=spans,
        )
        fingerprint = {
            "completed": result.completed,
            "total": result.total,
            "timeouts": result.timeouts,
            "drops": result.drops,
            "marks": result.marks,
            "sim_ns": result.sim_ns,
        }
        # the fluid engine's epoch/solver counters are deterministic
        # run properties too — pin them so a solver change that alters
        # the work done surfaces as a fingerprint note, not silence
        fluid = result.profile.get("fluid_stats")
        if isinstance(fluid, dict) and fluid:
            fingerprint["fluid_epochs"] = int(fluid.get("epochs", 0))
            fingerprint["fluid_completed"] = int(fluid.get("completed", 0))
        return dict(result.profile), fingerprint

    return run


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "engine_churn",
            "event-loop schedule/cancel churn, no network objects",
            _engine_churn,
        ),
        Scenario(
            "port_saturation",
            "one FIFO NIC at 0.9 load (single-queue bypass path)",
            _experiment(
                scheme="tcn",
                scheduler="fifo",
                n_queues=1,
                workload="datamining",
                load=0.9,
                n_flows=30,
                seed=11,
            ),
        ),
        Scenario(
            "incast",
            "300 cache flows into one DWRR star port at 0.95 load",
            _experiment(
                scheme="tcn",
                scheduler="dwrr",
                workload="cache",
                load=0.95,
                n_flows=300,
                seed=13,
            ),
        ),
        Scenario(
            "leafspine_full",
            "12x12 leaf-spine, 144 hosts, mixed workload",
            _experiment(
                scheme="tcn",
                scheduler="sp_dwrr",
                topology="leafspine",
                n_leaf=12,
                n_spine=12,
                hosts_per_leaf=12,
                workload="mixed",
                load=0.6,
                n_flows=400,
                seed=7,
            ),
        ),
        Scenario(
            "leafspine_slice",
            "2x2 leaf-spine fabric, mixed workload through SP+DWRR",
            _experiment(
                scheme="tcn",
                scheduler="sp_dwrr",
                topology="leafspine",
                workload="mixed",
                load=0.6,
                n_flows=120,
                seed=3,
            ),
        ),
        Scenario(
            "leafspine_fluid",
            "4x4 leaf-spine, bulk workload, hybrid mode: ~70 long "
            "(25 MB) flows on the fluid solver, shorts packet-exact "
            "(the packet-mode A/B of this exact config is the speedup "
            "evidence in docs/FLUID.md)",
            _experiment(
                scheme="tcn",
                scheduler="sp_dwrr",
                topology="leafspine",
                n_leaf=4,
                n_spine=4,
                hosts_per_leaf=4,
                workload="bulk",
                load=0.7,
                n_flows=100,
                seed=5,
                mode="hybrid",
                fluid_size_bytes=1_000_000,
            ),
            mode="hybrid",
        ),
    )
}
