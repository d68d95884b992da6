"""Microbenchmark subsystem: pinned-seed scenarios for the hot path.

Every perf-sensitive change to the simulation core is judged by the same
four scenarios, run through ``python -m repro bench``:

``engine_churn``
    Pure event-loop work — schedule / cancel / lazy-discard churn with a
    rotating timer set, no network objects at all.  Isolates the heap.
``port_saturation``
    One FIFO NIC driven at 0.9 load: the single-queue bypass path and the
    serializer, with almost no scheduler work.
``incast``
    300 cache flows into one star port at 0.95 load through DWRR: queue
    pressure, ECN marking, and the RTO machinery all active at once.
``leafspine_slice``
    A 2x2 leaf-spine fabric with the mixed workload through SP+DWRR: the
    full pipeline (ECMP, hybrid scheduler, PIAS tags) — the scenario the
    paper-scale sweeps are made of.

Each run writes ``BENCH_<scenario>.json`` with throughput (events/sec),
wall time, the engine's heap high-water mark, peak RSS, and packet
freelist counters.  ``--compare`` re-reads a previous set of files and
fails when throughput regressed beyond a threshold — this is what the CI
bench-smoke job runs against the committed baselines.

Seeds and sizes are pinned: two runs of the same scenario on the same
code execute the identical event sequence, so the deterministic fields
(``events`` aside from wall-clock noise, ``sim_ns``, ``completed``)
double as a quick correctness fingerprint.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.bench.runner import (
        BenchResult,
        compare_results,
        load_results,
        run_scenario,
        write_result,
    )
    from repro.bench.scenarios import SCENARIOS, Scenario

__all__ = [
    "SCENARIOS",
    "Scenario",
    "BenchResult",
    "run_scenario",
    "write_result",
    "load_results",
    "compare_results",
]

_EXPORTS = {
    "BenchResult": "repro.bench.runner",
    "compare_results": "repro.bench.runner",
    "load_results": "repro.bench.runner",
    "run_scenario": "repro.bench.runner",
    "write_result": "repro.bench.runner",
    "SCENARIOS": "repro.bench.scenarios",
    "Scenario": "repro.bench.scenarios",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
