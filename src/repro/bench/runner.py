"""Bench execution and regression comparison.

``run_scenario`` runs one pinned scenario ``repeat`` times and keeps the
fastest repetition (events/sec): best-of-N is the standard answer to
wall-clock noise on shared CI runners, and the deterministic fields are
identical across repetitions anyway (the runner asserts so).

``compare_results`` implements the regression gate: new vs baseline by
scenario name, fail when events/sec dropped by more than ``threshold``
(default 30% — generous, because CI machines are noisy; the point is to
catch accidental algorithmic regressions, not 2% jitter).
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Union

from repro.bench.scenarios import SCENARIOS
from repro.net.packet import freelist_stats, reset_freelist
from repro.obs.spans import SpanRecorder

SCHEMA_VERSION = 1

#: default regression threshold: fail below 70% of baseline throughput
DEFAULT_THRESHOLD = 0.30

Number = Union[int, float]


@dataclass
class BenchResult:
    """One scenario's measurements, as serialized to BENCH_<name>.json."""

    scenario: str
    events: int
    wall_s: float
    events_per_sec: float
    heap_hwm: int
    rss_hwm_bytes: int
    #: packet-freelist counters for the run: fresh allocations vs reuses
    allocations: Dict[str, int] = field(default_factory=dict)
    #: deterministic facts (completed/sim_ns/...) — build fingerprint
    fingerprint: Dict[str, Number] = field(default_factory=dict)
    repeat: int = 1
    schema: int = SCHEMA_VERSION
    python: str = ""
    machine: str = ""
    #: simulation mode the scenario ran in (packet / fluid / hybrid);
    #: baselines of different modes are not throughput-comparable
    mode: str = "packet"
    #: FluidNetwork.stats_dict() counters (promoted flows, epochs,
    #: solver iterations, threshold crossings); empty for packet runs
    #: and in old baselines
    fluid_stats: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "scenario": self.scenario,
            "events": self.events,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "heap_hwm": self.heap_hwm,
            "rss_hwm_bytes": self.rss_hwm_bytes,
            "allocations": self.allocations,
            "fingerprint": self.fingerprint,
            "repeat": self.repeat,
            "python": self.python,
            "machine": self.machine,
            "mode": self.mode,
            "fluid_stats": self.fluid_stats,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchResult":
        # Reads known keys only, so files carrying fields this class no
        # longer has (the partitioned engine's workers/rounds/...) load.
        return cls(
            scenario=str(data["scenario"]),
            events=int(data["events"]),  # type: ignore[arg-type]
            wall_s=float(data["wall_s"]),  # type: ignore[arg-type]
            events_per_sec=float(data["events_per_sec"]),  # type: ignore[arg-type]
            heap_hwm=int(data.get("heap_hwm", 0)),  # type: ignore[arg-type]
            rss_hwm_bytes=int(data.get("rss_hwm_bytes", 0)),  # type: ignore[arg-type]
            allocations=dict(data.get("allocations", {})),  # type: ignore[arg-type]
            fingerprint=dict(data.get("fingerprint", {})),  # type: ignore[arg-type]
            repeat=int(data.get("repeat", 1)),  # type: ignore[arg-type]
            schema=int(data.get("schema", SCHEMA_VERSION)),  # type: ignore[arg-type]
            python=str(data.get("python", "")),
            machine=str(data.get("machine", "")),
            # default-tolerant: pre-fluid baselines are packet runs
            mode=str(data.get("mode", "packet")),
            fluid_stats=dict(data.get("fluid_stats", {})),  # type: ignore[arg-type]
        )

    def describe(self) -> str:
        alloc = self.allocations
        reuse = ""
        if alloc.get("packets_allocated") or alloc.get("packets_reused"):
            total = alloc["packets_allocated"] + alloc["packets_reused"]
            pct = 100.0 * alloc["packets_reused"] / total if total else 0.0
            reuse = f", {pct:.0f}% pkt reuse"
        fluid = ""
        if self.mode != "packet":
            fluid = f", {self.mode} mode"
            if self.fluid_stats:
                fluid += (
                    f" ({self.fluid_stats.get('flows', 0)} fluid flows, "
                    f"{self.fluid_stats.get('epochs', 0)} epochs)"
                )
        return (
            f"{self.scenario}: {self.events_per_sec / 1e3:.0f}k ev/s "
            f"({self.events} events, {self.wall_s:.2f}s wall, "
            f"heap hwm {self.heap_hwm}{reuse}{fluid})"
        )


def run_scenario(
    name: str,
    repeat: int = 1,
    spans: Optional["SpanRecorder"] = None,
    sanitize: bool = False,
    mode: Optional[str] = None,
) -> BenchResult:
    """Run one pinned scenario ``repeat`` times; keep the fastest.

    ``spans`` turns the flight recorder on for every repetition: the
    kept (fastest) repetition's spans land in the recorder.  Recording
    costs a little wall time per chunk boundary, so spans-on
    numbers are not comparable with spans-off baselines — keep the flag
    off for regression gating.

    ``mode`` overrides the scenario's pinned simulation mode (None runs
    the pin).  Modes do different work by design, so mode-crossed
    comparisons are apples-to-oranges — the recorded ``BenchResult.mode``
    lets the reader catch that.
    """
    scenario = SCENARIOS[name]
    effective_mode = mode if mode is not None else scenario.mode
    spans_on = spans is not None and spans.enabled
    best_profile: Optional[Dict[str, object]] = None
    best_spans: Optional["SpanRecorder"] = None
    fingerprint: Optional[Mapping[str, Number]] = None
    allocations: Dict[str, int] = {}
    for _ in range(max(1, repeat)):
        reset_freelist()
        rep_spans: Optional["SpanRecorder"] = None
        if spans_on and spans is not None:
            rep_spans = SpanRecorder(capacity=spans.capacity, pid=spans.pid)
        profile, run_fingerprint = scenario.run(
            spans=rep_spans, sanitize=sanitize, mode=mode,
        )
        allocated, reused, _free = freelist_stats()
        if fingerprint is not None and dict(run_fingerprint) != dict(
            fingerprint
        ):
            raise AssertionError(
                f"{name}: non-deterministic across repetitions: "
                f"{dict(fingerprint)} != {dict(run_fingerprint)}"
            )
        fingerprint = run_fingerprint
        if (
            best_profile is None
            or profile["events_per_sec"] > best_profile["events_per_sec"]
        ):
            best_profile = profile
            best_spans = rep_spans
            allocations = {
                "packets_allocated": allocated,
                "packets_reused": reused,
            }
    assert best_profile is not None and fingerprint is not None
    if spans is not None and best_spans is not None:
        spans.clear()
        spans.adopt(best_spans.spans, best_spans.dropped_spans)
    return BenchResult(
        scenario=name,
        events=int(best_profile["events"]),  # type: ignore[call-overload]
        wall_s=float(best_profile["wall_s"]),  # type: ignore[arg-type]
        events_per_sec=float(best_profile["events_per_sec"]),  # type: ignore[arg-type]
        heap_hwm=int(best_profile["heap_hwm"]),  # type: ignore[call-overload]
        rss_hwm_bytes=int(best_profile["rss_hwm_bytes"]),  # type: ignore[call-overload]
        allocations=allocations,
        fingerprint=dict(fingerprint),
        repeat=max(1, repeat),
        python=platform.python_version(),
        machine=platform.machine(),
        mode=effective_mode,
        fluid_stats=dict(best_profile.get("fluid_stats", {})),  # type: ignore[arg-type,call-overload]
    )


def write_result(result: BenchResult, out_dir: str) -> str:
    """Write ``BENCH_<scenario>.json`` under ``out_dir``; return the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{result.scenario}.json")
    with open(path, "w") as fh:
        json.dump(result.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_results(path: str) -> Dict[str, BenchResult]:
    """Load baseline results from a BENCH_*.json file or a directory."""
    paths: List[str]
    if os.path.isdir(path):
        paths = sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.startswith("BENCH_") and name.endswith(".json")
        )
        if not paths:
            raise FileNotFoundError(f"no BENCH_*.json files under {path}")
    else:
        paths = [path]
    results = {}
    for file_path in paths:
        with open(file_path) as fh:
            result = BenchResult.from_dict(json.load(fh))
        results[result.scenario] = result
    return results


@dataclass
class Comparison:
    """Outcome of one new-vs-baseline scenario pair."""

    scenario: str
    baseline_eps: float
    new_eps: float
    ratio: float  # new / baseline
    regressed: bool
    fingerprint_changed: bool

    def describe(self) -> str:
        verdict = "REGRESSED" if self.regressed else "ok"
        note = " [fingerprint changed]" if self.fingerprint_changed else ""
        return (
            f"{self.scenario}: {self.baseline_eps / 1e3:.0f}k -> "
            f"{self.new_eps / 1e3:.0f}k ev/s ({self.ratio:.2f}x) "
            f"{verdict}{note}"
        )


def compare_results(
    new: Iterable[BenchResult],
    baseline: Mapping[str, BenchResult],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Comparison]:
    """Compare new results to a baseline; scenarios absent there are skipped.

    A fingerprint mismatch is reported but is not by itself a failure:
    it usually means the two builds intentionally do different work (a
    behaviour change shipped with the perf change), which makes the
    throughput comparison apples-to-oranges — the human reads the note.
    """
    comparisons = []
    for result in new:
        base = baseline.get(result.scenario)
        if base is None:
            continue
        ratio = (
            result.events_per_sec / base.events_per_sec
            if base.events_per_sec
            else float("inf")
        )
        comparisons.append(
            Comparison(
                scenario=result.scenario,
                baseline_eps=base.events_per_sec,
                new_eps=result.events_per_sec,
                ratio=ratio,
                regressed=ratio < 1.0 - threshold,
                fingerprint_changed=bool(base.fingerprint)
                and base.fingerprint != result.fingerprint,
            )
        )
    return comparisons
