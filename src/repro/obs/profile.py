"""Run profiling: how hard did the engine work, and how fast.

The simulator keeps two always-on counters (``events_executed`` and
``heap_hwm`` — both a single compare-and-store per event, measured in the
noise on the benchmarks); :class:`RunProfile` packages them with wall
time into the record every perf PR cites as its before/after evidence.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


@dataclass
class RunProfile:
    """Profiling counters for one simulation run.

    ``events`` and ``heap_hwm`` are deterministic properties of the run;
    ``wall_s`` / ``events_per_sec`` / ``rss_hwm_bytes`` describe the host
    executing it and vary between machines (the sweep cache therefore
    persists only the deterministic fields).  ``equeue`` names the
    future-event-list backend that ran the simulation and
    ``equeue_stats`` carries its structure counters (bucket refills,
    resizes, overflow migrations, ...), so perf trajectories can
    attribute an events/sec move to the right data structure.
    """

    events: int = 0
    heap_hwm: int = 0
    wall_s: float = 0.0
    events_per_sec: float = 0.0
    #: process high-water RSS (bytes), 0 where the platform can't say
    rss_hwm_bytes: int = 0
    #: event-queue backend name (repro.sim.equeue registry key)
    equeue: str = "heap"
    #: backend structure counters (EventQueue.stats(); empty for the heap)
    equeue_stats: Dict[str, int] = field(default_factory=dict)
    # -- batched hot path (all zero when batching is off) ----------------
    #: same-timestamp runs dispatched by the batched run loops
    runs_drained: int = 0
    #: run-length histogram, bucketed by bit_length(run_len)
    run_hist: List[int] = field(default_factory=lambda: [0] * 18)
    #: back-to-back transmit trains executed by ports
    trains: int = 0
    #: frames those trains carried
    train_pkts: int = 0
    #: train-length histogram, bucketed by bit_length(train_len)
    train_hist: List[int] = field(default_factory=lambda: [0] * 18)
    #: trains cut short by an unsafe inline step (competing event)
    train_fallbacks: int = 0
    # -- fluid/hybrid mode (empty for pure packet runs) ------------------
    #: FluidNetwork.stats_dict(): promoted flows, epochs, solver
    #: iterations, threshold crossings — deterministic properties of the
    #: run, reported so fluid epoch cost stays observable in benches
    fluid_stats: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        sim: Simulator,
        wall_s: float,
        rss_floor: int = 0,
        fluid_stats: "Dict[str, int] | None" = None,
    ) -> "RunProfile":
        """Snapshot the run's counters.

        ``rss_floor`` is a lower bound on the RSS high-water mark, fed
        by an :class:`RssSampler` that observed the process *during* the
        run — within one process ``ru_maxrss`` already dominates it, but
        the floor keeps the accounting honest on platforms where
        ``getrusage`` is unavailable (the sampler's ``/proc`` reads then
        carry the number alone).
        """
        events = sim.events_executed
        return cls(
            events=events,
            heap_hwm=sim.heap_hwm,
            wall_s=wall_s,
            events_per_sec=events / wall_s if wall_s > 0 else 0.0,
            rss_hwm_bytes=max(_rss_high_water(), rss_floor),
            equeue=sim.equeue_name,
            equeue_stats=sim.equeue_stats(),
            runs_drained=sim.runs_drained,
            run_hist=list(sim.run_hist),
            trains=sim.trains,
            train_pkts=sim.train_pkts,
            train_hist=list(sim.train_hist),
            train_fallbacks=sim.train_fallbacks,
            fluid_stats=dict(fluid_stats) if fluid_stats else {},
        )

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "RunProfile":
        """Rebuild from :meth:`as_dict` output, ignoring unknown keys.

        Profile dicts travel through caches and results produced by
        newer or richer engines (the partitioned runner adds keys like
        ``workers`` and ``per_partition``); consumers that only want the
        common counters use this instead of ``RunProfile(**d)`` so extra
        keys degrade gracefully.
        """
        known = {
            f: d[f]
            for f in (
                "events",
                "heap_hwm",
                "wall_s",
                "events_per_sec",
                "rss_hwm_bytes",
                "equeue",
                "equeue_stats",
                "runs_drained",
                "run_hist",
                "trains",
                "train_pkts",
                "train_hist",
                "train_fallbacks",
                "fluid_stats",
            )
            if f in d
        }
        return cls(**known)  # type: ignore[arg-type]

    def as_dict(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "heap_hwm": self.heap_hwm,
            "wall_s": self.wall_s,
            "events_per_sec": self.events_per_sec,
            "rss_hwm_bytes": self.rss_hwm_bytes,
            "equeue": self.equeue,
            "equeue_stats": dict(self.equeue_stats),
            "runs_drained": self.runs_drained,
            "run_hist": list(self.run_hist),
            "trains": self.trains,
            "train_pkts": self.train_pkts,
            "train_hist": list(self.train_hist),
            "train_fallbacks": self.train_fallbacks,
            "fluid_stats": dict(self.fluid_stats),
        }

    def describe(self) -> str:
        """One human line for CLIs and sweep progress output."""
        parts = [
            f"{self.events} events",
            f"{self.events_per_sec / 1e3:.0f}k ev/s",
            f"heap high-water {self.heap_hwm}",
        ]
        if self.equeue != "heap":
            parts.append(f"equeue {self.equeue}")
        if self.rss_hwm_bytes:
            parts.append(f"rss high-water {self.rss_hwm_bytes / 2**20:.0f} MB")
        if self.fluid_stats:
            parts.append(
                f"fluid {self.fluid_stats.get('completed', 0)}"
                f"/{self.fluid_stats.get('flows', 0)} flows "
                f"in {self.fluid_stats.get('epochs', 0)} epochs"
            )
        return ", ".join(parts)


def _rss_high_water() -> int:
    """Peak RSS of this process in bytes (0 if unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS reports bytes
    return peak * 1024 if sys.platform != "darwin" else peak


def current_rss_bytes() -> int:
    """Resident set size of this process right now, in bytes (0 if unknown).

    Read from ``/proc/self/statm`` — one small pread, a few microseconds
    — so it is cheap enough to call at chunk/round boundaries.
    """
    try:
        with open("/proc/self/statm") as fh:
            resident_pages = int(fh.read().split()[1])
        return resident_pages * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return 0


#: environment knob for the sampling stride (every Nth boundary samples)
RSS_STRIDE_ENV = "REPRO_RSS_STRIDE"


class RssSampler:
    """Strided RSS high-water sampling at run-loop boundaries.

    ``ru_maxrss`` only reports a process's *own* peak, and only when
    asked — the parallel coordinator asking at completion misses every
    short-lived peak inside its worker processes.  Each worker (and the
    serial run loop) instead carries one of these and calls
    :meth:`sample` at chunk/round boundaries; the profile merge then
    takes the max over all observed high waters.

    The stride (default 1: every boundary — boundaries are rare, ~20/s
    of simulated time) is configurable via ``$REPRO_RSS_STRIDE`` or the
    constructor, for runs where even the boundary rate is too chatty.
    The sampler never sits on the event hot path.
    """

    __slots__ = ("stride", "hwm_bytes", "last_bytes", "samples", "_tick")

    def __init__(self, stride: int = 0) -> None:
        if stride <= 0:
            try:
                stride = int(os.environ.get(RSS_STRIDE_ENV, "1"))
            except ValueError:
                stride = 1
        self.stride = max(1, stride)
        self.hwm_bytes = 0
        self.last_bytes = 0
        self.samples = 0
        self._tick = 0

    def sample(self) -> None:
        """Take a sample if this boundary falls on the stride."""
        self._tick += 1
        if self._tick % self.stride:
            return
        rss = current_rss_bytes()
        if rss:
            self.samples += 1
            self.last_bytes = rss
            if rss > self.hwm_bytes:
                self.hwm_bytes = rss
