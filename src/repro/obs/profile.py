"""Run profiling: how hard did the engine work, and how fast.

The simulator keeps two always-on counters (``events_executed`` and
``heap_hwm`` — both a single compare-and-store per event, measured in the
noise on the benchmarks); :class:`RunProfile` packages them with wall
time into the record every perf PR cites as its before/after evidence.
"""

from __future__ import annotations

import os
import sys
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


@dataclass
class RunProfile:
    """Profiling counters for one simulation run.

    ``events`` and ``heap_hwm`` are deterministic properties of the run;
    ``wall_s`` / ``events_per_sec`` / ``rss_hwm_bytes`` describe the host
    executing it and vary between machines (the sweep cache therefore
    persists only the deterministic fields).
    """

    events: int = 0
    heap_hwm: int = 0
    wall_s: float = 0.0
    events_per_sec: float = 0.0
    #: process high-water RSS (bytes), 0 where the platform can't say
    rss_hwm_bytes: int = 0
    # -- hybrid mode (empty for pure packet runs) -------------------------
    #: FluidNetwork.stats_dict(): promoted flows, epochs, solver
    #: iterations, threshold crossings — deterministic properties of the
    #: run, reported so fluid epoch cost stays observable in benches
    fluid_stats: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        sim: Simulator,
        wall_s: float,
        fluid_stats: "Dict[str, int] | None" = None,
    ) -> "RunProfile":
        """Snapshot the run's counters."""
        events = sim.events_executed
        return cls(
            events=events,
            heap_hwm=sim.heap_hwm,
            wall_s=wall_s,
            events_per_sec=events / wall_s if wall_s > 0 else 0.0,
            rss_hwm_bytes=_rss_high_water(),
            fluid_stats=dict(fluid_stats) if fluid_stats else {},
        )

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def describe(self) -> str:
        """One human line for CLIs and sweep progress output."""
        parts = [
            f"{self.events} events",
            f"{self.events_per_sec / 1e3:.0f}k ev/s",
            f"heap high-water {self.heap_hwm}",
        ]
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

    Read from ``/proc/self/statm`` — one small pread, a few microseconds.
    Chunk spans carry it; the profile's high-water mark is ``ru_maxrss``.
    """
    try:
        with open("/proc/self/statm") as fh:
            resident_pages = int(fh.read().split()[1])
        return resident_pages * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return 0
