"""Flight recorder: wall-clock span timelines across the harness layers.

A :class:`SpanRecorder` collects *spans* — named wall-clock intervals
with a category, a process/track label, and a dict of deterministic
annotations — into the same bounded :class:`~repro.obs.records.Ring` as
:class:`repro.obs.Tracer`: components hold a ``spans`` attribute (or take
a ``spans`` parameter) that is ``None`` by default, so the
un-instrumented path pays exactly one ``is not None`` test per hook
point and the simulation hot path is never touched at all.

These layers record spans:

=========  ========  =======================================================
``cat``    name      emitted by
=========  ========  =======================================================
engine     chunk     ``harness.runner.run_experiment`` — one span per
                     ``Simulator.run`` chunk (the GC-paused window), with
                     sim-time bounds, executed events, packet-freelist
                     pressure deltas and the process RSS
fluid      epoch     ``sim.fluid.FluidNetwork`` — one span per fluid
                     epoch (hybrid mode)
sweep      job       ``harness.sweep.run_sweep`` — one span per grid cell
                     (queued → dispatched → finished) with cache/crash
                     status, plus one ``sweep`` span for the whole pool
sanitize   <kind>    ``repro.sanitize.Sanitizer`` — one zero-length span
                     per recorded invariant violation
=========  ========  =======================================================

Span timestamps come from :func:`wall_ns`, the recorder's one clock.
``tests/test_source_invariants.py`` allowlists it, next to the runner's
and the sweep's own wall-clock reads (profile and sweep wall time).
Spans describe the host executing the simulation and never feed back
into simulated state (asserted by ``tests/test_spans.py``, which pins
traced == untraced golden results).

``python -m repro trace spans.jsonl --chrome out.json`` converts a
:meth:`SpanRecorder.export_jsonl` file for https://ui.perfetto.dev.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, Optional

from repro.obs.records import Destination, Ring, write_jsonl

#: default ring capacity.  A flight recorder keeps the *newest* window:
#: the ring evicts oldest-first and counts ``evicted``, exactly like the
#: event tracer's ring.
DEFAULT_SPAN_CAPACITY = 1 << 16

#: span-annotation keys stripped by the deterministic JSONL export:
#: ``rss_bytes``/``worker_pid``/``wall_s`` describe the host, and the
#: freelist deltas depend on process-lifetime freelist state (a prior
#: run in the same process leaves packets to reuse), so none is a
#: deterministic property of the run alone
NONDETERMINISTIC_ARGS = frozenset(
    {"rss_bytes", "worker_pid", "wall_s", "queued_ns",
     "freelist_allocated", "freelist_reused"}
)

#: the fields of an exported span, in the order of the internal record
#: tuple ``(pid_label, tid_label, cat, name, t0_ns, dur_ns, args_dict)``
SPAN_FIELDS = ("pid", "tid", "cat", "name", "t0_ns", "dur_ns", "args")


def wall_ns() -> int:
    """Monotonic wall-clock nanoseconds — the recorder's only clock."""
    return time.perf_counter_ns()


class _SpanCtx:
    """Context manager stamping one span; ``args`` may be filled inside."""

    __slots__ = ("_rec", "cat", "name", "tid", "args", "_t0")

    def __init__(
        self,
        rec: "SpanRecorder",
        cat: str,
        name: str,
        tid: str,
        args: Optional[Dict[str, Any]],
    ) -> None:
        self._rec = rec
        self.cat = cat
        self.name = name
        self.tid = tid
        self.args = args if args is not None else {}
        self._t0 = 0

    def __enter__(self) -> "_SpanCtx":
        self._t0 = wall_ns()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        t0 = self._t0
        self._rec.add(
            self.cat, self.name, t0, wall_ns() - t0,
            tid=self.tid, args=self.args,
        )


class SpanRecorder(Ring):
    """Bounded ring of wall-clock spans with JSONL export.

    ``pid`` labels the track every span from this recorder lands on
    (``"run"`` for the harness, ``"sweep"`` for the pool); ``tid`` sub-tracks
    within it.
    """

    __slots__ = ("pid",)

    def __init__(
        self,
        capacity: Optional[int] = DEFAULT_SPAN_CAPACITY,
        pid: str = "run",
    ) -> None:
        super().__init__(capacity)
        self.pid = pid

    def add(
        self,
        cat: str,
        name: str,
        t0_ns: int,
        dur_ns: int,
        tid: str = "main",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._append((self.pid, tid, cat, name, t0_ns, dur_ns, args or {}))

    def span(
        self,
        cat: str,
        name: str,
        tid: str = "main",
        args: Optional[Dict[str, Any]] = None,
    ) -> _SpanCtx:
        """``with rec.span(...) as s:`` — stamps entry/exit wall time.

        Annotations discovered inside the block go into ``s.args``.
        """
        return _SpanCtx(self, cat, name, tid, args)

    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        for record in self.records:
            yield dict(zip(SPAN_FIELDS, record))

    def export_jsonl(
        self, destination: Destination, deterministic: bool = False
    ) -> int:
        """Write one JSON object per line; returns the line count.

        ``deterministic=True`` zeroes ``t0_ns``/``dur_ns`` and strips
        :data:`NONDETERMINISTIC_ARGS`, so two same-seed runs export
        byte-identical files: the span *structure* (chunks, sim-time
        bounds, executed events) is a deterministic property of the run.
        """
        dicts = self.iter_dicts()
        if deterministic:
            dicts = (
                {**d, "t0_ns": 0, "dur_ns": 0,
                 "args": {k: v for k, v in d["args"].items()
                          if k not in NONDETERMINISTIC_ARGS}}
                for d in dicts
            )
        return write_jsonl(dicts, destination)
