"""Flight recorder: wall-clock span timelines across the harness layers.

A :class:`SpanRecorder` collects *spans* — named wall-clock intervals
with a category, a process/track label, and a dict of deterministic
annotations — into a bounded ring, mirroring :class:`repro.obs.Tracer`'s
design: components hold a ``spans`` attribute (or take a ``spans``
parameter) that is ``None`` by default, so the un-instrumented path pays
exactly one ``is not None`` test per hook point and the simulation hot
path is never touched at all.

These layers record spans:

=========  ========  =======================================================
``cat``    name      emitted by
=========  ========  =======================================================
engine     chunk     ``harness.runner.run_experiment`` — one span per
                     ``Simulator.run`` chunk (the GC-paused window), with
                     sim-time bounds, executed events and packet-freelist
                     pressure deltas
fluid      epoch     ``sim.fluid.FluidNetwork`` — one span per fluid
                     epoch (hybrid/fluid modes)
sweep      job       ``harness.sweep.run_sweep`` — one span per grid cell
                     (queued → dispatched → finished) with cache/crash
                     status, plus one ``sweep`` span for the whole pool
sanitize   <kind>    ``repro.sanitize.Sanitizer`` — one zero-length span
                     per recorded invariant violation
=========  ========  =======================================================

Wall-clock reads happen **only** in :func:`wall_ns` below, the one
allowlisted site of ``tests/test_source_invariants.py``'s wall-clock
check: span timestamps describe the host executing the simulation and
never feed back into simulated state (asserted by ``tests/test_spans.py``,
which pins traced == untraced golden results).

Exports:

* :meth:`SpanRecorder.export_jsonl` — one sorted-key JSON object per
  line.  With ``deterministic=True`` the wall-clock fields (``t0_ns``,
  ``dur_ns``) are zeroed and host-dependent annotation keys
  (:data:`NONDETERMINISTIC_ARGS`) stripped, so two same-seed runs export
  byte-identical files — the span *structure* (chunks, sim-time bounds,
  executed events) is a deterministic property of the run.
* :meth:`SpanRecorder.export_chrome` / :func:`chrome_trace` — Chrome
  trace-event JSON (``traceEvents`` array of ``ph: "X"`` slices), which
  https://ui.perfetto.dev loads directly.
* :func:`trace_events_to_chrome` — converts a packet-lifecycle trace
  (``repro run --trace``) into the same format, so packet sojourns can
  be overlaid with harness spans in one Perfetto view.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import (
    IO,
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.metrics.fct import percentile

#: default ring capacity.  A flight recorder keeps the *newest* window:
#: the ring evicts oldest-first and counts ``dropped_spans``, exactly
#: like the event tracer's ring.
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

#: internal span record:
#: ``(pid_label, tid_label, cat, name, t0_ns, dur_ns, args_dict)``
SpanTuple = Tuple[str, str, str, str, int, int, Dict[str, Any]]


def wall_ns() -> int:
    """Monotonic wall-clock nanoseconds — the recorder's only clock.

    Centralised so the flight recorder has exactly one wall-clock call
    site.
    """
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


class SpanRecorder:
    """Bounded ring of wall-clock spans with Chrome/JSONL export.

    ``pid`` labels the track every span from this recorder lands on
    (``"run"`` for the harness, ``"sweep"`` for the pool); ``tid`` sub-tracks
    within it.  Like the event tracer, a full ring evicts oldest-first
    and counts :attr:`dropped_spans` instead of growing unbounded.
    """

    #: quick feature test mirroring ``Tracer.enabled``
    enabled = True

    __slots__ = ("spans", "capacity", "dropped_spans", "pid")

    def __init__(
        self,
        capacity: Optional[int] = DEFAULT_SPAN_CAPACITY,
        pid: str = "run",
    ) -> None:
        self.capacity = capacity
        self.pid = pid
        self.spans: Deque[SpanTuple] = deque(maxlen=capacity)
        self.dropped_spans = 0

    def __len__(self) -> int:
        return len(self.spans)

    # -- recording --------------------------------------------------------

    def add(
        self,
        cat: str,
        name: str,
        t0_ns: int,
        dur_ns: int,
        tid: str = "main",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        spans = self.spans
        if spans.maxlen is not None and len(spans) == spans.maxlen:
            self.dropped_spans += 1
        spans.append(
            (self.pid, tid, cat, name, t0_ns, dur_ns, args or {})
        )

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

    def adopt(
        self, spans: Iterable[SpanTuple], dropped: int = 0
    ) -> None:
        """Merge spans from another recorder (pid kept as-is), in order."""
        ring = self.spans
        for record in spans:
            if ring.maxlen is not None and len(ring) == ring.maxlen:
                self.dropped_spans += 1
            ring.append(record)
        self.dropped_spans += dropped

    def clear(self) -> None:
        self.spans.clear()
        self.dropped_spans = 0

    # -- export -----------------------------------------------------------

    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        for pid, tid, cat, name, t0, dur, args in self.spans:
            yield {
                "pid": pid, "tid": tid, "cat": cat, "name": name,
                "t0_ns": t0, "dur_ns": dur, "args": args,
            }

    def export_jsonl(
        self,
        destination: Union[str, IO[str]],
        deterministic: bool = False,
    ) -> int:
        """Write one JSON object per line; returns the line count.

        ``deterministic=True`` zeroes the wall-clock fields and strips
        host-dependent annotations so same-seed exports are
        byte-identical (see the module docstring).
        """
        if isinstance(destination, str):
            with open(destination, "w") as fh:
                return self.export_jsonl(fh, deterministic=deterministic)
        n = 0
        for d in self.iter_dicts():
            if deterministic:
                d = dict(d)
                d["t0_ns"] = 0
                d["dur_ns"] = 0
                d["args"] = {
                    k: v
                    for k, v in d["args"].items()
                    if k not in NONDETERMINISTIC_ARGS
                }
            destination.write(
                json.dumps(d, sort_keys=True, separators=(",", ":"))
            )
            destination.write("\n")
            n += 1
        return n

    def export_chrome(self, destination: Union[str, IO[str]]) -> int:
        """Write Chrome trace-event JSON; returns the slice-event count."""
        return write_chrome(list(self.iter_dicts()), destination)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SpanRecorder pid={self.pid!r} {len(self.spans)} spans"
            f"{f' ({self.dropped_spans} evicted)' if self.dropped_spans else ''}>"
        )


def load_spans_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a span JSONL export back into dicts (blank lines skipped)."""
    out: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


# -- Chrome trace-event (Perfetto) export ---------------------------------


def chrome_trace(span_dicts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Span dicts -> a Chrome trace-event JSON document.

    Timestamps are rebased to the earliest span and converted to the
    format's microseconds; ``pid``/``tid`` labels become small integers
    with ``process_name`` / ``thread_name`` metadata events so Perfetto
    shows the human labels.
    """
    spans = list(span_dicts)
    base = min((s["t0_ns"] for s in spans), default=0)
    pid_ids: Dict[str, int] = {}
    tid_ids: Dict[Tuple[str, str], int] = {}
    events: List[Dict[str, Any]] = []
    meta: List[Dict[str, Any]] = []
    for s in spans:
        pid_label, tid_label = s["pid"], s["tid"]
        pid = pid_ids.get(pid_label)
        if pid is None:
            pid = pid_ids[pid_label] = len(pid_ids) + 1
            meta.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": pid_label},
            })
        tkey = (pid_label, tid_label)
        tid = tid_ids.get(tkey)
        if tid is None:
            tid = tid_ids[tkey] = (
                sum(1 for k in tid_ids if k[0] == pid_label) + 1
            )
            meta.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": tid_label},
            })
        events.append({
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "cat": s["cat"],
            "name": s["name"],
            "ts": (s["t0_ns"] - base) / 1e3,
            "dur": s["dur_ns"] / 1e3,
            "args": s["args"],
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome(
    span_dicts: Iterable[Dict[str, Any]],
    destination: Union[str, IO[str]],
) -> int:
    """Serialize :func:`chrome_trace` output; returns the slice count."""
    if isinstance(destination, str):
        with open(destination, "w") as fh:
            return write_chrome(span_dicts, fh)
    doc = chrome_trace(span_dicts)
    json.dump(doc, destination, sort_keys=True, separators=(",", ":"))
    destination.write("\n")
    return sum(1 for e in doc["traceEvents"] if e["ph"] == "X")


def trace_events_to_chrome(
    event_dicts: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Packet-lifecycle trace events -> Chrome trace-event JSON.

    Input is the ``Tracer.iter_dicts()`` / ``run --trace`` JSONL schema
    (see :mod:`repro.obs.trace`).  The mapping (all on one ``"sim"``
    process track, timestamps in simulated ns shown as trace µs):

    * ``dequeue`` — an ``"X"`` slice per packet on its ``port[q<i>]``
      thread, spanning the queue sojourn (``ts = t - sojourn_ns``);
    * ``enqueue`` / ``mark`` / ``drop`` — instant events on the same
      thread;
    * ``cwnd`` / ``alpha`` / ``rate`` — counter (``"C"``) series per
      flow, so the control laws plot alongside the queues.
    """
    tid_ids: Dict[str, int] = {}
    meta: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": 1, "tid": 0,
        "args": {"name": "sim"},
    }]
    events: List[Dict[str, Any]] = []

    def tid_for(label: str) -> int:
        tid = tid_ids.get(label)
        if tid is None:
            tid = tid_ids[label] = len(tid_ids) + 1
            meta.append({
                "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                "args": {"name": label},
            })
        return tid

    for ev in event_dicts:
        kind = ev["ev"]
        t_us = ev["t"] / 1e3
        if kind in ("enqueue", "dequeue", "mark", "drop"):
            tid = tid_for(f"{ev['port']}[q{ev['q']}]")
            args = {
                "flow": ev["flow"], "seq": ev["seq"], "size": ev["size"],
            }
            if kind == "dequeue":
                sojourn = ev["sojourn_ns"]
                events.append({
                    "ph": "X", "pid": 1, "tid": tid, "cat": "packet",
                    "name": f"flow{ev['flow']}",
                    "ts": (ev["t"] - sojourn) / 1e3, "dur": sojourn / 1e3,
                    "args": args,
                })
            else:
                if kind == "mark":
                    args["where"] = ev["where"]
                elif kind == "drop":
                    args["cause"] = ev["cause"]
                events.append({
                    "ph": "i", "pid": 1, "tid": tid, "cat": "packet",
                    "name": kind, "ts": t_us, "s": "t", "args": args,
                })
        elif kind in ("cwnd", "alpha", "rate"):
            value = ev["cwnd" if kind == "cwnd" else
                       "alpha" if kind == "alpha" else "rate_bps"]
            events.append({
                "ph": "C", "pid": 1, "tid": 0, "cat": "control",
                "name": f"{kind}.flow{ev['flow']}",
                "ts": t_us, "args": {kind: value},
            })
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_doc(
    doc: Dict[str, Any], destination: Union[str, IO[str]]
) -> int:
    """Serialize a prepared trace document; returns its event count.

    The writer behind ``repro trace --format chrome``: takes the output
    of :func:`trace_events_to_chrome` (or :func:`chrome_trace`) as-is.
    """
    if isinstance(destination, str):
        with open(destination, "w") as fh:
            return write_chrome_doc(doc, fh)
    json.dump(doc, destination, sort_keys=True, separators=(",", ":"))
    destination.write("\n")
    return sum(1 for e in doc["traceEvents"] if e["ph"] != "M")


def format_span_summary(span_dicts: Iterable[Dict[str, Any]]) -> str:
    """Plain-text timeline digest: per (cat, name) counts and durations."""
    groups: Dict[Tuple[str, str], List[int]] = {}
    for s in span_dicts:
        groups.setdefault((s["cat"], s["name"]), []).append(s["dur_ns"])
    if not groups:
        return "(no spans recorded)"
    lines = [
        f"{'cat':<8}  {'name':<10}  {'count':>6}  {'total':>10}  "
        f"{'p50':>9}  {'p95':>9}  {'max':>9}"
    ]
    for (cat, name), values in sorted(groups.items()):
        lines.append(
            f"{cat:<8}  {name:<10}  {len(values):>6}  "
            f"{sum(values) / 1e6:>8.2f}ms  "
            f"{percentile(values, 50) / 1e3:>7.1f}us  "
            f"{percentile(values, 95) / 1e3:>7.1f}us  "
            f"{max(values) / 1e3:>7.1f}us"
        )
    return "\n".join(lines)
