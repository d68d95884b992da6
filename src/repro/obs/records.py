"""The one record path: the bounded ring, JSONL and Chrome trace-event I/O.

:class:`Tracer` (packet events) and :class:`SpanRecorder` (wall-clock
spans) both keep their records in a :class:`Ring`; both export through
:func:`write_jsonl`; ``python -m repro trace`` reads either file back with
:func:`read_jsonl` and converts it for https://ui.perfetto.dev with
:func:`chrome_trace` or :func:`trace_events_to_chrome` and
:func:`write_chrome`.

Every writer emits sorted keys and compact separators, so the bytes of an
export depend only on the records: two traces of the same deterministic
run are byte-identical.
"""

from __future__ import annotations

import json
from collections import deque
from typing import (
    IO,
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

Destination = Union[str, IO[str]]


class Ring:
    """Bounded record buffer: a full ring evicts oldest-first and counts
    the evictions in :attr:`evicted`, so memory never grows unbounded and
    a reader can tell the window it holds is not the whole run."""

    __slots__ = ("capacity", "records", "evicted")

    def __init__(self, capacity: Optional[int]) -> None:
        self.capacity = capacity
        self.records: Deque[Tuple] = deque(maxlen=capacity)
        self.evicted = 0

    def __len__(self) -> int:
        return len(self.records)

    def _append(self, record: Tuple) -> None:
        records = self.records
        if len(records) == records.maxlen:
            self.evicted += 1
        records.append(record)

    def clear(self) -> None:
        self.records.clear()
        self.evicted = 0

    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        """The records as JSON-ready dicts, in record order."""
        raise NotImplementedError

    def export_jsonl(self, destination: Destination) -> int:
        """Write :meth:`iter_dicts` as JSONL; returns the line count."""
        return write_jsonl(self.iter_dicts(), destination)


def write_jsonl(dicts: Iterable[Dict[str, Any]], destination: Destination) -> int:
    """Write one sorted-key compact JSON object per line; returns the count.

    ``destination`` is a path or a text stream.
    """
    if isinstance(destination, str):
        with open(destination, "w") as fh:
            return write_jsonl(dicts, fh)
    n = 0
    for d in dicts:
        destination.write(json.dumps(d, sort_keys=True, separators=(",", ":")))
        destination.write("\n")
        n += 1
    return n


def read_jsonl(
    path: str, check: Optional[Callable[[Any], None]] = None
) -> List[Any]:
    """Read a JSONL file back (blank lines skipped).

    A line that is not JSON, or that ``check`` rejects by raising
    ``ValueError``, raises ``ValueError("<path>:<line>: <why>")``.
    """
    out: List[Any] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from None
            if check is not None:
                try:
                    check(record)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            out.append(record)
    return out


# -- Chrome trace-event (Perfetto) export ---------------------------------


class _Tracks:
    """Interns ``pid``/``tid`` labels as the small integers the format
    wants, emitting the ``process_name``/``thread_name`` metadata ("M")
    events that let Perfetto show the labels."""

    def __init__(self) -> None:
        self.meta: List[Dict[str, Any]] = []
        self._pids: Dict[str, int] = {}
        self._tids: Dict[str, Dict[str, int]] = {}

    def pid(self, label: str) -> int:
        pid = self._pids.get(label)
        if pid is None:
            pid = self._pids[label] = len(self._pids) + 1
            self._tids[label] = {}
            self.meta.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
        return pid

    def tid(self, pid_label: str, label: str) -> Tuple[int, int]:
        pid = self.pid(pid_label)
        tids = self._tids[pid_label]
        tid = tids.get(label)
        if tid is None:
            tid = tids[label] = len(tids) + 1
            self.meta.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": label},
            })
        return pid, tid


def chrome_trace(span_dicts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Span dicts -> a Chrome trace-event JSON document.

    Each span becomes an ``"X"`` slice on its ``pid``/``tid`` track.
    Timestamps are rebased to the earliest span and converted to the
    format's microseconds.
    """
    spans = list(span_dicts)
    base = min((s["t0_ns"] for s in spans), default=0)
    tracks = _Tracks()
    events: List[Dict[str, Any]] = []
    for s in spans:
        pid, tid = tracks.tid(s["pid"], s["tid"])
        events.append({
            "ph": "X", "pid": pid, "tid": tid, "cat": s["cat"],
            "name": s["name"], "ts": (s["t0_ns"] - base) / 1e3,
            "dur": s["dur_ns"] / 1e3, "args": s["args"],
        })
    return {"traceEvents": tracks.meta + events, "displayTimeUnit": "ms"}


def trace_events_to_chrome(
    event_dicts: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Packet-lifecycle trace events -> Chrome trace-event JSON.

    Input is the ``Tracer.iter_dicts()`` / ``run --trace`` schema (see
    :mod:`repro.obs.trace`).  Everything lands on one ``"sim"`` process;
    timestamps are simulated ns shown as trace µs:

    * ``dequeue`` — an ``"X"`` slice per packet on its ``port[q<i>]``
      thread, spanning the queue sojourn (``ts = t - sojourn_ns``);
    * ``enqueue`` / ``mark`` / ``drop`` — instant events on that thread;
    * ``cwnd`` / ``alpha`` / ``rate`` — counter (``"C"``) series per
      flow, so the control laws plot alongside the queues.
    """
    tracks = _Tracks()
    tracks.pid("sim")
    events: List[Dict[str, Any]] = []
    for ev in event_dicts:
        kind = ev["ev"]
        t_us = ev["t"] / 1e3
        if kind in ("enqueue", "dequeue", "mark", "drop"):
            _, tid = tracks.tid("sim", f"{ev['port']}[q{ev['q']}]")
            args = {"flow": ev["flow"], "seq": ev["seq"], "size": ev["size"]}
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
            value = ev["rate_bps" if kind == "rate" else kind]
            events.append({
                "ph": "C", "pid": 1, "tid": 0, "cat": "control",
                "name": f"{kind}.flow{ev['flow']}",
                "ts": t_us, "args": {kind: value},
            })
    return {"traceEvents": tracks.meta + events, "displayTimeUnit": "ms"}


def write_chrome(doc: Dict[str, Any], destination: Destination) -> int:
    """Serialize a trace-event document; returns its non-metadata event
    count (slices, instants and counters)."""
    if isinstance(destination, str):
        with open(destination, "w") as fh:
            return write_chrome(doc, fh)
    json.dump(doc, destination, sort_keys=True, separators=(",", ":"))
    destination.write("\n")
    return sum(1 for e in doc["traceEvents"] if e["ph"] != "M")
