"""Read a trace or span file back and digest it: ``python -m repro trace``.

:func:`read_records` loads either JSONL export — ``run --trace`` packet
events or ``--spans`` flight-recorder spans — checks every record's kind
and fields, and says which kind the file holds.  The digests work from
any iterable of record dicts, so a live recorder's ``iter_dicts()`` and
a file on disk share one code path: :func:`summarize_events` /
:func:`format_trace_summary` give per-queue mark rates, sojourn
percentiles and drop causes; :func:`format_span_summary` gives per-span
type counts and durations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.metrics.fct import percentile
from repro.obs.records import read_jsonl
from repro.obs.spans import SPAN_FIELDS
from repro.obs.trace import EVENT_FIELDS

SOJOURN_PERCENTILES = (50.0, 90.0, 99.0)

#: record fields that are not numbers; the digests and converters key on
#: the labels and compute with every other field
_FIELD_TYPES = {
    **dict.fromkeys(
        ("port", "where", "cause", "reason", "pid", "tid", "cat", "name"), str
    ),
    "args": dict,
}


@dataclass
class QueueSummary:
    """Per-(port, queue) lifecycle counts from a trace."""

    enqueued: int = 0
    dequeued: int = 0
    marked: int = 0
    dropped: int = 0

    @property
    def mark_rate(self) -> Optional[float]:
        """Marks per dequeued packet (None before any dequeue)."""
        return self.marked / self.dequeued if self.dequeued else None


@dataclass
class TraceSummary:
    """Everything ``python -m repro trace`` reports."""

    n_events: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    queues: Dict[Tuple[str, int], QueueSummary] = field(default_factory=dict)
    drop_causes: Dict[str, int] = field(default_factory=dict)
    sojourns_ns: List[int] = field(repr=False, default_factory=list)
    t_first_ns: Optional[int] = None
    t_last_ns: Optional[int] = None

    @property
    def total_marks(self) -> int:
        return sum(q.marked for q in self.queues.values())

    @property
    def total_drops(self) -> int:
        return sum(q.dropped for q in self.queues.values())

    def sojourn_percentile(self, p: float) -> Optional[float]:
        return percentile(self.sojourns_ns, p) if self.sojourns_ns else None

    @property
    def sojourn_mean_ns(self) -> Optional[float]:
        if not self.sojourns_ns:
            return None
        return sum(self.sojourns_ns) / len(self.sojourns_ns)


def summarize_events(events: Iterable[Dict]) -> TraceSummary:
    """Fold an event-dict stream into a :class:`TraceSummary`."""
    summary = TraceSummary()
    for event in events:
        summary.n_events += 1
        kind = event["ev"]
        summary.by_kind[kind] = summary.by_kind.get(kind, 0) + 1
        t = event["t"]
        if summary.t_first_ns is None:
            summary.t_first_ns = t
        summary.t_last_ns = t
        if kind in ("enqueue", "dequeue", "mark", "drop"):
            key = (event["port"], event["q"])
            queue = summary.queues.get(key)
            if queue is None:
                queue = summary.queues[key] = QueueSummary()
            if kind == "enqueue":
                queue.enqueued += 1
            elif kind == "dequeue":
                queue.dequeued += 1
                summary.sojourns_ns.append(event["sojourn_ns"])
            elif kind == "mark":
                queue.marked += 1
            else:
                queue.dropped += 1
                cause = event["cause"]
                summary.drop_causes[cause] = (
                    summary.drop_causes.get(cause, 0) + 1
                )
    return summary


def read_records(path: str) -> Tuple[str, List[Dict[str, Any]]]:
    """Read a ``run --trace`` or ``--spans`` file: ``(kind, records)``.

    ``kind`` is ``"event"`` (records carry ``ev``) or ``"span"`` (they
    carry ``cat``); the first record decides it, and an empty file is an
    event trace.  A record that is not an object, mixes the kinds, or
    lacks a field of its kind or holds one of the wrong type raises
    ``ValueError("<path>:<line>: ...")``.
    """
    kinds: List[str] = []

    def check(record: Any) -> None:
        if not isinstance(record, dict):
            raise ValueError(
                f"expected a JSON object, got {type(record).__name__}"
            )
        if "ev" in record:
            kind, ev = "event", record["ev"]
            fields = EVENT_FIELDS.get(ev) if isinstance(ev, str) else None
            if fields is None:
                raise ValueError(f"unknown event kind {record['ev']!r}")
        elif "cat" in record:
            kind, fields = "span", SPAN_FIELDS
        else:
            raise ValueError("record has neither 'ev' (event) nor 'cat' (span)")
        if not kinds:
            kinds.append(kind)
        elif kind != kinds[0]:
            raise ValueError(f"{kind} record in a file of {kinds[0]} records")
        name = record.get("ev", kind)
        missing = [f for f in fields if f not in record]
        if missing:
            raise ValueError(f"{name} record lacks {', '.join(missing)}")
        wrong = [
            f for f in fields
            if not isinstance(record[f], _FIELD_TYPES.get(f, (int, float)))
        ]
        if wrong:
            raise ValueError(f"{name} record has a mistyped {', '.join(wrong)}")

    records = read_jsonl(path, check)
    return (kinds[0] if kinds else "event"), records


def format_trace_summary(summary: TraceSummary) -> str:
    """Render the plain-text report the ``trace`` subcommand prints."""
    lines: List[str] = []
    span = ""
    if summary.t_first_ns is not None:
        span = (
            f" spanning {(summary.t_last_ns - summary.t_first_ns) / 1e6:.2f} ms"
            f" of simulated time"
        )
    lines.append(f"{summary.n_events} events{span}")
    if summary.by_kind:
        kinds = ", ".join(
            f"{kind}={n}" for kind, n in sorted(summary.by_kind.items())
        )
        lines.append(f"  by kind: {kinds}")

    if summary.queues:
        lines.append("")
        lines.append("per-queue lifecycle:")
        header = f"  {'queue':<16} {'enq':>8} {'deq':>8} {'marks':>7} {'drops':>7} {'mark-rate':>9}"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for (port, qidx), q in sorted(summary.queues.items()):
            rate = f"{q.mark_rate:.3f}" if q.mark_rate is not None else "-"
            lines.append(
                f"  {f'{port}[q{qidx}]':<16} {q.enqueued:>8} {q.dequeued:>8} "
                f"{q.marked:>7} {q.dropped:>7} {rate:>9}"
            )

    if summary.sojourns_ns:
        lines.append("")
        pcts = "  ".join(
            f"p{p:g}={summary.sojourn_percentile(p) / 1e3:.1f}us"
            for p in SOJOURN_PERCENTILES
        )
        lines.append(
            f"sojourn ({len(summary.sojourns_ns)} samples): "
            f"mean={summary.sojourn_mean_ns / 1e3:.1f}us  {pcts}  "
            f"max={max(summary.sojourns_ns) / 1e3:.1f}us"
        )

    if summary.drop_causes:
        causes = ", ".join(
            f"{cause}={n}" for cause, n in sorted(summary.drop_causes.items())
        )
        lines.append(f"drop causes: {causes}")
    return "\n".join(lines)


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
