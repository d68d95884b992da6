"""Observability: event tracing, the flight recorder, run profiling.

Zero-overhead-when-off instrumentation for the whole pipeline: a
:class:`Tracer` (packet lifecycle and control laws) and a
:class:`SpanRecorder` (wall-clock harness timelines) share one record
path — the bounded ring and the JSONL/Chrome I/O of
:mod:`repro.obs.records` — that ``python -m repro trace`` reads back
(:func:`read_records` and the digests of :mod:`repro.obs.summary`).
:class:`RunProfile` and :class:`Histogram` shape a run's ``profile`` and
``metrics``.  See ``docs/OBSERVABILITY.md`` for the record formats.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.obs.trace import DEFAULT_CAPACITY, Tracer
    from repro.obs.histogram import Histogram
    from repro.obs.profile import RunProfile, current_rss_bytes
    from repro.obs.records import (
        chrome_trace,
        read_jsonl,
        trace_events_to_chrome,
        write_chrome,
        write_jsonl,
    )
    from repro.obs.spans import DEFAULT_SPAN_CAPACITY, SpanRecorder
    from repro.obs.summary import (
        QueueSummary,
        TraceSummary,
        format_span_summary,
        format_trace_summary,
        read_records,
        summarize_events,
    )

__all__ = [
    "Tracer",
    "DEFAULT_CAPACITY",
    "Histogram",
    "RunProfile",
    "current_rss_bytes",
    "SpanRecorder",
    "DEFAULT_SPAN_CAPACITY",
    "read_jsonl",
    "write_jsonl",
    "chrome_trace",
    "trace_events_to_chrome",
    "write_chrome",
    "QueueSummary",
    "TraceSummary",
    "read_records",
    "summarize_events",
    "format_trace_summary",
    "format_span_summary",
]

_EXPORTS = {
    "DEFAULT_CAPACITY": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "Histogram": "repro.obs.histogram",
    "RunProfile": "repro.obs.profile",
    "current_rss_bytes": "repro.obs.profile",
    "chrome_trace": "repro.obs.records",
    "read_jsonl": "repro.obs.records",
    "trace_events_to_chrome": "repro.obs.records",
    "write_chrome": "repro.obs.records",
    "write_jsonl": "repro.obs.records",
    "DEFAULT_SPAN_CAPACITY": "repro.obs.spans",
    "SpanRecorder": "repro.obs.spans",
    "QueueSummary": "repro.obs.summary",
    "TraceSummary": "repro.obs.summary",
    "format_span_summary": "repro.obs.summary",
    "format_trace_summary": "repro.obs.summary",
    "read_records": "repro.obs.summary",
    "summarize_events": "repro.obs.summary",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
