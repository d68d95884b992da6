"""Observability: event tracing, the flight recorder, run profiling.

Zero-overhead-when-off instrumentation for the whole pipeline: a
:class:`Tracer` (packet lifecycle and control laws) and a
:class:`SpanRecorder` (wall-clock harness timelines) share one record
path — the bounded ring and the JSONL/Chrome I/O of
:mod:`repro.obs.records` — that ``python -m repro trace`` reads back
(:func:`read_records` and the digests of :mod:`repro.obs.summary`).
:class:`RunProfile` shapes a run's ``profile``.  See
``docs/OBSERVABILITY.md`` for the record formats.
"""

from repro import _lazy_exports

_EXPORTS = {
    "DEFAULT_CAPACITY": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
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

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
