"""Observability: event tracing, metrics registry, run profiling.

Zero-overhead-when-off instrumentation for the whole pipeline:

* :class:`Tracer` — bounded ring buffer of typed packet-lifecycle /
  AQM / transport events with deterministic JSONL export (and
  :class:`NullTracer`, the explicit no-op).
* :class:`MetricsRegistry` — counters, gauges, log-bucketed histograms
  that components register into and the harness snapshots into results.
* :class:`RunProfile` — events processed, events/sec, heap and RSS
  high-water marks per run (with :class:`RssSampler` feeding in-run
  RSS high-water samples at chunk boundaries).
* :class:`SpanRecorder` — the flight recorder: wall-clock span
  timelines of the run loop, fluid epochs and the sweep pool, exported
  as Chrome trace-event JSON (Perfetto) or deterministic JSONL.
* :func:`summarize_events` / :func:`summarize_trace_file` /
  :func:`format_trace_summary` — the analysis behind
  ``python -m repro trace``.

See ``docs/OBSERVABILITY.md`` for the event schema and extension guide.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.obs.trace import (
        DEFAULT_CAPACITY,
        NULL_TRACER,
        NullTracer,
        Tracer,
    )
    from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
    from repro.obs.profile import RssSampler, RunProfile, current_rss_bytes
    from repro.obs.spans import (
        DEFAULT_SPAN_CAPACITY,
        SpanRecorder,
        chrome_trace,
        format_span_summary,
        load_spans_jsonl,
        trace_events_to_chrome,
        write_chrome,
    )
    from repro.obs.summary import (
        QueueSummary,
        TraceSummary,
        format_trace_summary,
        summarize_events,
        summarize_trace_file,
    )

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "DEFAULT_CAPACITY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunProfile",
    "RssSampler",
    "current_rss_bytes",
    "SpanRecorder",
    "DEFAULT_SPAN_CAPACITY",
    "chrome_trace",
    "write_chrome",
    "trace_events_to_chrome",
    "format_span_summary",
    "load_spans_jsonl",
    "QueueSummary",
    "TraceSummary",
    "summarize_events",
    "summarize_trace_file",
    "format_trace_summary",
]

_EXPORTS = {
    "DEFAULT_CAPACITY": "repro.obs.trace",
    "NULL_TRACER": "repro.obs.trace",
    "NullTracer": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "Counter": "repro.obs.registry",
    "Gauge": "repro.obs.registry",
    "Histogram": "repro.obs.registry",
    "MetricsRegistry": "repro.obs.registry",
    "RssSampler": "repro.obs.profile",
    "RunProfile": "repro.obs.profile",
    "current_rss_bytes": "repro.obs.profile",
    "DEFAULT_SPAN_CAPACITY": "repro.obs.spans",
    "SpanRecorder": "repro.obs.spans",
    "chrome_trace": "repro.obs.spans",
    "format_span_summary": "repro.obs.spans",
    "load_spans_jsonl": "repro.obs.spans",
    "trace_events_to_chrome": "repro.obs.spans",
    "write_chrome": "repro.obs.spans",
    "QueueSummary": "repro.obs.summary",
    "TraceSummary": "repro.obs.summary",
    "format_trace_summary": "repro.obs.summary",
    "summarize_events": "repro.obs.summary",
    "summarize_trace_file": "repro.obs.summary",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
