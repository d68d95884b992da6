"""Plain-text tables and the self-contained run report.

The tables are what the CLIs and the figure benches print: paper-vs-
measured FCT rows, per-port traffic/mark/drop breakdowns.

``python -m repro run --report PATH`` runs an experiment with the flight
recorder on and :func:`render_run_report` renders everything a reader
needs to judge the run — config, profile, FCT summary, the hottest ports
by marks/drops, the port breakdown and a timeline digest — into a single
file with no external assets, so it attaches to a CI run or a paper
artifact as-is.  The renderer is deliberately dumb: a list of named
sections whose bodies are the same fixed-width tables, serialised as
markdown (fenced code blocks) or HTML (``<pre>`` blocks with a few lines
of inline CSS).  No templating engine, no dependencies, deterministic
output for deterministic inputs.
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - the tables never build a simulator
    from repro.harness.config import ExperimentConfig
    from repro.harness.runner import ExperimentResult
    from repro.obs.spans import SpanRecorder

#: (heading, body) — body is preformatted fixed-width text
Section = Tuple[str, str]

#: rows in the run report's hottest-ports table
TOP_PORTS = 8


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width ASCII table (no external dependencies)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), sep] + [fmt(r) for r in rows])


def _us(value_ns: Optional[float]) -> str:
    if value_ns is None:
        return "-"
    return f"{value_ns / 1000.0:.0f}us"


def _port_counters(metrics: Dict[str, Any]) -> Dict[str, Dict[str, int]]:
    """``{port: {field: count}}`` from the ``port.<name>.<field>`` counters.

    Port names contain no dots, so port-level keys split into
    (name, field) and per-queue ``port.<name>.q<i>.<field>`` keys into
    three parts; those are skipped (the ``trace`` subcommand breaks
    queues out), as are histogram snapshots, which don't tabulate.
    """
    ports: Dict[str, Dict[str, int]] = {}
    for key, snap in metrics.items():
        if not key.startswith("port.") or isinstance(snap, dict):
            continue
        parts = key[len("port."):].split(".")
        if len(parts) != 2:
            continue
        name, fld = parts
        ports.setdefault(name, {})[fld] = snap
    return ports


def format_port_breakdown(metrics: Dict[str, Any]) -> str:
    """Per-port traffic/mark/drop table from a run's metrics snapshot.

    Reads the ``port.<name>.<field>`` counters that ``run_experiment``
    registers.  Ports with no traffic at all are omitted.
    """
    ports = _port_counters(metrics)
    headers = ["port", "rx_pkts", "tx_pkts", "marks", "mark%", "drops", "drop%"]
    rows: List[List[str]] = []
    for name in sorted(ports):
        c = ports[name]
        rx = c.get("rx_pkts", 0)
        tx = c.get("tx_pkts", 0)
        if rx == 0 and tx == 0:
            continue
        marks = c.get("marked_pkts", 0)
        drops = c.get("dropped_pkts", 0)
        mark_pct = f"{100.0 * marks / tx:.2f}" if tx else "-"
        drop_pct = f"{100.0 * drops / rx:.2f}" if rx else "-"
        rows.append(
            [name, str(rx), str(tx), str(marks), mark_pct, str(drops), drop_pct]
        )
    if not rows:
        return "(no port traffic recorded)"
    return format_table(headers, rows)


def hottest_ports(
    metrics: Dict[str, Any], top: int = TOP_PORTS
) -> List[Tuple[str, int, int, int, int]]:
    """Ports ranked by (marks + drops) descending: the congestion map.

    Returns ``(port, rx_pkts, tx_pkts, marks, drops)`` rows; ports with
    neither marks nor drops are omitted (nothing to rank them by).
    """
    ranked = []
    for name, c in _port_counters(metrics).items():
        marks = c.get("marked_pkts", 0)
        drops = c.get("dropped_pkts", 0)
        if marks or drops:
            ranked.append(
                (name, c.get("rx_pkts", 0), c.get("tx_pkts", 0), marks, drops)
            )
    ranked.sort(key=lambda r: (-(r[3] + r[4]), r[0]))
    return ranked[:top]


def format_fct_rows(results: Dict[str, ExperimentResult]) -> str:
    """One row per scheme: the paper's four FCT statistics plus counters.

    Values are also normalized to TCN (the paper's plots normalize to TCN
    = 1.0) when a ``tcn`` row is present.
    """
    tcn = results.get("tcn")
    headers = [
        "scheme",
        "avg(all)",
        "avg(small)",
        "99p(small)",
        "avg(large)",
        "norm-avg-small",
        "norm-99p-small",
        "timeouts",
        "drops",
    ]
    rows: List[List[str]] = []
    for name, res in results.items():
        s = res.summary
        def norm(field: str) -> str:
            if tcn is None:
                return "-"
            base = getattr(tcn.summary, field)
            val = getattr(s, field)
            if base is None or val is None or base == 0:
                return "-"
            return f"{val / base:.2f}"
        rows.append(
            [
                name,
                _us(s.avg_all_ns),
                _us(s.avg_small_ns),
                _us(s.p99_small_ns),
                _us(s.avg_large_ns),
                norm("avg_small_ns"),
                norm("p99_small_ns"),
                str(res.timeouts),
                str(res.drops),
            ]
        )
    return format_table(headers, rows)


# -- the run report ---------------------------------------------------------


def _config_lines(cfg: ExperimentConfig) -> str:
    rows = [
        ["scheme", cfg.scheme],
        ["scheduler", cfg.scheduler],
        ["transport", cfg.transport],
        ["topology", cfg.topology],
        ["workload", cfg.workload],
        ["load", f"{cfg.load:g}"],
        ["flows", str(cfg.n_flows)],
        ["seed", str(cfg.seed)],
    ]
    return format_table(["parameter", "value"], rows)


def _run_lines(result: ExperimentResult) -> str:
    rows = [
        ["completed flows", f"{result.completed}/{result.total}"],
        ["simulated time", f"{result.sim_ns / 1e9:.3f} s"],
        ["wall time", f"{result.wall_s:.2f} s"],
        ["timeouts", str(result.timeouts)],
        ["drops", str(result.drops)],
        ["ECN marks", str(result.marks)],
    ]
    return format_table(["metric", "value"], rows)


def _profile_lines(profile: Dict[str, object]) -> str:
    rows = [
        ["events", str(profile.get("events", 0))],
        ["events/sec", f"{float(profile.get('events_per_sec', 0.0)):,.0f}"],
        ["heap high-water", str(profile.get("heap_hwm", 0))],
        [
            "RSS high-water",
            f"{int(profile.get('rss_hwm_bytes', 0)) / 2**20:.0f} MB",  # type: ignore[call-overload]
        ],
    ]
    return format_table(["metric", "value"], rows)


def _hottest_lines(metrics: Dict[str, Any]) -> str:
    ranked = hottest_ports(metrics)
    if not ranked:
        return "(no port recorded a mark or a drop)"
    rows = [
        [name, str(rx), str(tx), str(marks), str(drops)]
        for name, rx, tx, marks, drops in ranked
    ]
    return format_table(["port", "rx_pkts", "tx_pkts", "marks", "drops"], rows)


def _sections(
    result: ExperimentResult, spans: Optional[SpanRecorder]
) -> List[Section]:
    """Assemble the report sections from one finished run."""
    sections: List[Section] = [
        ("Configuration", _config_lines(result.config)),
        ("Run", _run_lines(result)),
        ("Profile", _profile_lines(result.profile)),
        ("FCT summary", format_fct_rows({result.config.scheme: result})),
        ("Hottest ports", _hottest_lines(result.metrics)),
        ("Port breakdown", format_port_breakdown(result.metrics)),
    ]
    if spans is not None and len(spans):
        # call-local: importing the tables loads nothing else
        from repro.obs.summary import format_span_summary

        digest = format_span_summary(spans.iter_dicts())
        if spans.evicted:
            digest += (
                f"\n({spans.evicted} older spans evicted from the "
                f"ring; the digest covers the newest window)"
            )
        sections.append(("Timeline digest", digest))
    return sections


def _markdown(title: str, sections: Sequence[Section]) -> str:
    parts = [f"# {title}", ""]
    for heading, body in sections:
        parts += [f"## {heading}", "", "```", body, "```", ""]
    return "\n".join(parts)


_HTML_STYLE = (
    "body{font-family:sans-serif;max-width:72em;margin:2em auto;"
    "padding:0 1em;color:#222}"
    "h1{border-bottom:2px solid #222;padding-bottom:.2em}"
    "h2{margin-top:1.6em;color:#444}"
    "pre{background:#f6f6f6;border:1px solid #ddd;border-radius:4px;"
    "padding:.8em;overflow-x:auto;font-size:.9em;line-height:1.35}"
)


def _html(title: str, sections: Sequence[Section]) -> str:
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{html.escape(title)}</h1>",
    ]
    for heading, body in sections:
        parts.append(f"<h2>{html.escape(heading)}</h2>")
        parts.append(f"<pre>{html.escape(body)}</pre>")
    parts.append("</body></html>")
    return "\n".join(parts)


def render_run_report(
    result: ExperimentResult,
    spans: Optional[SpanRecorder] = None,
    fmt: str = "md",
) -> str:
    """Render one run into a self-contained document (``md`` or ``html``)."""
    cfg = result.config
    title = (
        f"repro run report: {cfg.scheme}/{cfg.scheduler} "
        f"{cfg.topology} {cfg.workload} load={cfg.load:g} seed={cfg.seed}"
    )
    sections = _sections(result, spans)
    if fmt == "html":
        return _html(title, sections)
    if fmt != "md":
        raise ValueError(f"unknown report format: {fmt!r}")
    return _markdown(title, sections)
