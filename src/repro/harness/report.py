"""Plain-text tables: the benches print paper-vs-measured rows with these."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - the tables never build a simulator
    from repro.harness.runner import ExperimentResult


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


def format_port_breakdown(metrics: Dict[str, dict]) -> str:
    """Per-port traffic/mark/drop table from a run's metrics snapshot.

    Reads the ``port.<name>.<field>`` counters that
    ``run_experiment`` registers (per-queue ``port.<name>.q<i>.*`` keys
    are skipped here — the ``trace`` subcommand breaks queues out).
    Ports with no traffic at all are omitted.
    """
    ports: Dict[str, Dict[str, int]] = {}
    for key, snap in metrics.items():
        if not key.startswith("port."):
            continue
        # port names contain no dots, so: port-level keys split into
        # (name, field); per-queue keys into (name, q<i>, field).
        parts = key[len("port."):].split(".")
        if len(parts) != 2:
            continue
        name, fld = parts
        if isinstance(snap, dict):  # histogram snapshots don't tabulate
            continue
        ports.setdefault(name, {})[fld] = snap
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


def format_stall_table(phase_stats: Dict[str, object]) -> str:
    """Render a ``stall_table`` dict (see :mod:`repro.obs.spans`).

    One row per round phase with its share of the total recorded phase
    time, then the critical-path partition tally — the partitions the
    barrier actually waited for.  Durations come from the flight
    recorder's window of the run (``rounds`` counts every round; the
    phase rows cover the retained window).
    """
    phases = phase_stats.get("phases") or {}
    if not phases:
        return "(no round-phase spans recorded)"
    grand_total = sum(p["total_ns"] for p in phases.values())  # type: ignore[index]
    headers = ["phase", "count", "total", "share", "p50", "p95", "max"]
    rows: List[List[str]] = []
    for phase in ("compute", "serialize", "ipc_wait", "merge"):
        stats = phases.get(phase)
        if stats is None:
            continue
        share = (
            f"{100.0 * stats['total_ns'] / grand_total:.1f}%"
            if grand_total
            else "-"
        )
        rows.append([
            phase,
            str(stats["count"]),
            f"{stats['total_ns'] / 1e6:.2f}ms",
            share,
            _us(stats["p50_ns"]),
            _us(stats["p95_ns"]),
            _us(stats["max_ns"]),
        ])
    lines = [
        f"{phase_stats.get('rounds', 0)} barrier rounds",
        format_table(headers, rows),
    ]
    critical = phase_stats.get("critical_partition") or {}
    if critical:
        tally = ", ".join(
            f"{pid} x{count}" for pid, count in critical.items()
        )
        lines.append(f"critical-path partition (slowest compute): {tally}")
    return "\n".join(lines)


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
