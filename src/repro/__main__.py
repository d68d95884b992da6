"""Command-line entry point: run one experiment and print its FCT table,
fan a parameter sweep across worker processes, or digest a trace.

Examples::

    python -m repro --scheme tcn --scheduler dwrr --load 0.7 --flows 200
    python -m repro --scheme red_std --scheduler sp_wfq --pias --queues 5
    python -m repro --topology leafspine --workload mixed --transport ecnstar

    # record the packet-lifecycle trace of a run, then summarize it
    python -m repro run --scheme tcn --trace out.jsonl --ports
    python -m repro trace out.jsonl

    # record the harness flight recorder and a self-contained run report
    # (HTML for .html/.htm, markdown otherwise), then digest the spans
    # and convert them for https://ui.perfetto.dev (`trace` reads packet
    # traces and span files alike)
    python -m repro run --topology leafspine --spans spans.jsonl \
        --report report.html
    python -m repro trace spans.jsonl --chrome timeline.json

    # cartesian sweep (repeat a flag to add grid points), 4 workers,
    # results cached under benchmarks/.cache/
    python -m repro sweep --scheme tcn --scheme red_std \\
        --load 0.6 --load 0.9 --seed 1 --seed 2 --processes 4

    # hybrid fluid/packet mode: long flows on the fluid solver
    python -m repro run --topology leafspine --workload bulk --mode hybrid

    # run with every runtime invariant check armed (freelist poisoning,
    # pop-order); zero overhead when off.  REPRO_SANITIZE=1 arms every
    # Simulator the process builds, and is the sanitizer's only switch
    REPRO_SANITIZE=1 python -m repro run --topology leafspine

Performance is measured by the ledger, ``python3 benchmarks/ledger/run.py``
(see benchmarks/ledger/README.md).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

# Each sub-command imports its own machinery when it runs, so `trace`
# never loads the simulator.  Only what annotations need is named here.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.config import ExperimentConfig, ExperimentResult


def _kb(text: str) -> int:
    from repro.units import KB

    return int(text) * KB


#: The config flags ``run`` and ``sweep`` share, once: (flag, the
#: ExperimentConfig field it sets, type, default, help).  A string default
#: goes through the type like a typed value; a field with a registry takes
#: its choices from it.
CONFIG_FLAGS: Tuple[
    Tuple[str, str, Callable[[str], Any], Any, Optional[str]], ...
] = (
    ("--scheme", "scheme", str, "tcn", None),
    ("--scheduler", "scheduler", str, "dwrr", None),
    ("--transport", "transport", str, "dctcp", None),
    ("--topology", "topology", str, "star", None),
    ("--workload", "workload", str, "websearch", None),
    ("--load", "load", float, "0.7", None),
    ("--flows", "n_flows", int, "200", None),
    ("--queues", "n_queues", int, "4", None),
    ("--pias", "pias", bool, False, None),
    ("--seed", "seed", int, "1", None),
    ("--buffer-kb", "buffer_bytes", _kb, "96", "per-port buffer (KB)"),
    ("--mode", "mode", str, "packet", (
        "simulation mode: 'packet' is the exact packet engine (default); "
        "'hybrid' promotes flows of at least --fluid-size-bytes to the "
        "fluid solver and keeps short flows packet-exact (see docs/FLUID.md)"
    )),
    ("--fluid-size-bytes", "fluid_size_bytes", int, "1000000", (
        "hybrid-mode promotion threshold in bytes: flows at least this "
        "large go fluid (default 1000000)"
    )),
)

#: the fields ``sweep`` takes repeatedly, each repetition a grid point
GRID_FIELDS = ("scheme", "scheduler", "transport", "workload", "load", "seed")


def _add_config_flags(parser: argparse.ArgumentParser, grid: bool) -> None:
    """Declare :data:`CONFIG_FLAGS`; with ``grid`` the grid fields repeat
    (and default to None, the table's default filling in later)."""
    from repro.harness.schemes import REGISTRIES

    for flag, field, kind, default, help_text in CONFIG_FLAGS:
        if kind is bool:
            parser.add_argument(flag, action="store_true")
            continue
        repeat = grid and field in GRID_FIELDS
        parser.add_argument(
            flag, type=kind, help=help_text,
            action="append" if repeat else "store",
            default=None if repeat else default,
            choices=sorted(REGISTRIES[field]) if field in REGISTRIES else None,
        )


def _configs(args: argparse.Namespace, grid: bool) -> List[ExperimentConfig]:
    """The cartesian product of the parsed config flags: one config for
    ``run``, a grid point per combination of repeated values for
    ``sweep``."""
    from repro.harness.config import ExperimentConfig

    axes: Dict[str, List[Any]] = {}
    for flag, field, kind, default, _ in CONFIG_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if not (grid and field in GRID_FIELDS):
            value = [value]
        elif value is None:
            value = [kind(default)]
        axes[field] = value
    return [
        ExperimentConfig(**dict(zip(axes, point)))
        for point in itertools.product(*axes.values())
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a TCN-reproduction experiment.",
    )
    _add_config_flags(parser, grid=False)
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record the event trace and write it as JSONL to PATH",
    )
    parser.add_argument(
        "--ports", action="store_true",
        help="print the per-port traffic/mark/drop breakdown",
    )
    parser.add_argument(
        "--spans", metavar="PATH", default=None,
        help=(
            "record the harness flight recorder (chunk and fluid-epoch "
            "spans) and write it as JSONL to PATH — feed it to "
            "`repro trace`"
        ),
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help=(
            "write a self-contained run report (config, profile, FCT, "
            "hottest ports, timeline digest) to PATH: HTML if it ends "
            "in .html/.htm, markdown otherwise; implies span recording"
        ),
    )
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Digest a JSONL file written by `run --trace` (per-queue mark "
            "rates, sojourn percentiles, drop causes) or by `--spans` "
            "(per-span-type counts and durations); the record kind is "
            "detected from the file."
        ),
    )
    parser.add_argument("path", help="event trace or span JSONL file")
    parser.add_argument(
        "--chrome", metavar="OUT", default=None,
        help=(
            "also convert the file to Chrome trace-event JSON for "
            "https://ui.perfetto.dev"
        ),
    )
    return parser


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description=(
            "Run a cartesian grid of experiments across worker processes "
            "with on-disk result caching.  Repeat --scheme/--scheduler/"
            "--transport/--workload/--load/--seed to add grid points."
        ),
    )
    _add_config_flags(parser, grid=True)
    parser.add_argument(
        "--processes", type=int, default=None,
        help="worker processes (default: one per CPU; 0 = serial)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-config wall-clock budget in seconds",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: benchmarks/.cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    parser.add_argument(
        "--spans", metavar="PATH", default=None,
        help=(
            "record the sweep pool's job-lifecycle spans (dispatch -> "
            "completion, cache hits, worker identity, crash/timeout "
            "status) and write them as JSONL to PATH"
        ),
    )
    return parser


def _sweep_label(result: ExperimentResult) -> str:
    cfg = result.config
    return f"{cfg.scheme}/{cfg.scheduler} load={cfg.load:g} seed={cfg.seed}"


def sweep_main(argv=None) -> int:
    from repro.harness.report import format_fct_rows
    from repro.harness.sweep import ResultCache, run_sweep
    from repro.obs.spans import SpanRecorder

    args = build_sweep_parser().parse_args(argv)
    configs = _configs(args, grid=True)
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    # live tallies across progress callbacks: aggregate simulation
    # throughput of the runs that actually ran, and the cache-hit ratio
    live = {"events": 0, "wall": 0.0, "hits": 0}

    def progress(done: int, total: int, result: ExperimentResult) -> None:
        if result.error is not None:
            status = f"ERROR ({result.error.kind})"
        elif result.from_cache:
            live["hits"] += 1
            status = "cached"
        else:
            live["events"] += result.events
            live["wall"] += result.wall_s
            status = (
                f"ran {result.wall_s:.1f}s wall, "
                f"{result.sim_ns / 1e9:.2f}s sim, {result.events} events"
            )
        rate = (
            f"{live['events'] / live['wall'] / 1e3:.0f}k ev/s"
            if live["wall"] > 0
            else "- ev/s"
        )
        print(
            f"[{done}/{total}] {_sweep_label(result)}: {status} "
            f"| {rate}, {live['hits']}/{done} cached"
        )

    spans = SpanRecorder(pid="sweep") if args.spans else None
    try:  # a config the build refuses raises before any job starts
        outcome = run_sweep(
            configs,
            processes=args.processes,
            timeout_s=args.timeout,
            cache=cache,
            progress=progress,
            spans=spans,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if spans is not None:
        n = spans.export_jsonl(args.spans)
        print(f"wrote {n} sweep spans to {args.spans}")
    rows = {_sweep_label(r): r for r in outcome if r.ok}
    if rows:
        print()
        print(format_fct_rows(rows))
    for result in outcome.errors():
        print(f"\nFAILED {_sweep_label(result)}: {result.error.message}")
        if result.error.traceback:
            print(result.error.traceback)
    stats = outcome.stats
    rate = (
        f"; {stats.events_per_sec / 1e3:.0f}k sim events/s"
        if stats.sim_events
        else ""
    )
    print(
        f"\n{stats.total} configs in {stats.wall_s:.1f}s: "
        f"{stats.cache_hits} cache hits, {stats.cache_misses} misses, "
        f"{stats.errors} errors{rate}"
    )
    return 0 if outcome.ok else 1


def trace_main(argv=None) -> int:
    from repro.obs.records import (
        chrome_trace,
        trace_events_to_chrome,
        write_chrome,
    )
    from repro.obs.summary import (
        format_span_summary,
        format_trace_summary,
        read_records,
        summarize_events,
    )

    args = build_trace_parser().parse_args(argv)
    # OSError messages name their file; read_records prefixes <path>:<line>
    try:
        kind, records = read_records(args.path)
        if kind == "event":
            print(format_trace_summary(summarize_events(records)))
        else:
            print(format_span_summary(records))
        if args.chrome is not None:
            doc = (trace_events_to_chrome if kind == "event" else chrome_trace)(
                records
            )
            n = write_chrome(doc, args.chrome)
            print(
                f"\nwrote {n} Chrome trace events to {args.chrome} "
                f"(open at https://ui.perfetto.dev)"
            )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


SUBCOMMANDS = {
    "sweep": sweep_main,
    "trace": trace_main,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The run form takes no positionals, so a leading word is a command:
    # bare flags mean "run", and an unknown word must not fall through to
    # the run parser (which would print its help for `<word> --help`).
    if argv and not argv[0].startswith("-"):
        command, argv = argv[0], argv[1:]
        if command in SUBCOMMANDS:
            return SUBCOMMANDS[command](argv)
        if command != "run":
            print(
                f"python -m repro: error: unknown command {command!r} "
                f"(choose from run, {', '.join(SUBCOMMANDS)})",
                file=sys.stderr,
            )
            return 2
    from repro.harness.report import (
        format_fct_rows,
        format_port_breakdown,
        render_run_report,
    )
    from repro.harness.runner import preflight, run_experiment
    from repro.obs.profile import RunProfile
    from repro.obs.spans import SpanRecorder
    from repro.obs.summary import format_trace_summary, summarize_events
    from repro.obs.trace import Tracer

    args = build_parser().parse_args(argv)
    (cfg,) = _configs(args, grid=False)
    try:
        preflight(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    spans = SpanRecorder() if (args.spans or args.report) else None
    result = run_experiment(cfg, tracer=tracer, spans=spans)
    print(format_fct_rows({args.scheme: result}))
    print(
        f"\ncompleted {result.completed}/{result.total} flows in "
        f"{result.sim_ns / 1e9:.2f} simulated seconds "
        f"({result.wall_s:.1f}s wall); "
        f"{result.timeouts} timeouts, {result.drops} drops, "
        f"{result.marks} ECN marks"
    )
    print("profile: " + RunProfile(**result.profile).describe())
    if args.ports:
        print()
        print(format_port_breakdown(result.metrics))
    if tracer is not None:
        n = tracer.export_jsonl(args.trace)
        evicted = (
            f" ({tracer.evicted} evicted from the ring)"
            if tracer.evicted
            else ""
        )
        print(f"\nwrote {n} trace events to {args.trace}{evicted}")
        print()
        print(format_trace_summary(summarize_events(tracer.iter_dicts())))
    if spans is not None and args.spans:
        evicted = (
            f" ({spans.evicted} older spans evicted)" if spans.evicted else ""
        )
        n = spans.export_jsonl(args.spans)
        print(f"\nwrote {n} spans to {args.spans}{evicted}")
    if args.report is not None:
        fmt = "html" if args.report.lower().endswith((".html", ".htm")) else "md"
        document = render_run_report(result, spans=spans, fmt=fmt)
        with open(args.report, "w") as fh:
            fh.write(document)
            if not document.endswith("\n"):
                fh.write("\n")
        print(f"\nwrote {fmt} run report to {args.report}")
    return 0 if result.all_completed else 1


if __name__ == "__main__":
    sys.exit(main())
