"""Command-line entry point: run one experiment and print its FCT table,
fan a parameter sweep across worker processes, or summarize a trace.

Examples::

    python -m repro --scheme tcn --scheduler dwrr --load 0.7 --flows 200
    python -m repro --scheme red_std --scheduler sp_wfq --pias --queues 5
    python -m repro --topology leafspine --workload mixed --transport ecnstar

    # record the packet-lifecycle trace of a run, then summarize it
    python -m repro run --scheme tcn --trace out.jsonl --ports
    python -m repro trace out.jsonl

    # convert the packet trace for https://ui.perfetto.dev
    python -m repro trace out.jsonl --format chrome --out trace.json

    # record the harness flight recorder, then inspect / export it
    python -m repro run --topology leafspine --spans spans.jsonl
    python -m repro timeline spans.jsonl --chrome timeline.json

    # one self-contained run report (markdown or HTML)
    python -m repro report --topology leafspine --out report.md

    # cartesian sweep (repeat a flag to add grid points), 4 workers,
    # results cached under benchmarks/.cache/
    python -m repro sweep --scheme tcn --scheme red_std \\
        --load 0.6 --load 0.9 --seed 1 --seed 2 --processes 4

    # hybrid fluid/packet mode: long flows on the fluid solver
    python -m repro run --topology leafspine --workload bulk --mode hybrid

    # cross-validate fluid/hybrid accuracy against the packet engine
    python -m repro fluidcheck --json fluidcheck.json

    # simlint: determinism/hot-path static analysis (`--list-rules`
    # prints the current rule set)
    python -m repro lint --format json

    # re-lint only the files changed against a git base
    python -m repro lint --changed origin/main

    # run with every runtime invariant check armed (freelist poisoning,
    # pop-order); zero overhead when off.  `--sanitize` exists on `run`
    # only; REPRO_SANITIZE=1 arms every Simulator the process builds
    python -m repro run --topology leafspine --sanitize

Performance is measured by the ledger, ``python3 benchmarks/ledger/run.py``
(see benchmarks/ledger/README.md).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import TYPE_CHECKING

# Each sub-command imports its own machinery when it runs, so `lint`,
# `trace` and `timeline` never load the simulator and `run`/`sweep` never
# load the linter.  Only what annotations need is named here.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.config import ExperimentConfig
    from repro.harness.sweep import SweepResult


def build_parser() -> argparse.ArgumentParser:
    from repro.harness.schemes import SCHEDULERS, SCHEMES, TRANSPORTS
    from repro.obs import DEFAULT_CAPACITY, DEFAULT_SPAN_CAPACITY

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run a TCN-reproduction experiment.",
    )
    parser.add_argument("--scheme", default="tcn", choices=sorted(SCHEMES))
    parser.add_argument(
        "--scheduler", default="dwrr", choices=sorted(SCHEDULERS)
    )
    parser.add_argument(
        "--transport", default="dctcp", choices=sorted(TRANSPORTS)
    )
    parser.add_argument(
        "--topology", default="star", choices=("star", "leafspine")
    )
    parser.add_argument("--workload", default="websearch")
    parser.add_argument("--load", type=float, default=0.7)
    parser.add_argument("--flows", type=int, default=200)
    parser.add_argument("--queues", type=int, default=4)
    parser.add_argument("--pias", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--buffer-kb", type=int, default=96, help="per-port buffer (KB)"
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record the event trace and write it as JSONL to PATH",
    )
    parser.add_argument(
        "--trace-limit", type=int, default=DEFAULT_CAPACITY,
        help="trace ring-buffer capacity in events (oldest evicted first)",
    )
    parser.add_argument(
        "--ports", action="store_true",
        help="print the per-port traffic/mark/drop breakdown",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help=(
            "arm the runtime sanitizer: freelist use-after-release / "
            "double-release poisoning, event-queue order checks (see "
            "docs/STATIC_ANALYSIS.md; also REPRO_SANITIZE=1)"
        ),
    )
    parser.add_argument(
        "--mode", default="packet", choices=("packet", "fluid", "hybrid"),
        help=(
            "simulation mode: 'packet' is the exact packet engine "
            "(default); 'fluid' solves every flow as a fluid rate; "
            "'hybrid' promotes flows of at least --fluid-size-bytes to "
            "the fluid solver and keeps short flows packet-exact (see "
            "docs/FLUID.md)"
        ),
    )
    parser.add_argument(
        "--fluid-size-bytes", type=int, default=1_000_000,
        help=(
            "hybrid-mode promotion threshold in bytes: flows at least "
            "this large go fluid (default 1000000)"
        ),
    )
    parser.add_argument(
        "--spans", metavar="PATH", default=None,
        help=(
            "record the harness flight recorder (chunk and fluid-epoch "
            "spans) and write it as JSONL to PATH — feed it to "
            "`repro timeline`"
        ),
    )
    parser.add_argument(
        "--spans-chrome", metavar="PATH", default=None,
        help=(
            "also export the flight recorder as Chrome trace-event JSON "
            "(open at https://ui.perfetto.dev); implies span recording"
        ),
    )
    parser.add_argument(
        "--span-limit", type=int, default=DEFAULT_SPAN_CAPACITY,
        help=(
            "span ring capacity (oldest spans evicted first; default "
            f"{DEFAULT_SPAN_CAPACITY})"
        ),
    )
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Summarize a JSONL event trace (written by `run --trace`): "
            "per-queue mark rates, sojourn percentiles, drop causes — "
            "or convert it to Chrome trace-event JSON for Perfetto."
        ),
    )
    parser.add_argument("path", help="JSONL trace file")
    parser.add_argument(
        "--format", choices=("summary", "chrome"), default="summary",
        help=(
            "'summary' prints the plain-text digest (default); 'chrome' "
            "converts packet sojourns / marks / drops / control-law "
            "series to Chrome trace-event JSON that overlays with "
            "`run --spans-chrome` output in one Perfetto view"
        ),
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="output file for --format chrome (default: <path>.chrome.json)",
    )
    return parser


def build_timeline_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro timeline",
        description=(
            "Inspect a flight-recorder JSONL export (written by "
            "`run --spans` / `sweep --spans`): prints "
            "the per-span-type digest; optionally exports Chrome "
            "trace-event JSON for https://ui.perfetto.dev."
        ),
    )
    parser.add_argument("path", help="span JSONL file")
    parser.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="also write the timeline as Chrome trace-event JSON",
    )
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    parser = build_parser()
    parser.prog = "python -m repro report"
    parser.description = (
        "Run one experiment with the flight recorder on and render a "
        "self-contained run report (config, profile, FCT, hottest "
        "ports, timeline digest)."
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="report output file (default: stdout)",
    )
    parser.add_argument(
        "--format", choices=("md", "html"), default=None,
        help=(
            "report format (default: inferred from --out extension, "
            "falling back to markdown)"
        ),
    )
    parser.add_argument(
        "--top-ports", type=int, default=8,
        help="rows in the hottest-ports table (default 8)",
    )
    return parser


def build_sweep_parser() -> argparse.ArgumentParser:
    from repro.harness.schemes import SCHEDULERS, SCHEMES, TRANSPORTS

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description=(
            "Run a cartesian grid of experiments across worker processes "
            "with on-disk result caching.  Repeat --scheme/--scheduler/"
            "--transport/--workload/--load/--seed to add grid points."
        ),
    )
    parser.add_argument("--scheme", action="append", choices=sorted(SCHEMES))
    parser.add_argument(
        "--scheduler", action="append", choices=sorted(SCHEDULERS)
    )
    parser.add_argument(
        "--transport", action="append", choices=sorted(TRANSPORTS)
    )
    parser.add_argument("--workload", action="append")
    parser.add_argument("--load", type=float, action="append")
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument(
        "--topology", default="star", choices=("star", "leafspine")
    )
    parser.add_argument("--flows", type=int, default=200)
    parser.add_argument("--queues", type=int, default=4)
    parser.add_argument("--pias", action="store_true")
    parser.add_argument(
        "--buffer-kb", type=int, default=96, help="per-port buffer (KB)"
    )
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
        "--mode", default="packet", choices=("packet", "fluid", "hybrid"),
        help=(
            "simulation mode for every grid point (result-affecting: "
            "cached results are keyed by it; see docs/FLUID.md)"
        ),
    )
    parser.add_argument(
        "--fluid-size-bytes", type=int, default=1_000_000,
        help=(
            "hybrid-mode promotion threshold in bytes (default 1000000)"
        ),
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


def build_fluidcheck_parser() -> argparse.ArgumentParser:
    from repro.harness.fluidcheck import CHECK_CONFIGS

    parser = argparse.ArgumentParser(
        prog="python -m repro fluidcheck",
        description=(
            "Cross-validate fluid/hybrid FCT and goodput against the "
            "packet engine on the pinned configs (see docs/FLUID.md); "
            "exit 1 on any tolerance violation."
        ),
    )
    parser.add_argument(
        "--config",
        action="append",
        choices=sorted(CHECK_CONFIGS),
        help="pinned config to check (repeatable; default: all)",
    )
    parser.add_argument(
        "--mode",
        action="append",
        choices=("hybrid", "fluid"),
        help="mode to cross-validate (repeatable; default: both)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the checks as a JSON artifact (CI uploads it)",
    )
    return parser


def fluidcheck_main(argv=None) -> int:
    from repro.harness.fluidcheck import run_fluidcheck, write_json

    args = build_fluidcheck_parser().parse_args(argv)
    checks = run_fluidcheck(
        configs=args.config, modes=tuple(args.mode or ("hybrid", "fluid"))
    )
    violations = 0
    for check in checks:
        print(check.describe())
        violations += 0 if check.ok else 1
    if args.json is not None:
        write_json(checks, args.json)
        print(f"fluidcheck JSON -> {args.json}")
    if violations:
        print(f"{violations} tolerance violation(s)", file=sys.stderr)
        return 1
    return 0


def _sweep_label(result: SweepResult) -> str:
    cfg = result.config
    return f"{cfg.scheme}/{cfg.scheduler} load={cfg.load:g} seed={cfg.seed}"


def sweep_main(argv=None) -> int:
    from repro.harness.config import ExperimentConfig
    from repro.harness.report import format_fct_rows
    from repro.harness.sweep import ResultCache, run_sweep
    from repro.obs import SpanRecorder
    from repro.units import KB

    args = build_sweep_parser().parse_args(argv)
    grid = itertools.product(
        args.scheme or ["tcn"],
        args.scheduler or ["dwrr"],
        args.transport or ["dctcp"],
        args.workload or ["websearch"],
        args.load or [0.7],
        args.seed or [1],
    )
    configs = [
        ExperimentConfig(
            scheme=scheme,
            scheduler=scheduler,
            transport=transport,
            workload=workload,
            load=load,
            seed=seed,
            topology=args.topology,
            n_flows=args.flows,
            n_queues=args.queues,
            pias=args.pias,
            buffer_bytes=args.buffer_kb * KB,
            mode=args.mode,
            fluid_size_bytes=args.fluid_size_bytes,
        )
        for scheme, scheduler, transport, workload, load, seed in grid
    ]
    try:
        for cfg in configs:
            cfg.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    # live tallies across progress callbacks: aggregate simulation
    # throughput of the runs that actually ran, and the cache-hit ratio
    live = {"events": 0, "wall": 0.0, "hits": 0}

    def progress(done: int, total: int, result: SweepResult) -> None:
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
    outcome = run_sweep(
        configs,
        processes=args.processes,
        timeout_s=args.timeout,
        cache=cache,
        progress=progress,
        spans=spans,
    )
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
    if stats.serial_fallback:
        print(
            "note: no usable multiprocessing start method on this "
            "platform; the sweep ran serially"
        )
    return 0 if outcome.ok else 1


def _file_error(path: str, exc: Exception) -> int:
    """Report an unreadable input or unwritable output; exit code 2.

    ``OSError`` messages already name their file; a JSON decode error
    (a ``ValueError``) does not, so it is prefixed with the input path.
    """
    detail = exc if isinstance(exc, OSError) else f"{path}: malformed JSONL: {exc}"
    print(f"error: {detail}", file=sys.stderr)
    return 2


def trace_main(argv=None) -> int:
    from repro.obs import (
        format_trace_summary,
        load_spans_jsonl,
        summarize_trace_file,
        trace_events_to_chrome,
    )
    from repro.obs.spans import write_chrome_doc

    args = build_trace_parser().parse_args(argv)
    try:
        if args.format == "chrome":
            out = args.out or args.path + ".chrome.json"
            events = load_spans_jsonl(args.path)  # generic JSONL reader
            n = write_chrome_doc(trace_events_to_chrome(events), out)
            print(
                f"wrote {n} Chrome trace events to {out} "
                f"(open at https://ui.perfetto.dev)"
            )
        else:
            print(format_trace_summary(summarize_trace_file(args.path)))
    except (OSError, ValueError) as exc:
        return _file_error(args.path, exc)
    return 0


def timeline_main(argv=None) -> int:
    from repro.obs import format_span_summary, load_spans_jsonl, write_chrome

    args = build_timeline_parser().parse_args(argv)
    try:
        spans = load_spans_jsonl(args.path)
        print(format_span_summary(spans))
        if args.chrome is not None:
            n = write_chrome(spans, args.chrome)
            print(
                f"\nwrote {n} timeline slices to {args.chrome} "
                f"(open at https://ui.perfetto.dev)"
            )
    except (OSError, ValueError) as exc:
        return _file_error(args.path, exc)
    return 0


def report_main(argv=None) -> int:
    from repro.harness.runner import run_experiment
    from repro.harness.report import render_run_report
    from repro.obs import SpanRecorder, Tracer

    args = build_report_parser().parse_args(argv)
    fmt = args.format
    if fmt is None:
        fmt = (
            "html"
            if args.out is not None
            and args.out.lower().endswith((".html", ".htm"))
            else "md"
        )
    cfg = _config_from_args(args)
    spans = SpanRecorder(capacity=args.span_limit, pid="run")
    tracer = Tracer(capacity=args.trace_limit) if args.trace else None
    result = run_experiment(cfg, tracer=tracer, spans=spans)
    if tracer is not None:
        tracer.export_jsonl(args.trace)
    if args.spans is not None:
        spans.export_jsonl(args.spans)
    if args.spans_chrome is not None:
        spans.export_chrome(args.spans_chrome)
    document = render_run_report(
        result, spans=spans, top_ports=args.top_ports, fmt=fmt
    )
    if args.out is None:
        print(document)
    else:
        with open(args.out, "w") as fh:
            fh.write(document)
            if not document.endswith("\n"):
                fh.write("\n")
        print(f"wrote {fmt} run report to {args.out}")
    return 0 if result.all_completed else 1


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    from repro.harness.config import ExperimentConfig
    from repro.units import KB

    return ExperimentConfig(
        scheme=args.scheme,
        scheduler=args.scheduler,
        transport=args.transport,
        topology=args.topology,
        workload=args.workload,
        load=args.load,
        n_flows=args.flows,
        n_queues=args.queues,
        pias=args.pias,
        seed=args.seed,
        buffer_bytes=args.buffer_kb * KB,
        sanitize=args.sanitize,
        mode=args.mode,
        fluid_size_bytes=args.fluid_size_bytes,
    )


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "timeline":
        return timeline_main(argv[1:])
    if argv and argv[0] == "report":
        return report_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "fluidcheck":
        return fluidcheck_main(argv[1:])
    if argv and argv[0] == "run":
        # explicit subcommand form; bare flags still mean "run" for
        # backward compatibility
        argv = argv[1:]
    from repro.harness.report import format_fct_rows, format_port_breakdown
    from repro.harness.runner import run_experiment
    from repro.obs import (
        RunProfile,
        SpanRecorder,
        Tracer,
        format_trace_summary,
        summarize_events,
    )

    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    tracer = Tracer(capacity=args.trace_limit) if args.trace else None
    spans = (
        SpanRecorder(capacity=args.span_limit, pid="run")
        if (args.spans or args.spans_chrome)
        else None
    )
    result = run_experiment(cfg, tracer=tracer, spans=spans)
    print(format_fct_rows({args.scheme: result}))
    print(
        f"\ncompleted {result.completed}/{result.total} flows in "
        f"{result.sim_ns / 1e9:.2f} simulated seconds "
        f"({result.wall_s:.1f}s wall); "
        f"{result.timeouts} timeouts, {result.drops} drops, "
        f"{result.marks} ECN marks"
    )
    print("profile: " + RunProfile.from_dict(result.profile).describe())
    if args.ports:
        print()
        print(format_port_breakdown(result.metrics))
    if tracer is not None:
        n = tracer.export_jsonl(args.trace)
        evicted = (
            f" ({tracer.dropped_events} evicted from the ring)"
            if tracer.dropped_events
            else ""
        )
        print(f"\nwrote {n} trace events to {args.trace}{evicted}")
        print()
        print(format_trace_summary(summarize_events(tracer.iter_dicts())))
    if spans is not None:
        evicted = (
            f" ({spans.dropped_spans} older spans evicted)"
            if spans.dropped_spans
            else ""
        )
        if args.spans:
            n = spans.export_jsonl(args.spans)
            print(f"\nwrote {n} spans to {args.spans}{evicted}")
        if args.spans_chrome:
            n = spans.export_chrome(args.spans_chrome)
            print(
                f"\nwrote {n} timeline slices to {args.spans_chrome} "
                f"(open at https://ui.perfetto.dev){evicted}"
            )
    return 0 if result.all_completed else 1


if __name__ == "__main__":
    sys.exit(main())
