"""``python -m repro bench``: run the pinned scenarios, emit JSON, gate.

Examples::

    # run everything, write BENCH_*.json into the current directory
    python -m repro bench

    # two scenarios, best-of-3, results under out/
    python -m repro bench -s engine_churn -s incast --repeat 3 --out out/

    # CI gate: fail (exit 1) if any scenario lost >30% events/sec,
    # comparison also written as JSON
    python -m repro bench --compare benchmarks/baselines \\
        --compare-json compare.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, Optional

from repro.obs.spans import SpanRecorder

from repro.bench.runner import (
    DEFAULT_THRESHOLD,
    BenchResult,
    compare_results,
    load_results,
    run_scenario,
    write_result,
)
from repro.bench.scenarios import SCENARIOS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=(
            "Run the pinned hot-path microbenchmarks and write one "
            "BENCH_<scenario>.json per scenario."
        ),
    )
    parser.add_argument(
        "-s",
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario to run (repeatable; default: all)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="repetitions per scenario; the fastest is kept (default 1)",
    )
    parser.add_argument(
        "--mode",
        choices=("packet", "fluid", "hybrid"),
        default=None,
        help=(
            "override every scenario's pinned simulation mode (default: "
            "each scenario's own — packet for all but leafspine_fluid). "
            "Modes do different work, so do not gate (--compare) "
            "against baselines of another mode"
        ),
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "arm the runtime sanitizer for every scenario (freelist "
            "poisoning, event-queue order checks).  Checking costs "
            "wall time, so do not gate (--compare) against "
            "sanitizer-off baselines"
        ),
    )
    parser.add_argument(
        "--out",
        default=".",
        metavar="DIR",
        help="directory for BENCH_*.json files (default: cwd)",
    )
    parser.add_argument(
        "--spans",
        metavar="DIR",
        default=None,
        help=(
            "record the flight recorder during each scenario and write "
            "the kept repetition's timeline there as "
            "SPANS_<scenario>.jsonl + TRACE_<scenario>.json "
            "(Perfetto-loadable).  Recording costs a little wall "
            "time, so do not gate (--compare) against spans-off "
            "baselines"
        ),
    )
    parser.add_argument(
        "--compare",
        metavar="PATH",
        default=None,
        help=(
            "baseline BENCH_*.json file or directory; exit 1 when any "
            "scenario regressed beyond the threshold"
        ),
    )
    parser.add_argument(
        "--compare-json",
        metavar="FILE",
        default=None,
        help=(
            "also write the --compare outcome as JSON (one object per "
            "scenario pair) — CI uploads this as an artifact"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=(
            "fractional events/sec loss that counts as a regression "
            f"(default {DEFAULT_THRESHOLD:g} = fail below "
            f"{100 * (1 - DEFAULT_THRESHOLD):.0f}%% of baseline)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list scenarios and exit",
    )
    return parser


def _geomean(ratios) -> Optional[float]:
    """Geometric mean of per-scenario ev/s ratios (None when empty).

    One cross-scenario number for perf-trajectory eyeballing: the
    geomean weights a 2x on a fast scenario and a 2x on a slow one
    equally, where an arithmetic mean over ev/s would drown the slow
    one.  Never gates — the per-scenario threshold does that.
    """
    if not ratios:
        return None
    log_sum = sum(math.log(r) for r in ratios)
    return math.exp(log_sum / len(ratios))


def _load_baseline(path: str) -> Optional[Dict[str, BenchResult]]:
    """Load the baseline, or print a one-line diagnosis and return None.

    Anything a bad path or malformed file can raise — missing file,
    unreadable JSON, a JSON document of the wrong shape (``TypeError``
    covers e.g. a top-level array), missing keys — must surface as a
    single actionable line, never a traceback.
    """
    try:
        return load_results(path)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        detail = str(exc) or exc.__class__.__name__
        print(
            f"error: cannot load baseline from {path!r}: {detail}",
            file=sys.stderr,
        )
        return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            print(f"{name}: {SCENARIOS[name].description}")
        return 0
    if args.compare_json is not None and args.compare is None:
        print("error: --compare-json requires --compare", file=sys.stderr)
        return 2
    # validate the baseline *before* spending minutes on scenarios
    baseline = None
    if args.compare is not None:
        baseline = _load_baseline(args.compare)
        if baseline is None:
            return 2
    names = args.scenario or sorted(SCENARIOS)
    results = []
    for name in names:
        spans = SpanRecorder(pid="run") if args.spans is not None else None
        try:
            result = run_scenario(
                name,
                repeat=args.repeat,
                spans=spans,
                sanitize=args.sanitize,
                mode=args.mode,
            )
        except ValueError as exc:
            # e.g. --mode on a scenario with nothing to promote
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        results.append(result)
        path = write_result(result, args.out)
        print(f"{result.describe()} -> {path}")
        if spans is not None and len(spans.spans):
            os.makedirs(args.spans, exist_ok=True)
            jsonl = os.path.join(args.spans, f"SPANS_{name}.jsonl")
            trace = os.path.join(args.spans, f"TRACE_{name}.json")
            spans.export_jsonl(jsonl)
            spans.export_chrome(trace)
            print(f"  spans -> {jsonl}, {trace}")
    if baseline is None:
        return 0
    comparisons = compare_results(
        results, baseline, threshold=args.threshold
    )
    print()
    regressed = False
    for comparison in comparisons:
        print(comparison.describe())
        regressed = regressed or comparison.regressed
    ratios = [c.ratio for c in comparisons if c.ratio > 0]
    geomean = _geomean(ratios)
    if geomean is not None:
        n = len(ratios)
        print(
            f"geomean ev/s ratio over {n} scenario{'s' if n != 1 else ''}: "
            f"{geomean:.2f}x"
        )
    missing = [r.scenario for r in results if r.scenario not in baseline]
    if missing:
        print(f"(no baseline for: {', '.join(missing)})")
    if args.compare_json is not None:
        payload = {
            "threshold": args.threshold,
            "regressed": regressed,
            "geomean_ratio": round(geomean, 4) if geomean else None,
            "comparisons": [
                {
                    "scenario": c.scenario,
                    "baseline_eps": c.baseline_eps,
                    "new_eps": c.new_eps,
                    "ratio": round(c.ratio, 4),
                    "regressed": c.regressed,
                    "fingerprint_changed": c.fingerprint_changed,
                }
                for c in comparisons
            ],
            "missing_baselines": missing,
        }
        with open(args.compare_json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"comparison JSON -> {args.compare_json}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
