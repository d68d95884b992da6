#!/usr/bin/env python3
"""The layered performance ledger.

Two ways in:

* ``python3 benchmarks/ledger/run.py [--seed N] [--out DIR]`` runs all four
  workloads, prints every end-to-end metric with its unit, median,
  quartiles and n, checks the outputs, then makes the traced pass and
  prints the per-layer table.  Exit status is non-zero if any check fails.
* ``... run.py --workload W --seed N --seconds S --trace 0|1`` is the
  driver protocol of ``BENCHMARK.json``: one workload, one JSON object on
  the last line of stdout (end-to-end metrics untraced, per-layer metrics
  traced).

Every cell runs in a fresh child interpreter (``run.py --child``), one at a
time.  See README.md for the protocol and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
MANIFEST_PATH = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: a cell takes 2-4 s (x3.2 under cProfile); anything this slow is a hang
CHILD_TIMEOUT_S = 120
#: cells of the default seed that reference.json pins
REFERENCE_CELLS = 12

E2E_UNITS = {
    "cpu_us_per_work": "us",
    "rss_peak_mb": "MB",
    "setup_s": "s",
}
#: Printed and kept in results.json, but not a bounded metric: on a shared
#: host wall time measures the neighbours (README, "Noise").
UNGATED_UNITS = {"wall_us_per_work": "us"}
COUNTER_UNITS = {
    "sim.engine.events": "count",
    "sim.engine.us_per_event": "us",
    "sim.engine.events_per_tx_pkt": "ratio",
    "sim.engine.train_accept_ratio": "ratio",
    "sim.engine.run_singleton_share": "share",
    "sim.equeue.heap_hwm": "count",
    "net.port.tx_pkts": "count",
    "net.port.drops": "count",
    "net.port.marks": "count",
    "net.packet.alloc_per_kpkt": "1/kpkt",
    "transport.timeouts": "count",
    "sim.fluid.epochs": "count",
    "sim.fluid.solver_iters_per_epoch": "ratio",
    "sim.fluid.us_per_epoch": "us",
    "harness.runner.build_s": "s",
    "harness.import_s": "s",
    "harness.sweep.parallel_eff": "ratio",
    "harness.sweep.job_wait_p50_s": "s",
    "harness.sweep.code_version_ms": "ms",
    "harness.sweep.warm_ms": "ms",
    "obs.trace_on_ratio": "ratio",
    "py_calls_per_event": "calls/event",
    "trace.overhead_ratio": "ratio",
    "fct_err_pct": "%",
}
LAYER_UNITS = {"self_s": "s", "self_share": "share",
               "calls_per_event": "calls/event"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {
        f"{layer}.{field}": unit
        for layer in layers.LAYERS + (layers.OTHER,)
        for field, unit in LAYER_UNITS.items()
    }
    units.update(COUNTER_UNITS)
    return units


# -- children --------------------------------------------------------------

Spawn = Callable[..., Dict[str, Any]]


def child_command(
    workload: str, seed: int, rep: int, size: str, flags: Sequence[str]
) -> List[str]:
    return [
        sys.executable, os.path.join(HERE, "run.py"), "--child", workload,
        "--seed", str(seed), "--rep", str(rep), "--size", size, *flags,
    ]


def spawn_child(
    workload: str, seed: int, rep: int, size: str,
    flags: Sequence[str] = (), command: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Run one cell in a fresh interpreter; a failure is a record, not a raise."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = command or child_command(workload, seed, rep, size, flags)
    # its own session, so a hung child is stopped together with the sweep
    # workers it may have started
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no record"}


# -- checking ----------------------------------------------------------------


def load_reference() -> Dict[str, Any]:
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def reference_cell(
    reference: Dict[str, Any], workload: str, size: str, cell_seed: int
) -> Optional[Dict[str, Any]]:
    if size != "full":
        return None
    return reference.get(workload, {}).get("cells", {}).get(str(cell_seed))


def facts_deviation_pct(facts: Dict[str, Any], pins: Dict[str, Any]) -> float:
    """0.0 when bit-identical; else the worst relative FCT deviation, in %.

    Facts that differ without moving an FCT statistic (or that carry none,
    as timer_churn's do) read as 100.
    """
    if facts == pins:
        return 0.0
    ours, theirs = facts.get("fct"), pins.get("fct")
    if not ours or not theirs or len(ours) != len(theirs):
        return 100.0
    devs = [
        abs(a[key] - b[key]) / b[key]
        for a, b in zip(ours, theirs) for key in b
        if a.get(key) is not None and b[key]
    ]
    return 100.0 * max(devs) if devs and max(devs) > 0 else 100.0


def check_records(
    workload: str, size: str, records: Sequence[Dict[str, Any]],
    same_cell: Sequence[Sequence[int]], reference: Dict[str, Any],
) -> Dict[str, Any]:
    """Completion, cross-interpreter determinism and the reference pins.

    ``same_cell`` lists groups of indices into ``records`` that ran the same
    cell and so must agree exactly.  Returns the problems found, the indices
    of records whose operations all count as failed, and ``fct_err_pct``.
    """
    problems: List[str] = []
    spoiled = set()
    fct_err = 0.0
    for i, rec in enumerate(records):
        if "error" in rec:
            problems.append(f"{workload} record {i}: {rec['error']}")
            spoiled.add(i)
        elif not rec["ok"]:
            problems.append(
                f"{workload} cell {rec['cell_seed']}: "
                f"{rec['failed']}/{rec['attempted']} operations failed")
    for group in same_cell:
        good = [i for i in group if "error" not in records[i]]
        for i in good[1:]:
            first, other = records[good[0]], records[i]
            if other["facts"] != first["facts"]:
                problems.append(
                    f"{workload} cell {first['cell_seed']} is not "
                    f"deterministic across interpreters: digest "
                    f"{first['facts']['digest']} vs {other['facts']['digest']}")
                spoiled.update((good[0], i))
                fct_err = 100.0
    for i, rec in enumerate(records):
        if "error" in rec:
            continue
        pins = reference_cell(reference, workload, size, rec["cell_seed"])
        if pins is None:
            continue
        dev = facts_deviation_pct(rec["facts"], pins)
        if dev:
            problems.append(
                f"{workload} cell {rec['cell_seed']} differs from "
                f"reference.json ({dev:.3f}% FCT deviation): digest "
                f"{rec['facts']['digest']} vs pinned {pins['digest']}; "
                f"events {rec['facts']['events']} vs {pins['events']}")
            spoiled.add(i)
            fct_err = max(fct_err, dev)
    return {"problems": problems, "spoiled": spoiled, "fct_err_pct": fct_err}


def summarise(values: Sequence[float]) -> Dict[str, Any]:
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


# -- the two passes ----------------------------------------------------------


def measure(
    workload: str, seed: int, seconds: float, size: str,
    spawn: Spawn = spawn_child,
) -> Dict[str, Any]:
    """The untraced pass: a discarded warm-up, then cells for ``seconds``."""
    reference = load_reference()
    warmup = spawn(workload, seed, 0, size)
    reps: List[Dict[str, Any]] = []
    started = time.monotonic()
    while (len(reps) < wl.SIZES[size]["min_reps"]
           or time.monotonic() - started < seconds):
        reps.append(spawn(workload, seed, len(reps), size))

    # the warm-up ran cell 0 too: two interpreters, one input
    verdict = check_records(
        workload, size, [warmup] + reps, [(0, 1)], reference)
    ops = wl.ops_per_cell(workload, size)
    attempted = failed = 0
    for i, rec in enumerate(reps, start=1):
        attempted += ops
        failed += ops if i in verdict["spoiled"] else rec["failed"]

    good = [r for r in reps if "error" not in r and r["work"]]
    end_to_end = ungated = {}
    if good:
        per_rep = {
            "wall_us_per_work": [1e6 * r["wall_s"] / r["work"] for r in good],
            "cpu_us_per_work": [1e6 * r["cpu_s"] / r["work"] for r in good],
            "rss_peak_mb": [r["rss_peak_mb"] for r in good],
            "setup_s": [r["setup_s"] for r in good],
        }
        end_to_end, ungated = (
            {name: dict(summarise(per_rep[name]), unit=unit)
             for name, unit in units.items()}
            for units in (E2E_UNITS, UNGATED_UNITS)
        )
    return {
        "workload": workload,
        "correct": not verdict["problems"],
        "problems": verdict["problems"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "fct_err_pct": verdict["fct_err_pct"],
        "end_to_end": end_to_end,
        "ungated": ungated,
        "cells": [
            {k: r[k] for k in ("cell_seed", "wall_s", "cpu_s", "work", "facts")}
            for r in good
        ],
        "spans": [s for r in [warmup] + reps for s in r.get("spans", ())],
    }


def trace(
    workload: str, seed: int, size: str, spawn: Spawn = spawn_child
) -> Dict[str, Any]:
    """The traced pass over cell 0: counters untraced, layers under cProfile."""
    reference = load_reference()
    records = [
        spawn(workload, seed, 0, size, ("--extras",)),
        spawn(workload, seed, 0, size, ("--profile",)),
    ]
    if workload == "fabric_mixed":
        records.append(spawn(workload, seed, 0, size, ("--tracer",)))
    # observation must not move the simulation: all of these ran cell 0
    verdict = check_records(
        workload, size, records, [tuple(range(len(records)))], reference)
    problems = verdict["problems"]
    fct_err = verdict["fct_err_pct"]
    ops = wl.ops_per_cell(workload, size)
    attempted = ops * len(records)
    failed = sum(
        ops if i in verdict["spoiled"] else rec["failed"]
        for i, rec in enumerate(records))

    values: Dict[str, Optional[float]] = dict.fromkeys(per_layer_units())
    plain, profiled = records[0], records[1]
    if "error" not in plain:
        events = plain["facts"]["events"]
        values.update(plain["counters"])
        values["sim.engine.events"] = events
        values["sim.engine.us_per_event"] = 1e6 * plain["wall_s"] / events
        values["harness.import_s"] = plain["import_s"]
        if len(records) > 2 and "error" not in records[2]:
            values["obs.trace_on_ratio"] = (
                records[2]["wall_s"] / plain["wall_s"])
        if "fct_err_pct" in plain:  # the hybrid accuracy probe
            fct_err = max(fct_err, plain["fct_err_pct"])
            pin = reference.get(workload, {}).get("fct_err_pct")
            slack = wl.FCT_ERR_SLACK_PCT[workload]
            if size == "full" and pin is not None and (
                    plain["fct_err_pct"] > pin + slack):
                problems.append(
                    f"{workload}: hybrid-vs-packet FCT error "
                    f"{plain['fct_err_pct']:.2f}% exceeds the pinned "
                    f"{pin:.2f}% by more than {slack} points")
    if "error" not in profiled:
        events = profiled["facts"]["events"]
        folded = profiled["layers"]
        total_self = sum(row["self_s"] for row in folded.values())
        for layer, row in folded.items():
            values[f"{layer}.self_s"] = row["self_s"]
            values[f"{layer}.self_share"] = row["self_s"] / total_self
            values[f"{layer}.calls_per_event"] = row["calls"] / events
        values["py_calls_per_event"] = (
            sum(row["calls"] for row in folded.values()) / events)
        if "error" not in plain:
            # cpu, not wall: the traced sweep is serial, the plain one is not
            values["trace.overhead_ratio"] = (
                profiled["cpu_s"] / plain["cpu_s"])
    values["fct_err_pct"] = fct_err
    return {
        "workload": workload,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "per_layer": values,
        "spans": [s for r in records for s in r.get("spans", ())],
    }


# -- output ------------------------------------------------------------------


def host_meta(seed: int, size: str) -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "seed": seed,
        "size": size,
        "nproc": nproc,
        "python": platform.python_version(),
        "loadavg_1m": load1,
        # another busy process on this box shows up in every timing
        "noisy": load1 > nproc - 0.5,
    }


def run_driver(args: argparse.Namespace) -> int:
    """One workload, one JSON line: the BENCHMARK.json protocol."""
    meta = host_meta(args.seed, args.size)
    if meta["noisy"]:
        print(f"warning: load average {meta['loadavg_1m']:.2f} on "
              f"{meta['nproc']} CPUs, timings are noisy", file=sys.stderr)
    if args.trace:
        result = trace(args.workload, args.seed, args.size)
        units = per_layer_units()
        # a counter the program does not report (n/a) reads 0 on this line
        metrics = {
            name: {"value": 0 if value is None else value,
                   "unit": units[name]}
            for name, value in result["per_layer"].items()
        }
        measured = result["per_layer"]["sim.engine.events"] is not None
    else:
        result = measure(args.workload, args.seed, args.seconds, args.size)
        metrics = {
            name: {"value": row["median"], "unit": row["unit"]}
            for name, row in result["end_to_end"].items()
        }
        measured = bool(metrics)
    for problem in result["problems"]:
        print("check failed: " + problem, file=sys.stderr)
    if not measured:
        print("error: no cell completed, nothing to report", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def run_ledger(args: argparse.Namespace) -> int:
    """All four workloads, both passes, tables and artefacts."""
    meta = host_meta(args.seed, args.size)
    print(f"ledger: seed {meta['seed']}, size {meta['size']}, "
          f"{meta['nproc']} CPUs, Python {meta['python']}, load "
          f"{meta['loadavg_1m']:.2f}" + ("  [noisy]" if meta["noisy"] else ""))
    out: Dict[str, Any] = {"meta": meta, "workloads": {}}
    spans: List[Dict[str, Any]] = []
    problems: List[str] = []

    print("\nend-to-end (untraced; median [q1, q3] n)")
    for workload in wl.WORKLOADS:
        result = measure(workload, args.seed, args.seconds, args.size)
        spans += result.pop("spans")
        problems += result["problems"]
        out["workloads"][workload] = result
        print(f"  {workload}")
        for name, row in result["end_to_end"].items():
            print(f"    {name:<20} {row['median']:.4f} {row['unit']:<3} "
                  f"[{row['q1']:.4f}, {row['q3']:.4f}] n={row['n']}")
        for name, row in result["ungated"].items():
            print(f"    {name:<20} {row['median']:.4f} {row['unit']:<3} "
                  f"[{row['q1']:.4f}, {row['q3']:.4f}] n={row['n']}  "
                  f"(not gated)")

    units = per_layer_units()
    traced = {}
    for workload in wl.WORKLOADS:
        result = trace(workload, args.seed, args.size)
        spans += result.pop("spans")
        problems += result["problems"]
        traced[workload] = result["per_layer"]
        entry = out["workloads"][workload]
        entry["per_layer"] = result["per_layer"]
        entry["correct"] = entry["correct"] and result["correct"]
        entry["fct_err_pct"] = max(
            entry["fct_err_pct"], result["per_layer"]["fct_err_pct"])
    print("\nper-layer (traced pass over cell 0)")
    print(f"  {'metric':<36}{'unit':<12}"
          + "".join(f"{w:>20}" for w in wl.WORKLOADS))
    for name, unit in units.items():
        print(f"  {name:<36}{unit:<12}"
              + "".join(f"{fmt(traced[w][name]):>20}" for w in wl.WORKLOADS))

    # after both passes: the hybrid accuracy probe runs in the traced one
    print("\noutput checks")
    for workload, entry in out["workloads"].items():
        print(f"  {workload:<20} failed_frac {entry['failed_frac']:.4f} "
              f"({entry['failed']} of {entry['attempted']} operations)  "
              f"fct_err_pct {entry['fct_err_pct']:.3f} %  "
              + ("ok" if entry["correct"] else "FAILED"))

    if args.out is None:
        os.makedirs(child.WORK_DIR, exist_ok=True)
        args.out = tempfile.mkdtemp(prefix="out-", dir=child.WORK_DIR)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "results.json"), "w") as fh:
        json.dump(out, fh, indent=1)
    with open(os.path.join(args.out, "layers.json"), "w") as fh:
        json.dump(traced, fh, indent=1)
    with open(os.path.join(args.out, "spans.jsonl"), "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    print(f"\nwrote results.json, layers.json, spans.jsonl to {args.out}")
    for problem in problems:
        print("check failed: " + problem)
    return 1 if problems else 0


def make_reference() -> int:
    """Pin the default seed's first cells (and the hybrid accuracy)."""
    reference: Dict[str, Any] = {}
    for workload in wl.WORKLOADS:
        cells = {}
        for rep in range(REFERENCE_CELLS):
            flags = ("--extras",) if rep == 0 else ()
            rec = spawn_child(workload, wl.DEFAULT_SEED, rep, "full", flags)
            if "error" in rec or not rec["ok"]:
                print(f"error: {workload} cell {rep}: "
                      f"{rec.get('error', 'operations failed')}",
                      file=sys.stderr)
                return 1
            cells[str(rec["cell_seed"])] = rec["facts"]
            if "fct_err_pct" in rec:
                reference.setdefault(workload, {})["fct_err_pct"] = (
                    rec["fct_err_pct"])
            print(f"{workload} cell {rec['cell_seed']}: "
                  f"{rec['facts']['events']} events, "
                  f"digest {rec['facts']['digest'][:16]}")
        reference.setdefault(workload, {})["cells"] = cells
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def default_seconds() -> int:
    with open(MANIFEST_PATH) as fh:
        return json.load(fh)["run_seconds"]


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["--child"]:
        return child.main(argv[1:])
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS,
                        help="driver protocol: measure this workload only")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="untraced measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for results.json, "
                        "layers.json, spans.jsonl (default: a fresh one "
                        "under benchmarks/ledger/.work)")
    parser.add_argument("--smoke", dest="size", action="store_const",
                        const="smoke", default="full",
                        help="tiny cells, schema check only")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.size == "smoke" else default_seconds()
    if args.make_reference:
        return make_reference()
    if args.workload:
        return run_driver(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
