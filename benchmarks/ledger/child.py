"""One cell of one workload, run in a fresh interpreter.

``run.py --child <workload>`` lands here.  The child imports the program,
runs the cell through the public entry
points only, checks what it can check on its own (completion, a physical
lower bound on every FCT), and prints one JSON record as its last line.
The parent compares records across interpreters and against
``reference.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import json
import os
import pstats
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import deque
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import layers
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch space (sweep caches, default --out); inside the checkout, ignored
WORK_DIR = os.path.join(HERE, ".work")


def _cpu_s() -> float:
    """User+sys of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _rss_peak_mb() -> float:
    """Peak RSS of this process or any reaped child (Linux: KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Phases:
    """Benchmark-side spans: import -> setup -> run -> verify under one rep."""

    def __init__(self, workload: str, rep_id: str) -> None:
        self.workload = workload
        self.rep_id = rep_id
        self.spans: List[Dict[str, Any]] = []
        self._t0 = time.perf_counter_ns()

    def add(self, name: str, start_ns: int, end_ns: int, parent: str) -> None:
        self.spans.append({
            "name": name, "start_ns": start_ns, "end_ns": end_ns,
            "parent": parent, "workload": self.workload, "rep": self.rep_id,
        })

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter_ns(), "rep")

    def close(self) -> List[Dict[str, Any]]:
        self.add("rep", self._t0, time.perf_counter_ns(), "")
        return self.spans


def _timed(
    call: Callable[[], Any], profiler: Optional[cProfile.Profile]
) -> Tuple[Any, float, float]:
    """Run the one entry call; return (result, wall_s, cpu_s)."""
    cpu0, t0 = _cpu_s(), time.perf_counter()
    result = profiler.runcall(call) if profiler is not None else call()
    return result, time.perf_counter() - t0, _cpu_s() - cpu0


def _digest(rows: Sequence[Tuple[int, ...]]) -> str:
    sha = hashlib.sha256()
    for row in sorted(rows):
        sha.update((",".join(map(str, row)) + "\n").encode())
    return sha.hexdigest()


def _fct_row(summary: Any) -> Dict[str, Optional[float]]:
    return {
        key: getattr(summary, key + "_ns", None)
        for key in ("avg_all", "avg_small", "p99_small", "avg_large")
    }


def _tx_pkts(metrics: Dict[str, Any]) -> Optional[int]:
    """Packets sent by switch ports, from a MetricsRegistry snapshot."""
    values = [
        v for k, v in metrics.items()
        if k.startswith("port.") and k.endswith(".tx_pkts")
    ]
    return sum(values) if values else None


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or not den:
        return None
    return num / den


def _profile_counters(profile: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Counters read from a RunProfile dict; an absent key stays ``None``."""
    runs = profile.get("runs_drained")
    hist = profile.get("run_hist")
    trains = profile.get("trains")
    fallbacks = profile.get("train_fallbacks")
    offered = None if None in (trains, fallbacks) else trains + fallbacks
    fluid = profile.get("fluid_stats") or {}
    epochs = fluid.get("epochs")
    return {
        "sim.engine.train_accept_ratio": _ratio(trains, offered),
        "sim.engine.run_singleton_share": _ratio(
            hist[1] if hist and len(hist) > 1 else None, runs),
        "sim.equeue.heap_hwm": profile.get("heap_hwm"),
        "sim.fluid.epochs": epochs,
        "sim.fluid.solver_iters_per_epoch": _ratio(
            fluid.get("solver_iterations"), epochs),
        "sim.fluid.us_per_epoch": _ratio(
            1e6 * profile["wall_s"] if "wall_s" in profile else None, epochs),
    }


def _flows_ok(
    pairs: Sequence[Tuple[int, int]], link_rate_bps: int
) -> bool:
    """No flow finished faster than its bytes fit through one edge link."""
    return all(
        fct_ns * link_rate_bps >= size * 8 * 10**9 for size, fct_ns in pairs
    )


def _experiment_cell(
    kwargs: Dict[str, Any], args: argparse.Namespace, ctx: "Ctx"
) -> Dict[str, Any]:
    """fabric_mixed / fabric_bulk_hybrid: one ``run_experiment`` call.

    ``work`` (what the timings are divided by) is the event count; the
    hybrid runner overrides it.
    """
    from repro import ExperimentConfig, Tracer, run_experiment
    from repro.net.packet import freelist_stats

    cfg = ExperimentConfig(**kwargs, seed=ctx.cell_seed)
    tracer = Tracer() if args.tracer else None
    alloc0, reuse0, _ = freelist_stats()
    setup_cpu = time.process_time() - ctx.cpu_start  # import, so far
    with ctx.phases.phase("run"):
        result, wall, cpu = _timed(
            lambda: run_experiment(cfg, tracer=tracer), ctx.profiler)
    with ctx.phases.phase("verify"):
        alloc1, reuse1, _ = freelist_stats()
        profile = result.profile
        run_loop_s = profile.get("wall_s", wall)
        pairs = [(f.size_bytes, f.fct_ns) for f in result.flows if f.completed]
        ok = result.completed == result.total and _flows_ok(
            pairs, cfg.link_rate_bps)
        tx_pkts = _tx_pkts(result.metrics)
        pkts = (alloc1 - alloc0) + (reuse1 - reuse0)
        counters = _profile_counters(profile)
        counters.update({
            "sim.engine.events_per_tx_pkt": _ratio(result.events, tx_pkts),
            "net.port.tx_pkts": tx_pkts,
            "net.port.drops": result.drops,
            "net.port.marks": result.marks,
            "net.packet.alloc_per_kpkt": _ratio(1000.0 * (alloc1 - alloc0), pkts),
            "transport.timeouts": result.timeouts,
            "harness.runner.build_s": wall - run_loop_s,
        })
    return {
        "ok": ok,
        "attempted": result.total,
        "failed": result.total - result.completed,
        "work": result.events,
        "wall_s": wall,
        "cpu_s": cpu,
        # the build happens inside the entry call; the program reports only
        # the run loop's wall time, so the build's wall is scaled to CPU by
        # the call's own cpu/wall ratio
        "setup_s": setup_cpu + (wall - run_loop_s) * min(1.0, cpu / wall),
        "facts": {
            "events": result.events,
            "completed": result.completed,
            "total": result.total,
            "drops": result.drops,
            "marks": result.marks,
            "timeouts": result.timeouts,
            "sim_ns": result.sim_ns,
            "fct": [_fct_row(result.summary)],
            "digest": _digest([
                (f.id, f.size_bytes, f.fct_ns)
                for f in result.flows if f.completed
            ]),
        },
        "counters": counters,
    }


def run_fabric_mixed(args: argparse.Namespace, ctx: "Ctx") -> Dict[str, Any]:
    kwargs = dict(wl.FABRIC_MIXED, n_flows=wl.SIZES[args.size]["mixed_flows"])
    return _experiment_cell(kwargs, args, ctx)


def run_fabric_bulk_hybrid(
    args: argparse.Namespace, ctx: "Ctx"
) -> Dict[str, Any]:
    size = wl.SIZES[args.size]
    kwargs = dict(wl.FABRIC_BULK_HYBRID, n_flows=size["hybrid_flows"])
    record = _experiment_cell(kwargs, args, ctx)
    # fluid epochs, not events, carry the cost here, and neither tracks it
    # across seeds as well as the flow count does (see README)
    record["work"] = record["attempted"]
    if args.extras:
        record["fct_err_pct"] = _accuracy_probe(size)
    return record


def _accuracy_probe(size: Dict[str, Any]) -> float:
    """max(|p50 dev|, |p99 dev|) %, hybrid vs packet, promoted flows pooled."""
    from repro import ExperimentConfig, percentile, run_experiment

    pooled: Dict[str, List[int]] = {"packet": [], "hybrid": []}
    for mode, fcts in pooled.items():
        for seed in size["probe_seeds"]:
            result = run_experiment(ExperimentConfig(
                **wl.ACCURACY_PROBE, n_flows=size["probe_flows"],
                mode=mode, fluid_size_bytes=wl.PROBE_PROMOTION_BYTES,
                seed=seed,
            ))
            fcts.extend(
                f.fct_ns for f in result.flows
                if f.completed and f.size_bytes >= wl.PROBE_PROMOTION_BYTES
            )
    devs = []
    for p in (50, 99):
        exact = percentile(pooled["packet"], p)
        devs.append(abs(percentile(pooled["hybrid"], p) - exact) / exact)
    return 100.0 * max(devs)


def run_figure_sweep(args: argparse.Namespace, ctx: "Ctx") -> Dict[str, Any]:
    from repro import ExperimentConfig, ResultCache, run_sweep
    from repro.harness.sweep import code_version, config_key
    from repro.obs import SpanRecorder

    t0 = time.perf_counter()
    code_version()  # first call in this interpreter hashes src/repro
    code_version_s = time.perf_counter() - t0
    grid = [
        ExperimentConfig(**kwargs, seed=ctx.cell_seed)
        for kwargs in wl.figure_sweep_grid(args.size)
    ]
    for cfg in grid:
        config_key(cfg)
    setup_s = time.process_time() - ctx.cpu_start

    recorder = SpanRecorder() if args.extras or args.profile else None
    # the traced pass runs serial and in-process: cProfile cannot follow
    # the sweep into its worker processes
    processes = 0 if args.profile else wl.FIGURE_SWEEP_PROCESSES
    os.makedirs(WORK_DIR, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=WORK_DIR)
    try:
        cache = ResultCache(cache_dir)
        with ctx.phases.phase("run"):
            outcome, wall, cpu = _timed(
                lambda: run_sweep(grid, processes=processes, cache=cache,
                                  spans=recorder),
                ctx.profiler)
        warm_ms = None
        if args.extras:
            t1 = time.perf_counter()
            warm = run_sweep(grid, processes=processes, cache=cache)
            warm_ms = 1e3 * (time.perf_counter() - t1)
            if warm.stats.cache_hits != len(grid):
                warm_ms = None
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    with ctx.phases.phase("verify"):
        results = list(outcome)
        total = sum(cfg.n_flows for cfg in grid)
        done = [r for r in results if r.ok]
        completed = sum(r.completed for r in done)
        ok = (
            len(done) == len(results)
            and completed == total
            and all(
                _flows_ok(r.flow_stats, r.config.link_rate_bps) for r in done)
        )
        events = sum(r.events for r in done)
        tx_pkts = sum(_tx_pkts(r.metrics) or 0 for r in done) or None
        job_spans = [
            s for s in (recorder.iter_dicts() if recorder else ())
            if s["cat"] == "sweep" and s["name"] == "job"
        ]
        for s in job_spans:
            ctx.phases.add(
                "sweep/job", s["t0_ns"], s["t0_ns"] + s["dur_ns"], "run")
        waits = [s["args"].get("queued_ns", 0) / 1e9 for s in job_spans]
        counters = {
            "sim.engine.events_per_tx_pkt": _ratio(events, tx_pkts),
            "sim.equeue.heap_hwm": max(
                (r.heap_hwm for r in done), default=None),
            "net.port.tx_pkts": tx_pkts,
            "net.port.drops": sum(r.drops for r in done),
            "net.port.marks": sum(r.marks for r in done),
            "transport.timeouts": sum(r.timeouts for r in done),
            "harness.sweep.parallel_eff": _ratio(
                sum(r.wall_s for r in done), processes * wall)
            if processes else None,
            "harness.sweep.job_wait_p50_s":
                statistics.median(waits) if waits else None,
            "harness.sweep.code_version_ms": 1e3 * code_version_s,
            "harness.sweep.warm_ms": warm_ms,
        }
    return {
        "ok": ok,
        "attempted": total,
        # one bad job spoils the figure: all of the cell's flows fail
        "failed": 0 if ok else total,
        "work": events,
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": setup_s,
        "facts": {
            "events": events,
            "completed": completed,
            "total": total,
            "drops": counters["net.port.drops"],
            "marks": counters["net.port.marks"],
            "timeouts": counters["transport.timeouts"],
            "sim_ns": sum(r.sim_ns for r in done),
            "fct": [_fct_row(r.summary) for r in done],
            "digest": _digest([
                (job, size, fct_ns)
                for job, r in enumerate(results) if r.ok
                for size, fct_ns in r.flow_stats
            ]),
        },
        "counters": counters,
    }


def run_timer_churn(args: argparse.Namespace, ctx: "Ctx") -> Dict[str, Any]:
    """Engine only: rotate 256 timers, cancelling each long before it fires."""
    from repro import RunProfile, Simulator

    spec = wl.TIMER_CHURN
    steps = wl.SIZES[args.size]["churn_steps"]
    rng = random.Random(ctx.cell_seed)
    # the generated input: per-arm jitter, cycled; every horizon stays far
    # beyond the 2.56 us a timer waits to reach the front of the rotation
    jitter = [rng.randrange(spec["jitter_ns"]) for _ in range(4096)]
    horizon, step_ns, k_timers = (
        spec["horizon_ns"], spec["step_ns"], spec["k_timers"])

    sim = Simulator()
    timers: deque = deque()
    fired = [0]

    def fire() -> None:
        fired[0] += 1

    for i in range(k_timers):
        timers.append(sim.schedule(horizon + i, fire))
    left = [steps]

    def drive() -> None:
        n = left[0]
        if n == 0:
            for handle in timers:
                sim.cancel(handle)
            return
        left[0] = n - 1
        sim.cancel(timers.popleft())
        timers.append(sim.schedule(horizon + jitter[n & 4095], fire))
        sim.schedule(step_ns, drive)

    sim.schedule(0, drive)
    setup_s = time.process_time() - ctx.cpu_start

    with ctx.phases.phase("run"):
        events, wall, cpu = _timed(sim.run, ctx.profiler)
    with ctx.phases.phase("verify"):
        done = steps - left[0]
        ok = done == steps and fired[0] == 0 and sim.idle
        counters = _profile_counters(RunProfile.capture(sim, wall).as_dict())
    return {
        "ok": ok,
        "attempted": steps,
        "failed": steps - done,
        "work": events,
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": setup_s,
        "facts": {
            "events": events,
            "completed": done,
            "total": steps,
            "sim_ns": sim.now,
            "digest": _digest([(events, sim.now)]),
        },
        "counters": counters,
    }


RUNNERS = {
    "fabric_mixed": run_fabric_mixed,
    "figure_sweep": run_figure_sweep,
    "timer_churn": run_timer_churn,
    "fabric_bulk_hybrid": run_fabric_bulk_hybrid,
}


class Ctx(NamedTuple):
    """What every runner needs from the child's start-up."""

    cell_seed: int
    #: process CPU seconds when the child's own code began; ``setup_s`` counts
    #: from here (CPU, not wall: hypervisor steal is not set-up work)
    cpu_start: float
    phases: Phases
    profiler: Optional[cProfile.Profile]


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py --child")
    parser.add_argument("workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    parser.add_argument("--profile", action="store_true",
                        help="wrap the entry call in cProfile, emit layers")
    parser.add_argument("--tracer", action="store_true",
                        help="attach a packet Tracer (fabric_mixed)")
    parser.add_argument("--extras", action="store_true",
                        help="untimed extra counters after the entry call")
    args = parser.parse_args(argv)

    cpu_start = time.process_time()
    cell_seed = wl.cell_seed(args.seed, args.rep)
    phases = Phases(args.workload, f"{args.workload}/{cell_seed}")
    with phases.phase("import"):
        t0 = time.perf_counter()
        import repro

        import_s = time.perf_counter() - t0
    profiler = cProfile.Profile() if args.profile else None
    ctx = Ctx(cell_seed, cpu_start, phases, profiler)

    setup_start = time.perf_counter_ns()
    record = RUNNERS[args.workload](args, ctx)
    run_start = next(s["start_ns"] for s in phases.spans if s["name"] == "run")
    phases.add("setup", setup_start, run_start, "rep")

    record.update(
        workload=args.workload,
        cell_seed=cell_seed,
        import_s=import_s,
        rss_peak_mb=_rss_peak_mb(),
    )
    if profiler is not None:
        repro_root = os.path.dirname(os.path.abspath(repro.__file__))
        record["layers"] = layers.fold(
            pstats.Stats(profiler).stats, repro_root)
    record["spans"] = phases.close()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0
