"""Shared machinery for the per-figure benchmarks.

Every benchmark regenerates one table/figure of the paper at reduced scale
(fewer flows, fewer load points — same code paths) and:

* prints a paper-vs-measured table,
* writes it to ``benchmarks/results/<figure>.txt``,
* asserts the paper's *qualitative* result (who wins, direction and rough
  magnitude of the gap) — absolute numbers are not expected to match a
  different substrate.

Scale note: the testbed figures used 5,000 flows per point and the ns-2
figures 50,000; pure-Python packet simulation runs ~100-200 flows per
point in CI time.  Percentile statistics are accordingly noisier, which
the assertions allow for.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional

from repro.harness.config import ExperimentConfig, ExperimentResult
from repro.harness.report import format_fct_rows
from repro.harness.sweep import ResultCache, SweepOutcome, run_sweep
from repro.metrics.fct import summarize

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
CACHE_DIR = os.path.join(os.path.dirname(__file__), ".cache")


def _bench_cache() -> Optional[ResultCache]:
    """The shared benchmark result cache (set REPRO_SWEEP_CACHE=0 to
    disable, e.g. while hacking on the simulator with a dirty tree)."""
    if os.environ.get("REPRO_SWEEP_CACHE", "1") == "0":
        return None
    return ResultCache(CACHE_DIR)


def _bench_processes() -> Optional[int]:
    """Worker count for benchmark sweeps (REPRO_SWEEP_PROCESSES to pin;
    0 forces serial in-process runs)."""
    env = os.environ.get("REPRO_SWEEP_PROCESSES")
    return int(env) if env is not None else None


def _checked(outcome: SweepOutcome) -> List[ExperimentResult]:
    """Benchmarks must fail loudly on any crashed/timed-out cell."""
    failures = outcome.errors()
    if failures:
        details = "; ".join(
            f"{r.config.scheme}/seed={r.config.seed}: "
            f"{r.error.kind}: {r.error.message}"
            for r in failures
        )
        raise RuntimeError(f"sweep failed for {len(failures)} config(s): {details}")
    return outcome.results


def save_results(figure: str, text: str) -> None:
    """Print a figure's table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{figure}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


#: the counters a pooled row sums over its runs
_SUMMED = ("completed", "total", "timeouts", "timeouts_small", "drops", "marks")


def pooled(runs: List[ExperimentResult]) -> ExperimentResult:
    """FCT statistics pooled over several seeds of the same config.

    The paper runs 5,000-50,000 flows per point; at benchmark scale we
    instead pool a few seeds (each scheme sees the *same* seeds, so the
    comparison stays pair-matched) to stabilize tail percentiles.  The
    pooled row keeps the first run's config, concatenates the runs'
    ``flow_stats`` and sums their counters.
    """
    flow_stats = [pair for run in runs for pair in run.flow_stats]
    return ExperimentResult(
        runs[0].config,
        summary=summarize(flow_stats),
        flow_stats=flow_stats,
        **{name: sum(getattr(run, name) for run in runs) for name in _SUMMED},
    )


def run_schemes_pooled(
    schemes: Iterable[str], seeds: Iterable[int], **cfg_kwargs
) -> Dict[str, ExperimentResult]:
    """Run each scheme over several seeds and pool the flow statistics.

    The full schemes x seeds grid goes through the sweep runner in one
    call, so every cell runs in parallel and repeat runs are served from
    ``benchmarks/.cache``.
    """
    schemes, seeds = list(schemes), list(seeds)
    configs = [
        ExperimentConfig(scheme=scheme, seed=seed, **cfg_kwargs)
        for scheme in schemes
        for seed in seeds
    ]
    outcome = run_sweep(
        configs, processes=_bench_processes(), cache=_bench_cache()
    )
    flat = _checked(outcome)
    return {
        scheme: pooled(flat[i * len(seeds):(i + 1) * len(seeds)])
        for i, scheme in enumerate(schemes)
    }


def fct_comparison_text(
    figure: str,
    title: str,
    paper_rows: List[str],
    per_load_results: Dict[float, Dict[str, ExperimentResult]],
) -> str:
    """Compose the full paper-vs-measured report for an FCT figure."""
    parts = [f"{figure}: {title}", "", "Paper reports:"]
    parts += [f"  - {row}" for row in paper_rows]
    for load, results in per_load_results.items():
        parts += ["", f"Measured at load {load:.0%}:", format_fct_rows(results)]
    return "\n".join(parts)


def star_testbed_kwargs(**overrides) -> dict:
    """The §6.1 testbed configuration: 9 servers at 1 GbE, 96 KB port
    buffers, DCTCP with RTO_min 10 ms, standard thresholds 32 KB / 256 us,
    CoDel tuned to (51.2 us, 1024 us), persistent connections."""
    from repro.units import KB, USEC

    kwargs = dict(
        workload="websearch",
        n_flows=150,
        init_cwnd=10,
        red_threshold_bytes=32 * KB,
        tcn_threshold_ns=256 * USEC,
        codel_target_ns=51_200,
        codel_interval_ns=1_024_000,
        persistent_connections=True,
        max_warm_cwnd=32,
    )
    kwargs.update(overrides)
    return kwargs


def leafspine_kwargs(**overrides) -> dict:
    """The §6.2 simulation configuration, scaled down: leaf-spine fabric at
    10 Gbps, 300 KB buffers, SP + 7 DWRR/WFQ queues, PIAS, all four
    workloads mixed across services (tails clipped at 20 MB to bound
    per-flow simulation cost), RTO_min 5 ms, thresholds 65 pkt / 78 us."""
    from repro.units import GBPS, KB, MB, MSEC, USEC

    kwargs = dict(
        topology="leafspine",
        n_leaf=2,
        n_spine=2,
        hosts_per_leaf=3,
        link_rate_bps=10 * GBPS,
        buffer_bytes=300 * KB,
        base_rtt_ns=85_200,
        n_queues=8,
        n_high=1,
        pias=True,
        workload="mixed",
        workload_clip_bytes=20 * MB,
        n_flows=400,
        init_cwnd=16,
        min_rto_ns=5 * MSEC,
        red_threshold_bytes=65 * 1500,
        tcn_threshold_ns=78 * USEC,
    )
    kwargs.update(overrides)
    return kwargs


def assert_tcn_beats_queue_length_baseline(
    results: Dict[str, ExperimentResult],
    small_avg_margin: float = 1.0,
    large_slack: float = 1.10,
) -> None:
    """The recurring qualitative claim of §6: versus per-queue ECN/RED with
    the standard threshold, TCN improves small flows without sacrificing
    large flows or overall average FCT."""
    tcn, red = results["tcn"].summary, results["red_std"].summary
    assert tcn.avg_small_ns is not None and red.avg_small_ns is not None
    # small flows: TCN at least `small_avg_margin` x better (1.0 = no worse)
    assert red.avg_small_ns >= small_avg_margin * tcn.avg_small_ns, (
        f"small-flow avg: tcn={tcn.avg_small_ns:.0f} red={red.avg_small_ns:.0f}"
    )
    assert red.p99_small_ns >= tcn.p99_small_ns * 0.95, (
        f"small-flow p99: tcn={tcn.p99_small_ns:.0f} red={red.p99_small_ns:.0f}"
    )
    # large flows: within ~10% (paper: within 2.8%)
    if tcn.avg_large_ns and red.avg_large_ns:
        assert tcn.avg_large_ns <= large_slack * red.avg_large_ns, (
            f"large-flow avg: tcn={tcn.avg_large_ns:.0f} "
            f"red={red.avg_large_ns:.0f}"
        )
    # overall: comparable or better
    assert tcn.avg_all_ns <= 1.10 * red.avg_all_ns


def assert_tcn_beats_baseline_across_loads(
    per_load: Dict[float, Dict[str, ExperimentResult]],
    small_avg_margin: float = 1.15,
    small_p99_margin: float = 1.25,
    large_slack: float = 1.10,
) -> None:
    """The paper's isolation claims are "up to X%" — i.e. the *best* gap
    over the load sweep — while the no-regression properties (large flows,
    overall average, small-flow no-worse) must hold at *every* load."""
    best_avg = 0.0
    best_p99 = 0.0
    for load, results in per_load.items():
        tcn, red = results["tcn"].summary, results["red_std"].summary
        assert tcn.avg_small_ns is not None and red.avg_small_ns is not None
        best_avg = max(best_avg, red.avg_small_ns / tcn.avg_small_ns)
        best_p99 = max(best_p99, red.p99_small_ns / tcn.p99_small_ns)
        # per-load no-regression bounds
        assert red.avg_small_ns >= 0.90 * tcn.avg_small_ns, load
        if tcn.avg_large_ns and red.avg_large_ns:
            assert tcn.avg_large_ns <= large_slack * red.avg_large_ns, load
        assert tcn.avg_all_ns <= 1.10 * red.avg_all_ns, load
    assert best_avg >= small_avg_margin, (
        f"best small-avg gap over loads only {best_avg:.2f}x"
    )
    assert best_p99 >= small_p99_margin, (
        f"best small-p99 gap over loads only {best_p99:.2f}x"
    )
