"""The ledger's four workloads, as literals.

Nothing here imports ``repro``: the child interpreter times that import
as part of ``setup_s``, and keeping the inputs as plain keyword dicts
means the program sees only what ``ExperimentConfig(**kwargs)`` is given.
No config names ``equeue``, ``batch``, ``workers`` or ``sanitize`` — the
ledger measures the defaults a user gets.

Every workload is closed and batch: one *cell* is a fixed input run to
completion, and a run measures as many cells as fit in ``--seconds``.
"""

from __future__ import annotations

GBPS = 10**9
KB = 1000
MB = 10**6
USEC = 1000
MSEC = 10**6

DEFAULT_SEED = 1

#: why each workload exists (also the `why` lines of BENCHMARK.json)
WHY = {
    "fabric_mixed": (
        "one Fig-10 leaf-spine cell in packet mode: event queue, dispatch, "
        "EgressPort, SP+DWRR, TCN marking, DCTCP and ECMP in paper-sweep "
        "proportions"
    ),
    "figure_sweep": (
        "a Fig-6-shaped scheme x load grid through run_sweep with 2 "
        "processes and a cold cache: spawn, IPC, cache, queue-length AQMs, "
        "plain DWRR, RTO pressure"
    ),
    "timer_churn": (
        "engine only: cancel the oldest of 256 timers and arm a "
        "replacement per step, no network objects, so net/sched/transport "
        "do nothing"
    ),
    "fabric_bulk_hybrid": (
        "4x4 leaf-spine bulk transfers in hybrid mode: the fluid solver "
        "dominates and the packet layers barely register, the mirror of "
        "fabric_mixed"
    ),
}
WORKLOADS = tuple(WHY)

#: Cell sizes.  "full" is a quarter of the sizes ISSUE 11 measured
#: (10-12 s per cell): the driver allows ~35 s per run including
#: interpreter start-up and the warm-up cell, and a median needs several
#: cells, so each cell is sized to 2-4 s on a 2-vCPU box.  "smoke" is for
#: test_ledger.py only and is never timed.
SIZES = {
    "full": {
        "mixed_flows": 120,
        "sweep_flows": 40,
        "churn_steps": 1_000_000,
        "hybrid_flows": 1000,
        "probe_flows": 80,
        "probe_seeds": (1, 2, 3),
        "min_reps": 3,
    },
    "smoke": {
        "mixed_flows": 8,
        "sweep_flows": 4,
        "churn_steps": 20_000,
        "hybrid_flows": 40,
        "probe_flows": 12,
        "probe_seeds": (1,),
        "min_reps": 2,
    },
}

#: the Fig-10 cell (benchmarks/benchlib.leafspine_kwargs, copied so the
#: ledger does not move when that helper is simplified)
FABRIC_MIXED = dict(
    scheme="tcn",
    scheduler="sp_dwrr",
    transport="dctcp",
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
    load=0.6,
    init_cwnd=16,
    min_rto_ns=5 * MSEC,
    red_threshold_bytes=65 * 1500,
    tcn_threshold_ns=78 * USEC,
)

#: the Fig-6 testbed star: 9 hosts at 1 GbE, DWRR over 4 queues, web
#: search, persistent connections, the paper's testbed thresholds
FIGURE_SWEEP_BASE = dict(
    scheduler="dwrr",
    transport="dctcp",
    topology="star",
    n_hosts=9,
    link_rate_bps=GBPS,
    n_queues=4,
    workload="websearch",
    init_cwnd=10,
    red_threshold_bytes=32 * KB,
    tcn_threshold_ns=256 * USEC,
    codel_target_ns=51_200,
    codel_interval_ns=1_024_000,
    persistent_connections=True,
    max_warm_cwnd=32,
)
FIGURE_SWEEP_SCHEMES = ("tcn", "codel", "mqecn", "red_std")
FIGURE_SWEEP_LOADS = (0.6, 0.9)
#: = nproc on the box the ledger was sized on; the only concurrency in a run
FIGURE_SWEEP_PROCESSES = 2

TIMER_CHURN = dict(k_timers=256, horizon_ns=5_000, jitter_ns=1_000, step_ns=10)

FABRIC_BULK_HYBRID = dict(
    topology="leafspine",
    n_leaf=4,
    n_spine=4,
    hosts_per_leaf=4,
    link_rate_bps=GBPS,
    workload="bulk",
    load=0.7,
    mode="hybrid",
    fluid_size_bytes=1_000_000,
)

#: hybrid-vs-packet accuracy probe (untimed): the fluidcheck
#: `leafspine_bulk` shape, run in both modes over pooled fixed seeds
ACCURACY_PROBE = dict(
    topology="leafspine",
    n_leaf=2,
    n_spine=2,
    hosts_per_leaf=4,
    workload="bulk",
    workload_clip_bytes=2 * MB,
    load=0.1,
)
PROBE_PROMOTION_BYTES = 1_000_000
#: points the probe's FCT error may rise above its pin (hybrid only; the
#: packet-exact workloads get none)
FCT_ERR_SLACK_PCT = {"fabric_bulk_hybrid": 0.5}


def cell_seed(seed: int, rep: int) -> int:
    """Config seed of the ``rep``-th cell of a run started with ``--seed``.

    Each cell of a run is a different draw of the same workload: a single
    draw's work differs by 2x between seeds (heavy-tailed flow sizes), so
    a median over one repeated cell would carry that draw's luck into
    every metric.  The warm-up repeats cell 0, which is what the
    cross-interpreter determinism check compares.
    """
    return seed * 100 + rep


def ops_per_cell(workload: str, size: str) -> int:
    """Operations (flows; timer_churn: driver steps) one cell attempts."""
    s = SIZES[size]
    n_jobs = len(FIGURE_SWEEP_SCHEMES) * len(FIGURE_SWEEP_LOADS)
    return {
        "fabric_mixed": s["mixed_flows"],
        "figure_sweep": n_jobs * s["sweep_flows"],
        "timer_churn": s["churn_steps"],
        "fabric_bulk_hybrid": s["hybrid_flows"],
    }[workload]


def figure_sweep_grid(size: str) -> list:
    """Keyword dicts of the sweep's cells, scheme-major."""
    return [
        dict(FIGURE_SWEEP_BASE, scheme=scheme, load=load,
             n_flows=SIZES[size]["sweep_flows"])
        for scheme in FIGURE_SWEEP_SCHEMES
        for load in FIGURE_SWEEP_LOADS
    ]
