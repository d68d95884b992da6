"""Figure 7: inter-service isolation, WFQ (4 queues) + DCTCP, web search.

Same experiment as Figure 6 on a scheduler MQ-ECN cannot run on (no
rounds) — the paper drops MQ-ECN from this figure, and so do we; TCN keeps
its gains with zero reconfiguration: up to 61.1% lower small-flow average
and 79.3% lower 99th percentile versus per-queue standard-threshold RED.
"""

import pytest

from benchmarks.benchlib import (
    assert_tcn_beats_baseline_across_loads,
    fct_comparison_text,
    run_schemes_pooled,
    save_results,
    star_testbed_kwargs,
)

SCHEMES = ("tcn", "codel", "red_std")
LOADS = (0.6, 0.9)
SEEDS = (1, 2, 3)

PAPER = [
    "small-flow avg: TCN up to 61.1% lower than per-queue standard (9529 -> 3711 us)",
    "small-flow 99p: TCN up to 79.3% lower",
    "large-flow avg: TCN within 2.6%",
    "MQ-ECN excluded: WFQ has no rounds",
]


def test_fig07(benchmark):
    per_load = {}

    def workload():
        for load in LOADS:
            per_load[load] = run_schemes_pooled(
                SCHEMES, SEEDS, scheduler="wfq", n_queues=4, load=load,
                **star_testbed_kwargs(),
            )

    benchmark.pedantic(workload, rounds=1, iterations=1)

    save_results(
        "fig07_isolation_wfq",
        fct_comparison_text(
            "Figure 7", "isolation, WFQ + DCTCP, web search", PAPER, per_load
        ),
    )

    assert_tcn_beats_baseline_across_loads(per_load, small_avg_margin=1.10)


def test_fig07_mqecn_cannot_run_on_wfq():
    """The structural point of the figure: MQ-ECN is not even definable,
    so the config is refused before anything is built."""
    from repro.harness.config import ExperimentConfig
    from repro.harness.runner import run_experiment

    with pytest.raises(ValueError, match="round-robin"):
        run_experiment(
            ExperimentConfig(
                scheme="mqecn", scheduler="wfq", n_flows=5, load=0.5
            )
        )
