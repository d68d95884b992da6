"""The fluid engine: solver algebra, exactness, accuracy, determinism.

Four layers of guarantees, cheapest first:

* the max-min solver is pure and matches hand-computed water-filling
  allocations;
* on *static* single-bottleneck configurations (equal flows, zero
  propagation delay where the ramp model vanishes) the fluid engine's
  FCTs equal the analytic shares **exactly** — integer nanoseconds, no
  tolerance;
* on a small leaf-spine, hybrid mode's promoted-flow FCT distribution
  stays within the 5% acceptance bands of the packet engine (pooled
  over three seeds; everything is seeded, so the deviations are exact
  reproducible numbers — the full harness is ``python -m repro
  fluidcheck``, see docs/FLUID.md);
* fluid/hybrid runs at a fixed seed are pinned by SHA-256 digests, the
  same guard the packet engine gets from the golden traces — and the
  new ``mode``/``fluid_size_bytes`` config fields invalidate the sweep
  cache like any other field.
"""

import hashlib
import json

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.harness.sweep import (
    ResultCache,
    config_fingerprint,
    config_key,
    run_sweep,
)
from repro.metrics.fct import FctCollector, percentile
from repro.sim.engine import Simulator
from repro.sim.fluid.model import FluidFlow, FluidLink
from repro.sim.fluid.network import FluidNetwork
from repro.sim.fluid.solver import max_min_shares
from repro.transport.flow import Flow


class TestMaxMinSolver:
    def test_equal_split_on_shared_link(self):
        rates, bottlenecks, iters = max_min_shares(
            [10e9], [[0], [0], [0], [0]]
        )
        assert rates == [2.5e9] * 4
        assert bottlenecks == {0}
        assert iters == 1

    def test_two_bottlenecks(self):
        # flow 1 is capped at 4 by link 1; flow 0 takes the remaining 6
        rates, bottlenecks, _ = max_min_shares(
            [10.0, 4.0], [[0], [0, 1]]
        )
        assert rates == [6.0, 4.0]
        assert bottlenecks == {0, 1}

    def test_disjoint_flows_get_full_capacity(self):
        rates, _, _ = max_min_shares([5.0, 3.0], [[0], [1]])
        assert rates == [5.0, 3.0]

    def test_three_tier_waterfill(self):
        # classic example: links 12/6/2, flows a=[0], b=[0,1], c=[1,2].
        # c is capped at 2 by link 2; b then gets 6-2=4 on link 1;
        # a takes the 12-4=8 left on link 0.
        rates, bottlenecks, iters = max_min_shares(
            [12.0, 6.0, 2.0], [[0], [0, 1], [1, 2]]
        )
        assert rates == [8.0, 4.0, 2.0]
        assert bottlenecks == {0, 1, 2}
        assert iters == 3

    def test_no_flows(self):
        assert max_min_shares([1.0], []) == ([], set(), 0)

    @pytest.mark.parametrize(
        "bad_path, complaint",
        [
            ([], "flow 1 has an empty path"),
            ([0, 2], "flow 1 crosses link 2"),
            ([-1], "flow 1 crosses link -1"),
            ([1, 0, 1], "flow 1 crosses a link twice"),
        ],
    )
    def test_malformed_path_rejected(self, bad_path, complaint):
        with pytest.raises(ValueError, match=complaint):
            max_min_shares([1.0, 1.0], [[0], bad_path])

    def test_unconstrained_links_behind_an_idle_one(self):
        # link 0 carries nothing, so its placeholder share ties with the
        # infinite shares of the live links; the tie must go to a live one
        inf = float("inf")
        rates, bottlenecks, iters = max_min_shares(
            [5.0, inf, inf], [[1], [2]]
        )
        assert rates == [inf, inf]
        assert bottlenecks == {1, 2}
        assert iters == 2

    def test_deterministic(self):
        caps = [7.0, 3.0, 5.0]
        paths = [[0, 1], [1, 2], [0, 2], [2]]
        assert max_min_shares(caps, paths) == max_min_shares(caps, paths)


def _static_run(sizes, capacity_bps, path_delay_ns=0):
    """Drive a hand-built single-link FluidNetwork to completion."""
    sim = Simulator()
    link = FluidLink(None, capacity_bps)
    flows = [
        FluidFlow(Flow(i, 0, 1, size), (0,), path_delay_ns)
        for i, size in enumerate(sizes)
    ]
    collector = FctCollector()
    net = FluidNetwork(sim, flows, [link], collector)
    net.on_start()
    sim.run()
    return net, flows


class TestMalformedPathsRejectedAtConstruction:
    """The per-link accounting walks paths, so a path that is empty,
    leaves the graph or repeats a link is refused up front."""

    @pytest.mark.parametrize(
        "bad_path, complaint",
        [
            ((), "flow 7 has an empty path"),
            ((0, 2), "flow 7 crosses link 2"),
            ((1, 0, 1), "flow 7 crosses a link twice"),
        ],
    )
    def test_network_names_the_flow(self, bad_path, complaint):
        links = [FluidLink(None, 1e9), FluidLink(None, 1e9)]
        flows = [
            FluidFlow(Flow(3, 0, 1, 1000), (0, 1), 0),
            FluidFlow(Flow(7, 0, 1, 1000), bad_path, 0),
        ]
        with pytest.raises(ValueError, match=complaint):
            FluidNetwork(Simulator(), flows, links, FctCollector())


class TestStaticSingleBottleneckExact:
    """Fluid FCTs equal the analytic shares exactly — no tolerance."""

    def test_equal_flows_split_the_link_exactly(self):
        # 4 x 1 MB over 1 Gb/s: each gets 250 Mb/s, finishing together
        # at exactly 32 ms; + 1 us one-way delay for last-byte delivery.
        net, flows = _static_run(
            [1_000_000] * 4, capacity_bps=1e9, path_delay_ns=1_000
        )
        assert net.done and net.completed == 4
        assert [fl.flow.fct_ns for fl in flows] == [32_000_000 + 1_000] * 4

    def test_staggered_finish_is_exact_at_zero_rtt(self):
        # 1 MB + 2 MB over 1 Gb/s, zero delay (so the CA ramp deficit,
        # which scales with RTT^2, vanishes and the step model is
        # exact).  Both run at 500 Mb/s until the small flow finishes
        # at 16 ms; the large one then takes the full link for its
        # remaining 1 MB: 16 ms + 8 ms = 24 ms.
        net, flows = _static_run([1_000_000, 2_000_000], capacity_bps=1e9)
        assert flows[0].flow.fct_ns == 16_000_000
        assert flows[1].flow.fct_ns == 24_000_000

    def test_share_rise_with_rtt_charges_the_ramp_deficit(self):
        # same staggered config but a real RTT: the surviving flow's
        # share doubles mid-flight, and the congestion-avoidance ramp
        # model charges a strictly positive convergence lag on top of
        # the step-model time (2 x one-way delay bounds last-byte
        # delivery; the deficit is what pushes it past analytic).
        _, flows = _static_run(
            [1_000_000, 2_000_000], capacity_bps=1e9, path_delay_ns=50_000
        )
        assert flows[0].flow.fct_ns == 16_000_000 + 50_000
        assert flows[1].flow.fct_ns > 24_000_000 + 50_000

    def test_saturated_link_state_and_stats(self):
        net, _ = _static_run([1_000_000] * 2, capacity_bps=1e9)
        link = net.links[0]
        assert link.saturated
        assert net.stats_dict() == {
            "flows": 2,
            "completed": 2,
            # one epoch per flow start; the shared finish completes
            # everything and restores without another solve
            "epochs": 2,
            "solver_iterations": 2,
            # saturation flips on at the first resolve and stays
            "threshold_crossings": 1,
        }


#: small leaf-spine cross-validation: promoted (>= 1 MB) flows pooled
#: over three seeds, hybrid vs packet-exact.  The bands are the PR
#: acceptance bands; every run is seeded, so a failure is a behaviour
#: change, not noise.
_XVAL_BASE = dict(
    scheme="tcn",
    scheduler="sp_dwrr",
    topology="leafspine",
    n_leaf=2,
    n_spine=2,
    hosts_per_leaf=4,
    workload="bulk",
    workload_clip_bytes=2_000_000,
    load=0.1,
    n_flows=40,
)
_XVAL_SEEDS = (1, 2, 3)
_PROMOTION = 1_000_000


def _pooled(mode):
    fcts, goodputs = [], []
    for seed in _XVAL_SEEDS:
        result = run_experiment(
            ExperimentConfig(
                mode=mode, fluid_size_bytes=_PROMOTION, seed=seed,
                **_XVAL_BASE,
            )
        )
        for flow in result.flows:
            if flow.size_bytes >= _PROMOTION and flow.completed:
                fcts.append(flow.fct_ns)
                goodputs.append(flow.size_bytes * 8e9 / flow.fct_ns)
    return fcts, goodputs


class TestHybridAccuracyOnLeafSpine:
    @pytest.fixture(scope="class")
    def pools(self):
        return _pooled("packet"), _pooled("hybrid")

    def test_every_promoted_flow_completes_in_both_modes(self, pools):
        (ref_fcts, _), (hyb_fcts, _) = pools
        assert len(ref_fcts) == len(hyb_fcts) > 0

    def test_fct_percentiles_within_five_percent(self, pools):
        (ref_fcts, _), (hyb_fcts, _) = pools
        p50_dev = percentile(hyb_fcts, 50) / percentile(ref_fcts, 50) - 1.0
        p99_dev = percentile(hyb_fcts, 99) / percentile(ref_fcts, 99) - 1.0
        assert abs(p50_dev) <= 0.05, f"p50 deviation {p50_dev:+.1%}"
        assert abs(p99_dev) <= 0.05, f"p99 deviation {p99_dev:+.1%}"

    def test_mean_goodput_within_five_percent(self, pools):
        (_, ref_gp), (_, hyb_gp) = pools
        dev = (sum(hyb_gp) / len(hyb_gp)) / (sum(ref_gp) / len(ref_gp)) - 1.0
        assert abs(dev) <= 0.05, f"goodput deviation {dev:+.1%}"


#: digest pins for the fluid engine, captured the same way as the
#: packet engine's golden traces: run the config, sha256 the
#: json.dumps of the FCT vector.  Any change to solver arithmetic,
#: epoch ordering, promotion policy or the hybrid coupling flips one.
_FLUID_GOLDEN = {
    "star_bulk_fluid": {
        "config": dict(
            scheme="tcn", scheduler="dwrr", workload="bulk",
            workload_clip_bytes=2_000_000, load=0.3, n_flows=20,
            seed=3, mode="fluid", fluid_size_bytes=1_000_000,
        ),
        "fct_sha256": (
            "1eaa2b8806b1ac83a0a41753332e4a8377ab4973999ed1eb6499a59dd91baa50"
        ),
        "completed": 20,
        "total": 20,
        "fluid_stats": {
            "flows": 20,
            "completed": 20,
            "epochs": 39,
            "solver_iterations": 26,
            "threshold_crossings": 31,
        },
    },
    "star_bulk_hybrid": {
        "config": dict(
            scheme="tcn", scheduler="dwrr", workload="bulk",
            workload_clip_bytes=2_000_000, load=0.3, n_flows=20,
            seed=3, mode="hybrid", fluid_size_bytes=1_000_000,
        ),
        "fct_sha256": (
            "0ffc526748b3db0e6397b38355ed285cdfcf01ceacf96933c0cfb0088cb5180b"
        ),
        "completed": 20,
        "total": 20,
        "fluid_stats": {
            "flows": 9,
            "completed": 9,
            "epochs": 87,
            "solver_iterations": 28,
            "threshold_crossings": 11,
        },
    },
    # The paper's 144-host fabric (9 leaves x 4 spines x 16 hosts, 360
    # fluid links), small enough for tier-1.  Pinned on the commit
    # *before* the epoch path went linear (ISSUE 12), so it proves the
    # rewrite bit-identical at the scale it was written for.
    "leafspine144_bulk_hybrid": {
        "config": dict(
            topology="leafspine", n_leaf=9, n_spine=4, hosts_per_leaf=16,
            link_rate_bps=10**9, workload="bulk", load=0.7, n_flows=200,
            seed=100, mode="hybrid", fluid_size_bytes=1_000_000,
        ),
        "fct_sha256": (
            "f41063f87f8ef517089c0e0a5e1387f1dafbfafa38288cfa474a7c273e4ad212"
        ),
        "completed": 200,
        "total": 200,
        "fluid_stats": {
            "flows": 138,
            "completed": 138,
            "epochs": 462,
            "solver_iterations": 12416,
            "threshold_crossings": 325,
        },
    },
}


class TestFluidGoldenDigests:
    @pytest.fixture(scope="class")
    def runs(self):
        return {
            name: run_experiment(ExperimentConfig(**golden["config"]))
            for name, golden in _FLUID_GOLDEN.items()
        }

    @pytest.mark.parametrize("name", sorted(_FLUID_GOLDEN))
    def test_fct_vector_matches_golden(self, runs, name):
        fcts = [f.fct_ns for f in runs[name].flows]
        digest = hashlib.sha256(json.dumps(fcts).encode()).hexdigest()
        assert digest == _FLUID_GOLDEN[name]["fct_sha256"]

    @pytest.mark.parametrize("name", sorted(_FLUID_GOLDEN))
    def test_counters_and_fluid_stats_match_golden(self, runs, name):
        golden = _FLUID_GOLDEN[name]
        result = runs[name]
        assert result.completed == golden["completed"]
        assert result.total == golden["total"]
        assert result.profile["fluid_stats"] == golden["fluid_stats"]

    @pytest.mark.parametrize("name", sorted(_FLUID_GOLDEN))
    def test_rerun_is_bit_identical(self, runs, name):
        again = run_experiment(
            ExperimentConfig(**_FLUID_GOLDEN[name]["config"])
        )
        assert [f.fct_ns for f in again.flows] == [
            f.fct_ns for f in runs[name].flows
        ]


_CACHE_BASE = dict(
    scheme="tcn", scheduler="dwrr", workload="cache",
    load=0.5, n_flows=8, seed=1,
)


class TestModeInSweepCacheFingerprint:
    """New-field invalidation: ``mode``/``fluid_size_bytes`` are part
    of the cache identity (the fingerprint strips only the
    result-invariant execution knobs: equeue, workers, batch,
    sanitize)."""

    def test_fingerprint_includes_the_new_fields(self):
        fields = json.loads(
            config_fingerprint(ExperimentConfig(**_CACHE_BASE))
        )
        assert fields["mode"] == "packet"
        assert fields["fluid_size_bytes"] == 1_000_000

    def test_mode_change_changes_the_key(self):
        base = config_key(ExperimentConfig(**_CACHE_BASE))
        for variant in (
            ExperimentConfig(mode="hybrid", **_CACHE_BASE),
            ExperimentConfig(mode="fluid", **_CACHE_BASE),
            ExperimentConfig(fluid_size_bytes=500_000, **_CACHE_BASE),
        ):
            assert config_key(variant) != base

    def test_mode_change_is_a_cache_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(
            [ExperimentConfig(**_CACHE_BASE)], processes=0, cache=cache
        )
        hybrid = run_sweep(
            [ExperimentConfig(mode="hybrid", **_CACHE_BASE)],
            processes=0,
            cache=cache,
        )
        assert hybrid.stats.cache_hits == 0
        assert hybrid.stats.cache_misses == 1
