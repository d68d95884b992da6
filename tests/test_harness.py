"""Harness: config validation, scheme registries, end-to-end runs."""

import multiprocessing.process

import pytest

from repro.harness import sweep
from repro.harness.config import ExperimentConfig
from repro.harness.report import format_fct_rows, format_table
from repro.harness.runner import preflight, run_experiment
from repro.harness.schemes import SCHEDULERS, SCHEMES, TRANSPORTS
from repro.sim.engine import Simulator
from repro.units import GBPS, KB, USEC


class TestConfig:
    def test_default_thresholds_follow_equations(self):
        cfg = ExperimentConfig(link_rate_bps=GBPS, base_rtt_ns=250 * USEC)
        assert cfg.effective_red_threshold_bytes == 31_250
        assert cfg.effective_tcn_threshold_ns == 250 * USEC

    def test_pinned_thresholds_win(self):
        cfg = ExperimentConfig(
            red_threshold_bytes=30 * KB, tcn_threshold_ns=100 * USEC
        )
        assert cfg.effective_red_threshold_bytes == 30 * KB
        assert cfg.effective_tcn_threshold_ns == 100 * USEC

    def test_codel_defaults_scale_with_rtt(self):
        cfg = ExperimentConfig(base_rtt_ns=250 * USEC)
        assert cfg.effective_codel_target_ns == 50 * USEC
        assert cfg.effective_codel_interval_ns == 1000 * USEC

    def test_lambda_scales_both(self):
        cfg = ExperimentConfig(
            link_rate_bps=GBPS, base_rtt_ns=200 * USEC, lam=0.5
        )
        assert cfg.effective_red_threshold_bytes == 12_500
        assert cfg.effective_tcn_threshold_ns == 100 * USEC

    def test_validation_load(self):
        with pytest.raises(ValueError, match="load"):
            preflight(ExperimentConfig(load=0.0))

    def test_validation_topology(self):
        with pytest.raises(ValueError):
            ExperimentConfig(topology="ring").validate()

    def test_validation_sp_needs_high_queue(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scheduler="sp_dwrr", n_queues=2, n_high=2).validate()

    def test_validation_pias_needs_sp(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scheduler="dwrr", pias=True).validate()

    @pytest.mark.parametrize("fields, field", [
        (dict(scheme="nope"), "scheme"),
        (dict(scheduler="nope"), "scheduler"),
        (dict(transport="nope"), "transport"),
        (dict(scheduler="sp", pias=True, n_queues=4, n_high=4), "n_high"),
        (dict(scheduler="sp", pias=True, n_high=0), "n_high"),
        (dict(link_rate_bps=0), "link_rate_bps"),
        (dict(link_rate_bps=-GBPS), "link_rate_bps"),
        (dict(max_sim_ns=-1), "max_sim_ns"),
        (dict(n_queues=0), "n_queues"),
        (dict(scheduler="fifo", n_queues=0), "n_services"),
        (dict(scheduler="fifo", n_queues=0, topology="leafspine"),
         "n_services"),
        (dict(min_rto_ns=0), "min_rto_ns"),
        (dict(min_rto_ns=-1), "min_rto_ns"),
        (dict(n_hosts=1), "n_hosts"),
        (dict(topology="leafspine", n_leaf=0), "n_leaf"),
        (dict(topology="leafspine", n_spine=0), "n_spine"),
        (dict(topology="leafspine", hosts_per_leaf=0), "hosts_per_leaf"),
        (dict(topology="leafspine", n_leaf=1, hosts_per_leaf=1),
         "hosts_per_leaf"),
        (dict(base_rtt_ns=-1), "base_rtt_ns"),
        (dict(link_delay_ns=-1), "link_delay_ns"),
        (dict(mode="fluid"), "fluid_size_bytes=1"),
        (dict(scheme="tcn", lam=0), "lam"),
        (dict(scheme="tcn", tcn_threshold_ns=0), "tcn_threshold_ns"),
        (dict(scheme="codel", codel_target_ns=0), "codel_target_ns"),
        (dict(scheme="codel", codel_interval_ns=0), "codel_interval_ns"),
        (dict(scheme="codel", base_rtt_ns=0), "base_rtt_ns"),
        (dict(scheme="mqecn", scheduler="wfq"), "scheduler"),
        (dict(scheme="mqecn", scheduler="sp"), "scheduler"),
        (dict(scheme="red_std", red_threshold_bytes=-1), "red_threshold_bytes"),
        (dict(scheme="dequeue_red", red_threshold_bytes=-1),
         "red_threshold_bytes"),
        (dict(scheme="perport_red", red_threshold_bytes=-1),
         "red_threshold_bytes"),
        (dict(scheme="ideal", dq_thresh_bytes=0), "dq_thresh_bytes"),
        (dict(workload_clip_bytes=0), "workload_clip_bytes"),
        (dict(workload_clip_bytes=1460), "workload_clip_bytes"),
        (dict(topology="leafspine", workload="mixed",
              workload_clip_bytes=1000), "workload_clip_bytes"),
    ], ids=[
        "unknown-scheme", "unknown-scheduler", "unknown-transport",
        "pias-no-low-band", "pias-no-high-band",
        "zero-rate", "negative-rate", "negative-deadline", "no-queues",
        "fifo-no-queues", "fabric-fifo-no-queues", "zero-rto",
        "negative-rto", "one-host-star", "no-leaves",
        "no-spines", "no-hosts-per-leaf", "one-host-fabric",
        "negative-rtt", "negative-link-delay", "fluid-mode",
        "tcn-zero-lambda", "tcn-zero-threshold",
        "codel-zero-target", "codel-zero-interval", "codel-zero-rtt",
        "mqecn-on-wfq", "mqecn-on-sp", "red-negative-threshold",
        "dequeue-red-negative-threshold", "perport-red-negative-threshold",
        "ideal-zero-dq-thresh", "zero-clip",
        "clip-at-smallest-size", "mixed-clip-below-websearch",
    ])
    def test_validation_names_the_field(self, fields, field, monkeypatch):
        """Each of these used to pass validate() and then crash deep in
        the run, hang it, or quietly return nothing (``mode="fluid"`` is
        the deleted spelling of hybrid mode at ``fluid_size_bytes=1``).
        Whether validate() or a constructor refuses it, a run raises
        before its first event and a sweep before its first worker."""

        def never(*args, **kwargs):
            raise AssertionError("refused too late")

        monkeypatch.setattr(Simulator, "run", never)
        with pytest.raises(ValueError, match=field):
            run_experiment(ExperimentConfig(**fields))

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", never)
        monkeypatch.setattr(sweep, "_execute_config", never)
        grid = [ExperimentConfig(n_flows=4), ExperimentConfig(**fields)]
        with pytest.raises(ValueError, match=field):
            sweep.run_sweep(grid, processes=2)

    def test_validation_keeps_legal_edges(self):
        """Each of these passes validate() and every constructor check."""
        preflight(ExperimentConfig(max_sim_ns=0))  # 0 means auto
        preflight(ExperimentConfig(max_sim_ns=1000))  # a partial run
        preflight(ExperimentConfig(scheduler="sp", pias=True, n_high=3))
        preflight(ExperimentConfig(n_hosts=2))
        preflight(ExperimentConfig(topology="leafspine", n_leaf=1,
                                   hosts_per_leaf=2, n_spine=1))
        preflight(ExperimentConfig(n_hosts=1, topology="leafspine"))  # star only
        preflight(ExperimentConfig(link_delay_ns=0))
        preflight(ExperimentConfig(codel_target_ns=0))  # tcn ignores CoDel's
        preflight(ExperimentConfig(workload_clip_bytes=1461))
        for scheduler in ("wrr", "dwrr", "sp_dwrr"):  # round-robin: rounds
            preflight(ExperimentConfig(scheme="mqecn", scheduler=scheduler))


class TestRegistries:
    def test_all_paper_schemes_present(self):
        for name in ("tcn", "codel", "mqecn", "red_std", "dequeue_red",
                     "perport_red", "ideal"):
            assert name in SCHEMES

    def test_all_paper_schedulers_present(self):
        for name in ("dwrr", "wfq", "sp_dwrr", "sp_wfq", "sp", "wrr", "pifo"):
            assert name in SCHEDULERS

    def test_transports(self):
        assert set(TRANSPORTS) == {"dctcp", "ecnstar", "reno"}

    def test_factories_produce_fresh_instances(self):
        cfg = ExperimentConfig()
        make_aqm, make_sched = SCHEMES["tcn"](cfg), SCHEDULERS["dwrr"](cfg)
        assert make_aqm() is not make_aqm()
        assert make_sched().queues[0] is not make_sched().queues[0]


class TestRunExperiment:
    def test_small_star_run(self):
        cfg = ExperimentConfig(
            scheme="tcn", scheduler="dwrr", workload="websearch",
            load=0.5, n_flows=20, n_queues=4, seed=1,
        )
        res = run_experiment(cfg)
        assert res.all_completed
        assert res.summary.n_flows == 20
        assert res.summary.avg_all_ns > 0
        assert res.marks >= 0 and res.drops >= 0

    def test_deterministic(self):
        cfg = dict(scheme="tcn", scheduler="dwrr", workload="cache",
                   load=0.5, n_flows=15, seed=3)
        a = run_experiment(ExperimentConfig(**cfg))
        b = run_experiment(ExperimentConfig(**cfg))
        assert a.summary.avg_all_ns == b.summary.avg_all_ns
        assert a.marks == b.marks and a.drops == b.drops

    def test_seed_changes_traffic(self):
        base = dict(scheme="tcn", scheduler="dwrr", workload="cache",
                    load=0.5, n_flows=15)
        a = run_experiment(ExperimentConfig(seed=1, **base))
        b = run_experiment(ExperimentConfig(seed=2, **base))
        assert a.summary.avg_all_ns != b.summary.avg_all_ns

    def test_pias_run(self):
        cfg = ExperimentConfig(
            scheme="tcn", scheduler="sp_wfq", n_queues=5, n_high=1,
            pias=True, workload="cache", load=0.5, n_flows=20, seed=2,
        )
        res = run_experiment(cfg)
        assert res.all_completed

    def test_leafspine_mixed_run(self):
        cfg = ExperimentConfig(
            scheme="tcn", scheduler="sp_dwrr", topology="leafspine",
            n_leaf=2, n_spine=2, hosts_per_leaf=2, link_rate_bps=10 * GBPS,
            buffer_bytes=300 * KB, base_rtt_ns=85_200, n_queues=4,
            pias=True, transport="dctcp", workload="mixed", load=0.4,
            n_flows=30, min_rto_ns=5_000_000, seed=4,
        )
        res = run_experiment(cfg)
        assert res.all_completed

    def test_identical_workload_across_schemes(self):
        """Same seed, different scheme: the flow list must be identical
        (size, src, dst, start), or scheme comparisons are invalid."""
        base = dict(scheduler="dwrr", workload="websearch", load=0.6,
                    n_flows=25, seed=9)
        a = run_experiment(ExperimentConfig(scheme="tcn", **base))
        b = run_experiment(ExperimentConfig(scheme="red_std", **base))
        key = lambda fl: [(f.id, f.src, f.dst, f.size_bytes) for f in fl]
        assert key(a.flows) == key(b.flows)


class TestDrainedHeapReturnsPromptly:
    def test_stalled_flow_does_not_busy_spin(self, monkeypatch):
        """Regression: when the event heap drains before every flow has
        completed (a stalled flow has no timers pending, so nothing can
        ever finish it), run_experiment must return promptly with
        ``completed < total`` instead of spinning in 50 ms chunks all the
        way to a distant deadline."""
        import repro.harness.runner as runner_mod
        from repro.units import SEC

        # wire every flow but the last: that flow never starts, so the
        # heap drains once the other nine finish
        real_wire = runner_mod._wire_endpoints

        def wire_all_but_last(sim, cfg, topo, flows, *rest):
            return real_wire(sim, cfg, topo, flows[:-1], *rest)

        monkeypatch.setattr(runner_mod, "_wire_endpoints", wire_all_but_last)

        # a busy-spinning loop calls sim.run once per 50 ms chunk; with a
        # one-hour deadline that is 72,000 calls — fail fast way earlier
        calls = {"n": 0}

        class CountingSim(runner_mod.Simulator):
            def run(self, *args, **kwargs):
                calls["n"] += 1
                assert calls["n"] < 2_000, "runner busy-spins on drained heap"
                return super().run(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "Simulator", CountingSim)

        cfg = ExperimentConfig(
            scheme="tcn", scheduler="dwrr", workload="cache",
            load=0.5, n_flows=10, seed=1, max_sim_ns=3600 * SEC,
        )
        res = runner_mod.run_experiment(cfg)
        assert res.completed == res.total - 1
        assert not res.all_completed


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_fct_rows_normalizes_to_tcn(self):
        base = dict(scheduler="dwrr", workload="cache", load=0.5,
                    n_flows=15, seed=3)
        results = {
            "tcn": run_experiment(ExperimentConfig(scheme="tcn", **base)),
            "red_std": run_experiment(ExperimentConfig(scheme="red_std", **base)),
        }
        out = format_fct_rows(results)
        assert "tcn" in out and "red_std" in out
        assert "1.00" in out  # tcn normalized to itself
