"""The sweep runner: caching, parallel/serial equivalence, robustness."""

import json
import multiprocessing
import os
import time

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness import sweep as sweep_mod
from repro.harness.runner import run_experiment
from repro.harness.sweep import (
    ResultCache,
    config_fingerprint,
    config_key,
    run_sweep,
)
from repro.units import GBPS, KB, MB, MSEC, USEC

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

BASE = dict(scheduler="dwrr", workload="cache", load=0.5, n_flows=8)


def _grid():
    """Four small configs: 2 schemes x 2 seeds (the acceptance grid)."""
    return [
        ExperimentConfig(scheme=scheme, seed=seed, **BASE)
        for scheme in ("tcn", "red_std")
        for seed in (1, 2)
    ]


def _canon(result):
    return json.dumps(result.payload(), sort_keys=True)


def _entry(key, drop=(), **changes):
    """A cache entry whose payload decodes unless ``changes``/``drop``
    break it."""
    payload = {
        "summary": None, "completed": 0, "total": 0, "timeouts": 0,
        "timeouts_small": 0, "drops": 0, "marks": 0, "sim_ns": 0,
        "events": 0, "flow_stats": [], "metrics": {}, "heap_hwm": 0,
    }
    payload.update(changes)
    for name in drop:
        del payload[name]
    return {"key": key, "wall_s": 0.0, "payload": payload}


class TestConfigKey:
    def test_stable_across_instances(self):
        a = ExperimentConfig(scheme="tcn", seed=1, **BASE)
        b = ExperimentConfig(scheme="tcn", seed=1, **BASE)
        assert config_key(a) == config_key(b)

    def test_any_field_change_changes_key(self):
        base = ExperimentConfig(scheme="tcn", seed=1, **BASE)
        for variant in (
            ExperimentConfig(scheme="red_std", seed=1, **BASE),
            ExperimentConfig(scheme="tcn", seed=2, **BASE),
            ExperimentConfig(scheme="tcn", seed=1, **{**BASE, "load": 0.6}),
        ):
            assert config_key(base) != config_key(variant)

    def test_code_version_is_part_of_key(self, monkeypatch):
        cfg = ExperimentConfig(scheme="tcn", seed=1, **BASE)
        before = config_key(cfg)
        monkeypatch.setattr(sweep_mod, "_CODE_VERSION", "deadbeefdeadbeef")
        assert config_key(cfg) != before

    def test_fingerprints_pinned(self):
        """Cache identity is a literal: dropping a field the key already
        excluded leaves these bytes unchanged, and any edit to a keyed
        field fails here — only ``code_version()`` may move a key."""
        assert config_fingerprint(ExperimentConfig()) == _DEFAULT_FINGERPRINT
        fabric = ExperimentConfig(
            scheme="tcn", scheduler="sp_dwrr", transport="dctcp",
            topology="leafspine", n_leaf=2, n_spine=2, hosts_per_leaf=3,
            link_rate_bps=10 * GBPS, buffer_bytes=300 * KB,
            base_rtt_ns=85_200, n_queues=8, n_high=1, pias=True,
            workload="mixed", workload_clip_bytes=20 * MB, load=0.6,
            init_cwnd=16, min_rto_ns=5 * MSEC,
            red_threshold_bytes=65 * 1500, tcn_threshold_ns=78 * USEC,
            n_flows=400, seed=1,
        )
        assert config_fingerprint(fabric) == _FABRIC_FINGERPRINT


_DEFAULT_FINGERPRINT = (
    '{"base_rtt_ns":250000,"buffer_bytes":96000,"codel_interval_ns":null,'
    '"codel_target_ns":null,"dq_thresh_bytes":10000,'
    '"fluid_size_bytes":1000000,"hosts_per_leaf":4,"init_cwnd":16.0,'
    '"lam":1.0,"link_delay_ns":null,"link_rate_bps":1000000000,"load":0.6,'
    '"max_cwnd_bdp_factor":4.0,"max_sim_ns":0,"max_warm_cwnd":64.0,'
    '"min_rto_ns":10000000,"mode":"packet","n_flows":200,'
    '"n_high":1,"n_hosts":9,"n_leaf":4,"n_queues":4,"n_spine":4,'
    '"persistent_connections":false,"pias":false,'
    '"red_threshold_bytes":null,"scheduler":"dwrr","scheme":"tcn","seed":1,'
    '"tcn_threshold_ns":null,"topology":"star","transport":"dctcp",'
    '"workload":"websearch","workload_clip_bytes":null}'
)

_FABRIC_FINGERPRINT = (
    '{"base_rtt_ns":85200,"buffer_bytes":300000,"codel_interval_ns":null,'
    '"codel_target_ns":null,"dq_thresh_bytes":10000,'
    '"fluid_size_bytes":1000000,"hosts_per_leaf":3,"init_cwnd":16,'
    '"lam":1.0,"link_delay_ns":null,"link_rate_bps":10000000000,"load":0.6,'
    '"max_cwnd_bdp_factor":4.0,"max_sim_ns":0,"max_warm_cwnd":64.0,'
    '"min_rto_ns":5000000,"mode":"packet","n_flows":400,'
    '"n_high":1,"n_hosts":9,"n_leaf":2,"n_queues":8,"n_spine":2,'
    '"persistent_connections":false,"pias":true,'
    '"red_threshold_bytes":97500,"scheduler":"sp_dwrr","scheme":"tcn",'
    '"seed":1,"tcn_threshold_ns":78000,"topology":"leafspine",'
    '"transport":"dctcp","workload":"mixed","workload_clip_bytes":20000000}'
)


class TestSerial:
    def test_matches_run_experiment(self):
        cfg = ExperimentConfig(scheme="tcn", seed=1, **BASE)
        direct = run_experiment(cfg)
        outcome = run_sweep([cfg], processes=0)
        res = outcome[0]
        assert res.ok and not res.from_cache
        assert res.completed == direct.completed
        assert res.total == direct.total
        assert res.drops == direct.drops
        assert res.marks == direct.marks
        assert res.sim_ns == direct.sim_ns
        assert res.events == direct.events
        assert res.summary.avg_all_ns == direct.summary.avg_all_ns
        assert res.flow_stats == [
            (f.size_bytes, f.fct_ns) for f in direct.flows if f.completed
        ]
        assert res.all_completed

    def test_results_in_input_order(self):
        configs = _grid()
        outcome = run_sweep(configs, processes=0)
        assert [r.config.scheme for r in outcome] == [
            c.scheme for c in configs
        ]
        assert [r.config.seed for r in outcome] == [c.seed for c in configs]

    def test_exception_becomes_structured_error(self, monkeypatch):
        def boom(cfg):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(sweep_mod, "_execute_config", boom)
        outcome = run_sweep([ExperimentConfig(scheme="tcn", **BASE)], processes=0)
        res = outcome[0]
        assert not res.ok and not outcome.ok
        assert res.error.kind == "exception"
        assert "injected failure" in res.error.traceback
        assert outcome.stats.errors == 1

    def test_progress_callback_fires_per_config(self):
        seen = []
        run_sweep(
            _grid()[:2],
            processes=0,
            progress=lambda done, total, res: seen.append((done, total, res.ok)),
        )
        assert seen == [(1, 2, True), (2, 2, True)]


@pytest.mark.skipif(not HAS_FORK, reason="parallel sweeps need fork")
class TestParallel:
    def test_parallel_results_byte_identical_to_serial(self):
        configs = _grid()
        serial = run_sweep(configs, processes=0)
        parallel = run_sweep(configs, processes=2)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.ok and b.ok
            assert _canon(a) == _canon(b)

    def test_crashed_worker_is_reported_not_hung(self, monkeypatch):
        real = sweep_mod._execute_config

        def crash_on_seed_2(cfg):
            if cfg.seed == 2:
                os._exit(17)
            return real(cfg)

        monkeypatch.setattr(sweep_mod, "_execute_config", crash_on_seed_2)
        configs = _grid()
        outcome = run_sweep(configs, processes=2)
        by_seed = {(r.config.scheme, r.config.seed): r for r in outcome}
        for (_, seed), res in by_seed.items():
            if seed == 2:
                assert res.error is not None and res.error.kind == "crash"
                assert res.error.exitcode == 17
            else:
                assert res.ok
        assert outcome.stats.errors == 2

    def test_timed_out_worker_is_terminated(self, monkeypatch):
        real = sweep_mod._execute_config

        def hang_on_seed_2(cfg):
            if cfg.seed == 2:
                time.sleep(300)
            return real(cfg)

        monkeypatch.setattr(sweep_mod, "_execute_config", hang_on_seed_2)
        configs = [
            ExperimentConfig(scheme="tcn", seed=seed, **BASE)
            for seed in (1, 2)
        ]
        start = time.monotonic()
        outcome = run_sweep(configs, processes=2, timeout_s=2.0)
        assert time.monotonic() - start < 60  # returned, did not hang
        ok, timed_out = outcome[0], outcome[1]
        assert ok.ok
        assert timed_out.error is not None
        assert timed_out.error.kind == "timeout"


class TestCache:
    def test_hit_on_identical_config(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = ExperimentConfig(scheme="tcn", seed=1, **BASE)
        first = run_sweep([cfg], processes=0, cache=cache)
        assert first.stats.cache_hits == 0 and first.stats.cache_misses == 1
        assert not first[0].from_cache

        again = run_sweep([cfg], processes=0, cache=cache)
        assert again.stats.cache_hits == 1 and again.stats.cache_misses == 0
        assert again[0].from_cache
        assert _canon(first[0]) == _canon(again[0])

    def test_miss_after_config_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(
            [ExperimentConfig(scheme="tcn", seed=1, **BASE)],
            processes=0, cache=cache,
        )
        changed = run_sweep(
            [ExperimentConfig(scheme="tcn", seed=1, **{**BASE, "load": 0.6})],
            processes=0, cache=cache,
        )
        assert changed.stats.cache_hits == 0
        assert changed.stats.cache_misses == 1

    def test_miss_after_code_change(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cfg = ExperimentConfig(scheme="tcn", seed=1, **BASE)
        run_sweep([cfg], processes=0, cache=cache)
        monkeypatch.setattr(sweep_mod, "_CODE_VERSION", "0123456789abcdef")
        again = run_sweep([cfg], processes=0, cache=cache)
        assert again.stats.cache_hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = ExperimentConfig(scheme="tcn", seed=1, **BASE)
        run_sweep([cfg], processes=0, cache=cache)
        path = cache.path_for(config_key(cfg))
        with open(path, "w") as fh:
            fh.write("{ not json")
        again = run_sweep([cfg], processes=0, cache=cache)
        assert again.stats.cache_hits == 0
        assert again[0].ok  # re-ran and re-cached

    @pytest.mark.parametrize(
        "blob",
        [
            lambda key: None,
            lambda key: [],
            lambda key: {"key": key, "payload": {}},
            lambda key: {"key": key, "payload": 3},
            lambda key: _entry(key, summary={"bogus": 1}),
            lambda key: _entry(key, flow_stats=7),
            lambda key: _entry(key, completed="1"),
            lambda key: _entry(key, drop=("events", "metrics", "heap_hwm")),
        ],
        ids=[
            "null", "list", "empty-payload", "int-payload", "bogus-summary",
            "int-flow-stats", "str-counter", "older-payload",
        ],
    )
    def test_wrong_shape_entry_is_a_miss_and_heals(self, tmp_path, blob):
        """Valid JSON of the wrong shape used to crash the whole sweep or
        load as a result; every entry that does not decode is a miss."""
        cache = ResultCache(tmp_path)
        cfg = ExperimentConfig(scheme="tcn", seed=1, **BASE)
        path = cache.path_for(config_key(cfg))
        with open(path, "w") as fh:
            json.dump(blob(config_key(cfg)), fh)
        first = run_sweep([cfg], processes=0, cache=cache)
        assert first[0].ok and not first[0].from_cache
        assert first.stats.cache_hits == 0 and first.stats.cache_misses == 1
        # the re-run overwrote the bad entry: the next call is a clean hit
        again = run_sweep([cfg], processes=0, cache=cache)
        assert again[0].ok and again[0].from_cache
        assert again.stats.cache_hits == 1
        assert _canon(first[0]) == _canon(again[0])

    def test_errors_are_not_cached(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cfg = ExperimentConfig(scheme="tcn", seed=1, **BASE)

        def boom(c):
            raise RuntimeError("no")

        monkeypatch.setattr(sweep_mod, "_execute_config", boom)
        run_sweep([cfg], processes=0, cache=cache)
        assert not os.path.exists(cache.path_for(config_key(cfg)))

    @pytest.mark.skipif(not HAS_FORK, reason="parallel sweeps need fork")
    def test_parallel_sweep_rerun_served_from_cache(self, tmp_path):
        """Acceptance: a >= 4-config sweep at processes >= 2 matches the
        serial path, and re-running it is served >= 90% from cache."""
        cache = ResultCache(tmp_path)
        configs = _grid()
        serial = run_sweep(configs, processes=0)
        first = run_sweep(configs, processes=2, cache=cache)
        assert first.stats.cache_hits == 0
        for a, b in zip(serial, first):
            assert _canon(a) == _canon(b)

        again = run_sweep(configs, processes=2, cache=cache)
        assert again.stats.cache_hits >= 0.9 * len(configs)  # all 4, in fact
        assert again.stats.cache_hits == len(configs)
        for a, b in zip(first, again):
            assert b.from_cache
            assert _canon(a) == _canon(b)


class TestBenchlibRouting:
    def test_run_schemes_routes_through_sweep_cache(self, tmp_path, monkeypatch):
        from benchmarks import benchlib

        monkeypatch.setattr(benchlib, "CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SWEEP_PROCESSES", "0")
        out = benchlib.run_schemes(("tcn", "red_std"), **BASE)
        assert set(out) == {"tcn", "red_std"}
        assert all(not r.from_cache for r in out.values())
        out2 = benchlib.run_schemes(("tcn", "red_std"), **BASE)
        assert all(r.from_cache for r in out2.values())
        assert out["tcn"].summary.avg_all_ns == out2["tcn"].summary.avg_all_ns

    def test_run_schemes_pooled_matches_direct_runs(self, tmp_path, monkeypatch):
        from benchmarks import benchlib

        monkeypatch.setattr(benchlib, "CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SWEEP_PROCESSES", "0")
        pooled = benchlib.run_schemes_pooled(("tcn",), seeds=(1, 2), **BASE)
        direct = [
            run_experiment(ExperimentConfig(scheme="tcn", seed=s, **BASE))
            for s in (1, 2)
        ]
        expected = benchlib.PooledResult(direct)
        got = pooled["tcn"]
        assert got.summary.n_flows == expected.summary.n_flows
        assert got.summary.avg_all_ns == expected.summary.avg_all_ns
        assert got.summary.p99_small_ns == expected.summary.p99_small_ns
        assert got.drops == expected.drops
        assert got.timeouts == expected.timeouts

    def test_sweep_failure_raises(self, tmp_path, monkeypatch):
        from benchmarks import benchlib

        monkeypatch.setattr(benchlib, "CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SWEEP_PROCESSES", "0")

        def boom(cfg):
            raise RuntimeError("injected")

        monkeypatch.setattr(sweep_mod, "_execute_config", boom)
        with pytest.raises(RuntimeError, match="sweep failed"):
            benchlib.run_schemes(("tcn",), **BASE)


class TestSweepCli:
    def test_cli_sweep_serial_with_cache(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = [
            "sweep", "--scheme", "tcn", "--load", "0.5", "--flows", "8",
            "--workload", "cache", "--seed", "1", "--seed", "2",
            "--processes", "0", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 configs" in out and "0 cache hits" in out

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cache hits" in out

    def test_cli_sweep_no_cache(self, capsys):
        from repro.__main__ import main

        rc = main([
            "sweep", "--scheme", "tcn", "--load", "0.5", "--flows", "8",
            "--workload", "cache", "--processes", "0", "--no-cache",
        ])
        assert rc == 0
        assert "cache hits" in capsys.readouterr().out


class TestResolveProcesses:
    """The spawn-safe bootstrap decision: worker count + start method."""

    def test_serial_when_requested(self):
        assert sweep_mod._resolve_processes(0, 10) == (0, None)
        assert sweep_mod._resolve_processes(1, 10) == (0, None)

    def test_serial_when_single_config(self):
        n, method = sweep_mod._resolve_processes(8, 1)
        assert n == 0 and method is None

    def test_workers_clamped_to_config_count(self):
        n, method = sweep_mod._resolve_processes(8, 3)
        assert n == 3 and method in sweep_mod._START_METHODS

    def test_prefers_fork_over_spawn(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods",
            lambda: ["spawn", "forkserver", "fork"],
        )
        assert sweep_mod._resolve_processes(2, 4) == (2, "fork")

    def test_falls_back_to_spawn(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert sweep_mod._resolve_processes(2, 4) == (2, "spawn")


@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn unavailable",
)
class TestSpawnBootstrap:
    def test_sweep_runs_under_spawn(self, monkeypatch):
        """The worker entry point must bootstrap without inheriting the
        parent's interpreter state (the spawn-safety contract)."""
        configs = _grid()[:2]
        serial = run_sweep(configs, processes=0)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        spawned = run_sweep(configs, processes=2)
        assert spawned.ok
        for a, b in zip(serial, spawned):
            assert _canon(a) == _canon(b)


class TestAtomicCacheWrites:
    def test_truncated_entry_is_a_miss_not_a_crash(self, tmp_path):
        """Inject the torn write os.replace() exists to prevent: a valid
        JSON prefix cut mid-payload must read as a miss and be re-run."""
        cache = ResultCache(tmp_path)
        cfg = ExperimentConfig(scheme="tcn", seed=1, **BASE)
        run_sweep([cfg], processes=0, cache=cache)
        path = cache.path_for(config_key(cfg))
        whole = open(path).read()
        with open(path, "w") as fh:
            fh.write(whole[: len(whole) // 2])
        again = run_sweep([cfg], processes=0, cache=cache)
        assert again.stats.cache_hits == 0
        assert again[0].ok
        # the re-run republished a complete entry
        final = run_sweep([cfg], processes=0, cache=cache)
        assert final.stats.cache_hits == 1

    def test_failed_put_leaves_no_entry_and_no_tmp(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cfg = ExperimentConfig(scheme="tcn", seed=1, **BASE)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(sweep_mod.os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            cache.put(cfg, {"fake": 1}, 0.0)
        assert os.listdir(tmp_path) == []  # no final entry, no *.tmp.*

    def test_put_is_atomic_under_concurrent_read(self, tmp_path):
        """A reader polling during put() only ever sees a complete entry."""
        cache = ResultCache(tmp_path)
        cfg = ExperimentConfig(scheme="tcn", seed=1, **BASE)
        real_replace = os.replace
        observed = []

        def racing_replace(src, dst):
            # the moment before publication: the reader must miss
            observed.append(cache.get(cfg))
            real_replace(src, dst)
            # the moment after: the reader must hit the complete entry
            observed.append(cache.get(cfg))

        import unittest.mock as mock

        with mock.patch.object(sweep_mod.os, "replace", racing_replace):
            cache.put(cfg, {"fake": 1}, 0.0)
        before, after = observed
        assert before is None
        assert after is not None and after["payload"] == {"fake": 1}
