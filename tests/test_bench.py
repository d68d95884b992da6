"""The bench subsystem: scenario runs, JSON emission, regression gate."""

import json

import pytest

from repro.bench import (
    SCENARIOS,
    BenchResult,
    compare_results,
    load_results,
    run_scenario,
    write_result,
)
from repro.bench.cli import main as bench_main


def _result(scenario="port_saturation", eps=100_000.0, **kw):
    defaults = dict(
        scenario=scenario,
        events=1000,
        wall_s=0.01,
        events_per_sec=eps,
        heap_hwm=10,
        rss_hwm_bytes=0,
        fingerprint={"completed": 30, "total": 30},
    )
    defaults.update(kw)
    return BenchResult(**defaults)


class TestScenarios:
    def test_the_pinned_scenarios_exist(self):
        assert set(SCENARIOS) == {
            "engine_churn",
            "port_saturation",
            "incast",
            "leafspine_slice",
            "leafspine_full",
            "leafspine_fluid",
        }

    def test_run_scenario_produces_metrics(self):
        result = run_scenario("port_saturation")
        assert result.events > 0
        assert result.events_per_sec > 0
        assert result.wall_s > 0
        assert result.heap_hwm > 0
        assert result.fingerprint["completed"] == 30
        # packets flowed, so the freelist was exercised
        alloc = result.allocations
        assert alloc["packets_allocated"] + alloc["packets_reused"] > 0

    def test_engine_churn_needs_no_network(self):
        result = run_scenario("engine_churn")
        assert result.events == 200_001
        assert result.fingerprint["sim_ns"] == result.events * 10 - 10
        assert result.allocations == {
            "packets_allocated": 0,
            "packets_reused": 0,
        }

    def test_repeat_keeps_deterministic_fingerprint(self):
        result = run_scenario("port_saturation", repeat=2)
        assert result.repeat == 2
        assert result.fingerprint["completed"] == 30


class TestJsonRoundTrip:
    def test_write_then_load(self, tmp_path):
        result = _result()
        path = write_result(result, str(tmp_path))
        assert path.endswith("BENCH_port_saturation.json")
        loaded = load_results(str(tmp_path))
        assert set(loaded) == {"port_saturation"}
        back = loaded["port_saturation"]
        assert back.events_per_sec == result.events_per_sec
        assert back.fingerprint == result.fingerprint

    def test_load_single_file(self, tmp_path):
        path = write_result(_result(), str(tmp_path))
        assert "port_saturation" in load_results(path)

    def test_load_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_results(str(tmp_path))

    def test_json_is_versioned_and_sorted(self, tmp_path):
        path = write_result(_result(), str(tmp_path))
        with open(path) as fh:
            data = json.load(fh)
        assert data["schema"] == 1
        assert list(data) == sorted(data)

    def test_old_baseline_with_parallel_keys_still_loads(self, tmp_path):
        # files written while a partitioned engine existed carry its keys;
        # the reader ignores them and writes none back
        old = {
            "scenario": "leafspine_slice", "events": 1000,
            "wall_s": 0.01, "events_per_sec": 1e5,
            "fingerprint": {"completed": 120, "total": 120},
            "workers": 2, "cpu_count": 8, "rounds": 1234,
            "sync_stall_s": 0.5, "start_method": "fork",
            "phase_stats": {"rounds": 1234, "phases": {}},
        }
        path = tmp_path / "BENCH_leafspine_slice.json"
        path.write_text(json.dumps(old))
        back = load_results(str(path))["leafspine_slice"]
        assert back.events_per_sec == 1e5
        assert back.fingerprint == old["fingerprint"]
        assert "rounds" not in back.as_dict()
        assert "workers" not in back.describe()

    def test_fluid_fields_round_trip(self, tmp_path):
        stats = {"flows": 71, "completed": 71, "epochs": 285,
                 "solver_iterations": 300, "threshold_crossings": 12}
        result = _result(mode="hybrid", fluid_stats=stats)
        path = write_result(result, str(tmp_path))
        back = load_results(path)["port_saturation"]
        assert back.mode == "hybrid"
        assert back.fluid_stats == stats

    def test_fluid_fields_default_for_old_baselines(self):
        old = {
            "scenario": "port_saturation", "events": 1000,
            "wall_s": 0.01, "events_per_sec": 1e5,
        }
        back = BenchResult.from_dict(old)
        assert back.mode == "packet"
        assert back.fluid_stats == {}


class TestRegressionGate:
    def test_equal_throughput_is_ok(self):
        (cmp,) = compare_results([_result()], {"port_saturation": _result()})
        assert not cmp.regressed
        assert cmp.ratio == 1.0

    def test_small_loss_within_threshold_is_ok(self):
        new = _result(eps=80_000.0)
        (cmp,) = compare_results([new], {"port_saturation": _result()})
        assert not cmp.regressed  # -20% < 30% threshold

    def test_large_loss_regresses(self):
        new = _result(eps=60_000.0)
        (cmp,) = compare_results([new], {"port_saturation": _result()})
        assert cmp.regressed  # -40% > 30% threshold

    def test_custom_threshold(self):
        new = _result(eps=80_000.0)
        (cmp,) = compare_results(
            [new], {"port_saturation": _result()}, threshold=0.1
        )
        assert cmp.regressed

    def test_missing_baseline_scenario_is_skipped(self):
        assert compare_results([_result(scenario="incast")], {}) == []

    def test_fingerprint_change_is_flagged_not_failed(self):
        new = _result(fingerprint={"completed": 29, "total": 30})
        (cmp,) = compare_results([new], {"port_saturation": _result()})
        assert cmp.fingerprint_changed
        assert not cmp.regressed
        assert "fingerprint changed" in cmp.describe()

    def test_serial_compare_output_stays_clean(self):
        (cmp,) = compare_results([_result()], {"port_saturation": _result()})
        assert "rounds" not in cmp.describe()


class TestCli:
    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_mode_override_on_flowless_scenario_is_a_clean_error(
        self, tmp_path, capsys
    ):
        code = bench_main(
            ["-s", "engine_churn", "--mode", "hybrid",
             "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: engine_churn" in err
        assert "no flows to promote" in err

    def test_run_and_self_compare_passes(self, tmp_path, capsys):
        out_dir = str(tmp_path / "a")
        assert bench_main(["-s", "port_saturation", "--out", out_dir]) == 0
        assert (
            bench_main(
                [
                    "-s",
                    "port_saturation",
                    "--out",
                    str(tmp_path / "b"),
                    "--compare",
                    out_dir,
                ]
            )
            == 0
        )

    def test_compare_fails_on_regression(self, tmp_path):
        # fabricate an impossibly fast baseline: the real run must lose
        write_result(_result(eps=1e12), str(tmp_path))
        code = bench_main(
            [
                "-s",
                "port_saturation",
                "--out",
                str(tmp_path / "out"),
                "--compare",
                str(tmp_path),
            ]
        )
        assert code == 1

    def test_compare_missing_baseline_errors(self, tmp_path):
        code = bench_main(
            [
                "-s",
                "port_saturation",
                "--out",
                str(tmp_path / "out"),
                "--compare",
                str(tmp_path / "nope"),
            ]
        )
        assert code == 2

    def test_compare_unparseable_baseline_errors(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_port_saturation.json"
        bad.write_text("{not json")
        code = bench_main(
            [
                "-s",
                "port_saturation",
                "--out",
                str(tmp_path / "out"),
                "--compare",
                str(bad),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # exactly one diagnostic line
        assert "BENCH_port_saturation.json" in err

    def test_spans_flag_writes_timeline(self, tmp_path):
        spans_dir = tmp_path / "spans"
        out_dir = tmp_path / "out"
        assert (
            bench_main(
                [
                    "-s",
                    "port_saturation",
                    "--out",
                    str(out_dir),
                    "--spans",
                    str(spans_dir),
                ]
            )
            == 0
        )
        jsonl = spans_dir / "SPANS_port_saturation.jsonl"
        trace = spans_dir / "TRACE_port_saturation.json"
        assert jsonl.exists() and trace.exists()
        doc = json.loads(trace.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert (out_dir / "BENCH_port_saturation.json").exists()

    def test_compare_json_artifact_is_written(self, tmp_path):
        base_dir = str(tmp_path / "base")
        assert bench_main(["-s", "port_saturation", "--out", base_dir]) == 0
        artifact = tmp_path / "compare.json"
        assert (
            bench_main(
                [
                    "-s",
                    "port_saturation",
                    "--out",
                    str(tmp_path / "out"),
                    "--compare",
                    base_dir,
                    # the test pins the artifact shape, not machine speed:
                    # a huge threshold keeps back-to-back noise from failing
                    "--threshold",
                    "0.99",
                    "--compare-json",
                    str(artifact),
                ]
            )
            == 0
        )
        payload = json.loads(artifact.read_text())
        assert not payload["regressed"]
        assert payload["missing_baselines"] == []
        (row,) = payload["comparisons"]
        assert row["scenario"] == "port_saturation"
        assert {"baseline_eps", "new_eps", "ratio"} <= set(row)
        assert not row["fingerprint_changed"]
