"""The CLI entry point, benchlib pooling, and report edge cases."""

import subprocess
import sys

import pytest

from benchmarks.benchlib import PooledResult, run_schemes_pooled
from repro.harness.config import ExperimentConfig
from repro.harness.report import format_fct_rows, format_table
from repro.harness.runner import run_experiment


class TestCli:
    def test_main_runs_and_reports(self):
        from repro.__main__ import main

        rc = main([
            "--scheme", "tcn", "--scheduler", "dwrr",
            "--flows", "12", "--load", "0.5", "--seed", "2",
        ])
        assert rc == 0

    def test_main_rejects_unknown_scheme(self):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scheme", "nonsense"])

    def test_main_rejects_the_retired_bench_command(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "unrecognized arguments: bench" in capsys.readouterr().err

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--flows", "10", "--load", "0.5"],
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0
        assert "completed 10/10" in result.stdout

    def test_run_subcommand_is_equivalent_to_bare_flags(self, capsys):
        from repro.__main__ import main

        rc = main(["run", "--flows", "10", "--load", "0.5", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "completed 10/10" in out
        assert "profile:" in out and "ev/s" in out

    def test_run_with_trace_then_trace_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = str(tmp_path / "run.jsonl")
        rc = main([
            "run", "--flows", "10", "--load", "0.5", "--seed", "2",
            "--trace", trace_path, "--ports",
        ])
        assert rc == 0
        run_out = capsys.readouterr().out
        assert f"trace events to {trace_path}" in run_out
        assert "mark%" in run_out  # --ports breakdown table

        rc = main(["trace", trace_path])
        assert rc == 0
        trace_out = capsys.readouterr().out
        assert "per-queue lifecycle:" in trace_out
        assert "sojourn" in trace_out and "p99=" in trace_out

    def test_trace_subcommand_missing_file(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["summary", "chrome"])
    def test_trace_subcommand_malformed_file(self, tmp_path, capsys, fmt):
        from repro.__main__ import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"bad json\n')
        assert main(["trace", str(bad), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err

    def test_trace_subcommand_unwritable_out(self, tmp_path, capsys):
        from repro.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main([
            "trace", str(empty), "--format", "chrome",
            "--out", "/nonexistent/x.json",
        ]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestPooledResult:
    def _runs(self):
        base = dict(scheme="tcn", scheduler="dwrr", workload="cache",
                    load=0.5, n_flows=10)
        return [
            run_experiment(ExperimentConfig(seed=s, **base)) for s in (1, 2)
        ]

    def test_pools_flows_across_seeds(self):
        runs = self._runs()
        pooled = PooledResult(runs)
        assert pooled.summary.n_flows == sum(r.completed for r in runs)
        assert pooled.completed == pooled.total == 20

    def test_counters_summed(self):
        runs = self._runs()
        pooled = PooledResult(runs)
        assert pooled.drops == sum(r.drops for r in runs)
        assert pooled.marks == sum(r.marks for r in runs)
        assert pooled.timeouts == sum(r.timeouts for r in runs)

    def test_run_schemes_pooled_shapes(self):
        out = run_schemes_pooled(
            ("tcn",), seeds=(1, 2), scheduler="dwrr", workload="cache",
            load=0.5, n_flows=8,
        )
        assert set(out) == {"tcn"}
        assert out["tcn"].summary.n_flows == 16


class TestReportEdgeCases:
    def test_fct_rows_without_tcn_baseline(self):
        res = run_experiment(ExperimentConfig(
            scheme="red_std", scheduler="dwrr", workload="cache",
            load=0.5, n_flows=8, seed=1,
        ))
        out = format_fct_rows({"red_std": res})
        assert "red_std" in out
        assert "-" in out  # normalization column empty without tcn

    def test_format_table_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and len(out.splitlines()) == 2

    def test_missing_large_bin_renders_dash(self):
        res = run_experiment(ExperimentConfig(
            scheme="tcn", scheduler="dwrr", workload="cache",
            load=0.5, n_flows=8, seed=1,
        ))
        # cache flows are all < 10 MB: the large column must be "-"
        out = format_fct_rows({"tcn": res})
        assert res.summary.avg_large_ns is None
        row = [l for l in out.splitlines() if l.startswith("tcn")][0]
        assert "-" in row
