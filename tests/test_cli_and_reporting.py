"""The CLI entry point, benchlib pooling, and report edge cases."""

import subprocess
import sys
from dataclasses import replace

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

    @pytest.mark.parametrize("command", [[], ["run"], ["sweep"]])
    def test_fluid_mode_is_not_a_choice(self, command, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(command + ["--mode", "fluid"])
        assert exc.value.code == 2
        assert "invalid choice: 'fluid'" in capsys.readouterr().err

    def test_main_rejects_the_retired_bench_command(self, capsys):
        """Retired sub-commands exit 2 before the run parser sees them:
        ``<word> --help`` must not print the run help and exit 0."""
        from repro.__main__ import main

        for argv in (
            ["bench"], ["bench", "--help"], ["lint"], ["lint", "--help"],
            ["timeline"], ["timeline", "--help"], ["report"], ["report", "--help"],
        ):
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            assert f"error: unknown command '{argv[0]}'" in err, argv

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

    @pytest.mark.parametrize("argv, why", [
        (["--buffer-kb", "1", "--flows", "3"], "one full frame"),
        (["--queues", "0"], "n_queues must be >= 1"),
        (["--workload", "nonsense"], "unknown workload 'nonsense'"),
        (["--workload", "mixed"], "needs the leafspine topology"),
        (["--scheme", "mqecn", "--scheduler", "wfq"], "round-robin scheduler"),
        (["--scheduler", "sp", "--pias", "--queues", "1"],
         "n_high=1, n_queues=1"),
    ], ids=["tiny-buffer", "no-queues", "unknown-workload", "mixed-on-star",
            "mqecn-on-wfq", "pias-on-one-queue"])
    def test_run_rejects_configs_the_build_would_crash_on(
        self, argv, why, capsys
    ):
        from repro.__main__ import main

        assert main(["run"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and why in err

    def test_run_that_completes_nothing_still_reports(
        self, tmp_path, capsys, monkeypatch
    ):
        """A deadline that cuts every flow short is a partial result, not
        a crash: the summary line and the report say 0/N."""
        from repro.__main__ import main
        from repro.harness import runner

        real = runner.run_experiment
        monkeypatch.setattr(
            runner, "run_experiment",
            lambda cfg, **kw: real(replace(cfg, max_sim_ns=1000), **kw),
        )
        report = tmp_path / "report.md"
        assert main(["run", "--flows", "5", "--report", str(report)]) == 1
        assert "completed 0/5 flows" in capsys.readouterr().out
        assert "0/5" in report.read_text()

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

    _EVENT = '{"ev":"enqueue","t":1,"port":"p","q":0,"flow":1,"seq":0,"size":9}'
    _SPAN = ('{"pid":"run","tid":"sim","cat":"engine","name":"chunk",'
             '"t0_ns":0,"dur_ns":1,"args":{}}')

    @pytest.mark.parametrize("content, chrome, why", [
        ('{"bad json', False, "1: malformed JSON"),
        ('{"bad json', True, "1: malformed JSON"),
        ("5", False, "1: expected a JSON object, got int"),
        ('{"x": 1}', True, "1: record has neither 'ev' (event) nor 'cat'"),
        ('{"ev":"dequeue","t":1,"port":"p","q":0,"flow":1,"seq":0,"size":9}',
         False, "1: dequeue record lacks sojourn_ns"),
        ('{"ev":"dequeue","t":1,"port":"p","q":0,"flow":1,"seq":0,"size":9,'
         '"sojourn_ns":null}', True, "1: dequeue record has a mistyped sojourn_ns"),
        ('{"ev":"warp","t":1}', False, "1: unknown event kind 'warp'"),
        (_SPAN.replace('"dur_ns":1,', ""), True, "1: span record lacks dur_ns"),
        (f"{_EVENT}\n\n{_SPAN}", False, "3: span record in a file of event"),
        (f"{_SPAN}\n{_EVENT}", True, "2: event record in a file of span"),
    ], ids=["summary", "chrome", "scalar", "no-kind", "no-sojourn",
            "null-sojourn", "unknown-ev", "span-no-dur", "span-in-events",
            "event-in-spans"])
    def test_trace_subcommand_malformed_file(
        self, tmp_path, capsys, content, chrome, why
    ):
        """A record of the wrong shape exits 2 with one ``error:`` line
        naming the file and line, never a traceback."""
        from repro.__main__ import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text(content + "\n")
        out = tmp_path / "out.json"
        argv = ["trace", str(bad)] + (["--chrome", str(out)] if chrome else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{why}") and err.count("\n") == 1
        assert not out.exists()

    def test_trace_subcommand_unwritable_out(self, tmp_path, capsys):
        from repro.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty), "--chrome", "/nonexistent/x.json"]) == 2
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
    def test_run_that_completes_nothing_summarizes_to_none(self):
        res = run_experiment(ExperimentConfig(n_flows=5, max_sim_ns=1000))
        assert (res.completed, res.total, res.all_completed) == (0, 5, False)
        assert res.summary.n_flows == 0 and res.summary.avg_all_ns is None
        row = [l for l in format_fct_rows({"tcn": res}).splitlines()
               if l.startswith("tcn")][0]
        assert row.split()[1:5] == ["-", "-", "-", "-"]

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
