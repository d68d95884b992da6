"""The flight recorder: span recording, exports, and the CLIs.

The deterministic-safety contracts pinned here:

* recording spans never changes what a run computes (traced == untraced
  results);
* two same-seed runs export **byte-identical** span JSONL in
  deterministic mode (wall-clock fields zeroed, host-dependent
  annotations stripped).
"""

import json

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.report import hottest_ports, render_run_report
from repro.harness.runner import run_experiment
from repro.harness.sweep import ResultCache, run_sweep
from repro.obs import (
    SpanRecorder,
    chrome_trace,
    current_rss_bytes,
    format_span_summary,
    read_jsonl,
    trace_events_to_chrome,
    write_chrome,
)
from repro.obs.spans import DEFAULT_SPAN_CAPACITY, NONDETERMINISTIC_ARGS

_SERIAL = dict(
    scheme="tcn", scheduler="dwrr", workload="cache",
    load=0.5, n_flows=10, seed=2,
)


def _flow_digest(result):
    return [(f.id, f.fct_ns) for f in result.flows if f.completed]


class TestSpanRecorder:
    def test_add_and_iter_dicts_shape(self):
        rec = SpanRecorder(pid="run")
        rec.add("engine", "chunk", 100, 50, tid="sim", args={"chunk": 0})
        (d,) = list(rec.iter_dicts())
        assert d == {
            "pid": "run", "tid": "sim", "cat": "engine", "name": "chunk",
            "t0_ns": 100, "dur_ns": 50, "args": {"chunk": 0},
        }

    def test_span_context_manager_stamps_duration(self):
        rec = SpanRecorder()
        with rec.span("engine", "chunk", tid="sim") as s:
            s.args["filled"] = "inside"
        (record,) = rec.records
        assert record[5] >= 0  # dur_ns
        assert record[6] == {"filled": "inside"}

    def test_ring_evicts_oldest_and_counts(self):
        rec = SpanRecorder(capacity=3)
        for i in range(5):
            rec.add("c", "n", i, 1)
        assert len(rec) == 3
        assert rec.evicted == 2
        # the newest window survives
        assert [r[4] for r in rec.records] == [2, 3, 4]

    def test_clear_resets_everything(self):
        rec = SpanRecorder(capacity=1)
        rec.add("c", "n", 0, 1)
        rec.add("c", "n", 1, 1)
        rec.clear()
        assert len(rec) == 0 and rec.evicted == 0

    def test_default_capacity_is_bounded(self):
        assert SpanRecorder().capacity == DEFAULT_SPAN_CAPACITY


class TestExports:
    def _recorder(self):
        rec = SpanRecorder(pid="run")
        rec.add("engine", "chunk", 1000, 500, tid="sim",
                args={"chunk": 0, "rss_bytes": 123, "events": 7})
        rec.add("engine", "chunk", 2000, 400, tid="sim",
                args={"chunk": 1, "freelist_allocated": 5, "events": 3})
        return rec

    def test_jsonl_round_trips(self, tmp_path):
        rec = self._recorder()
        path = str(tmp_path / "spans.jsonl")
        assert rec.export_jsonl(path) == 2
        back = read_jsonl(path)
        assert back == list(rec.iter_dicts())

    def test_deterministic_export_zeroes_wall_and_strips_host_args(
        self, tmp_path
    ):
        rec = self._recorder()
        path = str(tmp_path / "det.jsonl")
        rec.export_jsonl(path, deterministic=True)
        for d in read_jsonl(path):
            assert d["t0_ns"] == 0 and d["dur_ns"] == 0
            assert not set(d["args"]) & NONDETERMINISTIC_ARGS
        # deterministic args survive
        assert read_jsonl(path)[0]["args"]["events"] == 7

    def test_chrome_trace_shape(self):
        doc = chrome_trace(self._recorder().iter_dicts())
        assert doc["displayTimeUnit"] == "ms"
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(slices) == 2
        # one process_name + one thread_name metadata record
        assert {m["name"] for m in meta} == {"process_name", "thread_name"}
        # timestamps rebase to the earliest span, in microseconds
        assert slices[0]["ts"] == 0.0 and slices[0]["dur"] == 0.5
        assert slices[1]["ts"] == 1.0

    def test_write_chrome_returns_slice_count(self, tmp_path):
        path = str(tmp_path / "trace.json")
        doc = chrome_trace(self._recorder().iter_dicts())
        assert write_chrome(doc, path) == 2
        doc = json.load(open(path))
        assert isinstance(doc["traceEvents"], list)


class TestTraceEventsToChrome:
    def test_packet_and_control_mapping(self, tmp_path):
        events = [
            {"ev": "enqueue", "t": 100, "port": "sw0", "q": 1,
             "flow": 3, "seq": 0, "size": 1538},
            {"ev": "dequeue", "t": 900, "port": "sw0", "q": 1,
             "flow": 3, "seq": 0, "size": 1538, "sojourn_ns": 800},
            {"ev": "mark", "t": 900, "port": "sw0", "q": 1,
             "flow": 3, "seq": 0, "size": 1538, "where": "dequeue"},
            {"ev": "drop", "t": 950, "port": "sw0", "q": 0,
             "flow": 4, "seq": 1, "size": 1538, "cause": "overflow"},
            {"ev": "cwnd", "t": 1000, "flow": 3, "cwnd": 12.0,
             "reason": "ecn"},
        ]
        doc = trace_events_to_chrome(events)
        by_ph = {}
        for e in doc["traceEvents"]:
            by_ph.setdefault(e["ph"], []).append(e)
        # dequeue -> one sojourn slice starting at t - sojourn
        (slice_ev,) = by_ph["X"]
        assert slice_ev["ts"] == pytest.approx(0.1)  # (900-800)/1e3 us
        assert slice_ev["dur"] == pytest.approx(0.8)
        # enqueue/mark/drop -> instants with their detail arg
        instants = {e["name"] for e in by_ph["i"]}
        assert instants == {"enqueue", "mark", "drop"}
        # cwnd -> a per-flow counter series
        (counter,) = by_ph["C"]
        assert counter["name"] == "cwnd.flow3"
        assert counter["args"] == {"cwnd": 12.0}
        # the writer reports non-metadata events
        path = str(tmp_path / "pkt.json")
        assert write_chrome(doc, path) == 5
        json.load(open(path))  # well-formed


class TestRssSampling:
    def test_current_rss_is_positive_on_linux(self):
        assert current_rss_bytes() > 0


class TestSerialSpans:
    def test_chunk_spans_with_annotations(self):
        spans = SpanRecorder(pid="run")
        result = run_experiment(
            ExperimentConfig(**_SERIAL), spans=spans
        )
        chunks = [r for r in spans.records if r[2] == "engine"]
        assert chunks, "serial run recorded no chunk spans"
        args = chunks[0][6]
        assert args["gc_paused"] is True
        assert args["sim_to_ns"] > args["sim_from_ns"] >= 0
        assert args["rss_bytes"] > 0
        assert sum(c[6]["events"] for c in chunks) == result.events

    def test_spans_do_not_perturb_results(self):
        plain = run_experiment(ExperimentConfig(**_SERIAL))
        traced = run_experiment(
            ExperimentConfig(**_SERIAL), spans=SpanRecorder()
        )
        assert _flow_digest(plain) == _flow_digest(traced)
        assert plain.marks == traced.marks
        assert plain.drops == traced.drops
        assert plain.events == traced.events

    def test_deterministic_export_is_byte_identical(self, tmp_path):
        exports = []
        for i in range(2):
            spans = SpanRecorder(pid="run")
            run_experiment(ExperimentConfig(**_SERIAL), spans=spans)
            path = str(tmp_path / f"run{i}.jsonl")
            spans.export_jsonl(path, deterministic=True)
            exports.append(open(path, "rb").read())
        assert exports[0] == exports[1]
        assert exports[0].count(b"\n") > 0


class TestSweepSpans:
    def _configs(self):
        return [
            ExperimentConfig(**{**_SERIAL, "seed": s}) for s in (1, 2)
        ]

    def test_job_spans_with_status(self, tmp_path):
        spans = SpanRecorder(pid="sweep")
        cache = ResultCache(str(tmp_path / "cache"))
        outcome = run_sweep(
            self._configs(), processes=2, cache=cache, spans=spans
        )
        assert outcome.ok
        jobs = [r for r in spans.records if r[3] == "job"]
        assert [r[6]["idx"] for r in jobs] == [0, 1]
        assert all(r[6]["status"] == "ok" for r in jobs)
        assert all(r[6]["worker_pid"] > 0 for r in jobs)
        (sweep_span,) = [r for r in spans.records if r[3] == "sweep"]
        assert sweep_span[6]["configs"] == 2

    def test_cache_hits_record_zero_duration_cached_jobs(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        run_sweep(self._configs(), processes=0, cache=cache)
        spans = SpanRecorder(pid="sweep")
        run_sweep(self._configs(), processes=0, cache=cache, spans=spans)
        jobs = [r for r in spans.records if r[3] == "job"]
        assert len(jobs) == 2
        assert all(r[6]["status"] == "cached" for r in jobs)
        assert all(r[5] == 0 for r in jobs)  # dur_ns

    def test_error_jobs_carry_the_kind(self, monkeypatch):
        import repro.harness.sweep as sweep_mod

        def boom(cfg):
            raise RuntimeError("injected")

        monkeypatch.setattr(sweep_mod, "_execute_config", boom)
        spans = SpanRecorder(pid="sweep")
        outcome = run_sweep(self._configs()[:1], processes=0, spans=spans)
        assert not outcome.ok
        (job,) = [r for r in spans.records if r[3] == "job"]
        assert job[6]["status"] == "exception"


class TestRunReport:
    def _result(self):
        spans = SpanRecorder(pid="run")
        result = run_experiment(
            ExperimentConfig(**_SERIAL), spans=spans
        )
        return result, spans

    def test_markdown_report_sections(self):
        result, spans = self._result()
        doc = render_run_report(result, spans=spans, fmt="md")
        for heading in (
            "# repro run report", "## Configuration", "## Run",
            "## Profile", "## FCT summary", "## Hottest ports",
            "## Timeline digest",
        ):
            assert heading in doc
        assert "engine" in doc  # the span digest table

    def test_html_report_is_self_contained(self):
        result, spans = self._result()
        doc = render_run_report(result, spans=spans, fmt="html")
        assert doc.startswith("<!DOCTYPE html>")
        assert "<style>" in doc and "</html>" in doc
        assert "src=" not in doc and "href=" not in doc

    def test_unknown_format_raises(self):
        result, spans = self._result()
        with pytest.raises(ValueError):
            render_run_report(result, fmt="pdf")

    def test_hottest_ports_ranked_by_marks_plus_drops(self):
        metrics = {
            "port.a.rx_pkts": 10, "port.a.tx_pkts": 10,
            "port.a.marked_pkts": 1, "port.a.dropped_pkts": 0,
            "port.b.rx_pkts": 10, "port.b.tx_pkts": 10,
            "port.b.marked_pkts": 5, "port.b.dropped_pkts": 2,
            "port.c.rx_pkts": 10, "port.c.tx_pkts": 10,
            "port.c.marked_pkts": 0, "port.c.dropped_pkts": 0,
        }
        ranked = hottest_ports(metrics)
        assert [r[0] for r in ranked] == ["b", "a"]  # c has nothing


class TestCliIntegration:
    def test_run_spans_then_timeline(self, tmp_path, capsys):
        from repro.__main__ import main

        spans_path = str(tmp_path / "spans.jsonl")
        rc = main([
            "run", "--flows", "10", "--load", "0.5", "--seed", "2",
            "--workload", "cache", "--spans", spans_path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"spans to {spans_path}" in out

        # `trace` detects a span file and prints the timeline digest
        rc = main(["trace", spans_path,
                   "--chrome", str(tmp_path / "tl.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine" in out and "chunk" in out
        doc = json.load(open(str(tmp_path / "tl.json")))  # Perfetto-loadable
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_timeline_missing_file(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "/nonexistent/spans.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_timeline_malformed_file(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"bad json\n')
        assert main(["trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err

    def test_timeline_unwritable_chrome(self, tmp_path, capsys):
        from repro.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty), "--chrome", "/nonexistent/x.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_trace_chrome_conversion(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = str(tmp_path / "run.jsonl")
        rc = main([
            "run", "--flows", "10", "--load", "0.5", "--seed", "2",
            "--workload", "cache", "--trace", trace_path,
        ])
        assert rc == 0
        capsys.readouterr()
        out_path = str(tmp_path / "run.chrome.json")
        rc = main(["trace", trace_path, "--chrome", out_path])
        assert rc == 0
        assert "Chrome trace events" in capsys.readouterr().out
        doc = json.load(open(out_path))
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_report_subcommand_writes_markdown(self, tmp_path, capsys):
        from repro.__main__ import main

        out_path = str(tmp_path / "report.md")
        rc = main([
            "run", "--flows", "10", "--load", "0.5", "--seed", "2",
            "--workload", "cache", "--report", out_path,
        ])
        assert rc == 0
        assert "run report" in capsys.readouterr().out
        doc = open(out_path).read()
        assert doc.startswith("# repro run report")
        assert "## Timeline digest" in doc

    def test_report_infers_html_from_extension(self, tmp_path, capsys):
        from repro.__main__ import main

        out_path = str(tmp_path / "report.html")
        rc = main([
            "run", "--flows", "10", "--load", "0.5", "--seed", "2",
            "--workload", "cache", "--report", out_path,
        ])
        assert rc == 0
        capsys.readouterr()
        assert open(out_path).read().startswith("<!DOCTYPE html>")

    def test_sweep_spans_export(self, tmp_path, capsys):
        from repro.__main__ import main

        spans_path = str(tmp_path / "sweep.jsonl")
        rc = main([
            "sweep", "--seed", "1", "--seed", "2", "--flows", "8",
            "--workload", "cache", "--load", "0.5",
            "--processes", "0", "--no-cache", "--spans", spans_path,
        ])
        assert rc == 0
        assert "sweep spans" in capsys.readouterr().out
        records = read_jsonl(spans_path)
        assert sum(1 for r in records if r["name"] == "job") == 2


class TestSpanSummaryFormat:
    def test_empty(self):
        assert format_span_summary([]) == "(no spans recorded)"

    def test_groups_by_cat_and_name(self):
        spans = [
            {"cat": "engine", "name": "chunk", "dur_ns": 1000},
            {"cat": "engine", "name": "chunk", "dur_ns": 3000},
            {"cat": "fluid", "name": "epoch", "dur_ns": 500},
        ]
        out = format_span_summary(spans)
        assert "engine" in out and "fluid" in out
        chunk_row = [l for l in out.splitlines() if "chunk" in l][0]
        assert "2" in chunk_row  # count
