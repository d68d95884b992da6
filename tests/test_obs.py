"""repro.obs: tracer ring buffer, the metrics dict, profiling, summaries."""

import io
import json

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.report import format_port_breakdown
from repro.harness.runner import run_experiment
from repro.obs import (
    Histogram,
    RunProfile,
    Tracer,
    format_trace_summary,
    read_records,
    summarize_events,
)
from repro.sim.engine import Simulator
from tests.helpers import data_pkt, make_port


class TestTracer:
    def test_records_lifecycle_events(self):
        tr = Tracer()
        pkt = data_pkt(flow_id=7, seq=3)
        tr.enqueue(100, "p0", 2, pkt)
        tr.dequeue(250, "p0", 2, pkt, 150)
        tr.mark(250, "p0", 2, pkt, "deq")
        tr.drop(300, "p0", 1, pkt, "buffer")
        tr.cwnd(400, 7, 12.5, "ecn")
        tr.alpha(400, 7, 0.25)
        tr.rate(500, 7, 1e9)
        assert len(tr) == 7
        kinds = [d["ev"] for d in tr.iter_dicts()]
        assert kinds == [
            "enqueue", "dequeue", "mark", "drop", "cwnd", "alpha", "rate",
        ]
        deq = list(tr.iter_dicts())[1]
        assert deq["sojourn_ns"] == 150 and deq["q"] == 2 and deq["flow"] == 7

    def test_ring_evicts_oldest(self):
        tr = Tracer(capacity=3)
        pkt = data_pkt()
        for t in range(5):
            tr.enqueue(t, "p0", 0, pkt)
        assert len(tr) == 3
        assert tr.evicted == 2
        assert [d["t"] for d in tr.iter_dicts()] == [2, 3, 4]

    def test_export_jsonl_round_trips(self, tmp_path):
        tr = Tracer()
        tr.enqueue(1, "p0", 0, data_pkt(flow_id=1, seq=0))
        tr.cwnd(2, 1, 10.0, "timeout")
        path = str(tmp_path / "t.jsonl")
        assert tr.export_jsonl(path) == 2
        lines = open(path).read().splitlines()
        assert [json.loads(l)["ev"] for l in lines] == ["enqueue", "cwnd"]
        # compact, sorted-key formatting (the determinism contract)
        assert lines[0] == json.dumps(
            json.loads(lines[0]), sort_keys=True, separators=(",", ":")
        )

    def test_export_to_stream_and_clear(self):
        tr = Tracer()
        tr.enqueue(1, "p0", 0, data_pkt())
        buf = io.StringIO()
        assert tr.export_jsonl(buf) == 1
        tr.clear()
        assert len(tr) == 0 and tr.evicted == 0


class TestRegistry:
    """The metrics dict: histogram snapshots in a sorted plain dict."""

    def test_histogram_exact_aggregates(self):
        h = Histogram("x")
        for v in (1, 2, 3, 100, 1000):
            h.record(v)
        assert h.count == 5 and h.sum == 1106
        assert h.min == 1 and h.max == 1000
        assert h.mean == pytest.approx(1106 / 5)

    def test_histogram_percentile_within_bucket_factor(self):
        h = Histogram("x")
        for v in range(1, 101):
            h.record(v)
        p50 = h.percentile(50.0)
        # bucket upper bound: within a factor of two of the true median
        assert 50 <= p50 <= 127
        assert h.percentile(100.0) == 100.0  # clamped to observed max
        assert h.percentile(0.0) >= 1.0

    def test_histogram_empty_and_negative(self):
        h = Histogram("x")
        assert h.percentile(50.0) is None and h.mean is None
        with pytest.raises(ValueError):
            h.record(-1)

    def test_snapshot_is_plain_and_sorted(self):
        h = Histogram("c.h")
        h.record(8)
        assert h.snapshot()["count"] == 1
        assert h.snapshot()["buckets"] == {"4": 1}
        metrics = run_experiment(ExperimentConfig(n_flows=4, seed=1)).metrics
        assert list(metrics) == sorted(metrics)
        assert all(
            isinstance(v, int) for k, v in metrics.items() if k.startswith("port.")
        )
        assert metrics["fct_ns"]["type"] == "histogram"
        json.dumps(metrics)  # JSON-serialisable as-is


class TestPortTracing:
    def _traced_port(self, sim, **kwargs):
        port = make_port(sim, **kwargs)
        tracer = Tracer()
        port.tracer = tracer
        return port, tracer

    def test_mark_events_match_port_counter(self):
        from tests.test_port import _MarkAll

        sim = Simulator()
        port, tracer = self._traced_port(sim, aqm=_MarkAll())
        for i in range(5):
            port.receive(data_pkt(seq=i))
        sim.run()
        marks = [d for d in tracer.iter_dicts() if d["ev"] == "mark"]
        assert len(marks) == port.stats.marked_pkts == 5
        assert all(m["where"] == "deq" for m in marks)

    def test_sojourn_matches_queueing_delay(self):
        sim = Simulator()
        port, tracer = self._traced_port(sim)
        for i in range(3):
            port.receive(data_pkt(seq=i))
        sim.run()
        deqs = [d for d in tracer.iter_dicts() if d["ev"] == "dequeue"]
        assert [d["sojourn_ns"] for d in deqs] == sorted(
            d["sojourn_ns"] for d in deqs
        )
        assert deqs[0]["sojourn_ns"] == 0  # head packet never waits

    def test_drop_event_carries_cause_and_queue(self):
        from repro.sched.dwrr import DwrrScheduler
        from repro.sched.base import make_queues

        sim = Simulator()
        port, tracer = self._traced_port(
            sim, buffer_bytes=3000,
            scheduler=DwrrScheduler(make_queues(2)),
        )
        for i in range(4):
            port.receive(data_pkt(seq=i, dscp=1))
        drops = [d for d in tracer.iter_dicts() if d["ev"] == "drop"]
        assert len(drops) == 1
        assert drops[0]["cause"] == "buffer" and drops[0]["q"] == 1

    def test_rx_bytes_counts_dropped_arrivals_too(self):
        sim = Simulator()
        port = make_port(sim, buffer_bytes=3000)
        for i in range(4):
            port.receive(data_pkt(seq=i))
        wire = data_pkt().wire_size
        assert port.stats.rx_bytes == 4 * wire
        assert port.stats.dropped_bytes == wire


class TestStatefulClassifierOnDrop:
    def test_classifier_stepped_once_per_packet(self):
        calls = []

        def classify(pkt):
            calls.append(pkt.seq)
            return 0

        sim = Simulator()
        port = make_port(sim, buffer_bytes=3000, classify=classify)
        for i in range(4):
            port.receive(data_pkt(seq=i))
        # one call per arrival — the dropped packet must not re-classify
        assert calls == [0, 1, 2, 3]
        assert port.stats.dropped_pkts == 1


class TestProfile:
    def test_simulator_counts_events_and_heap(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i + 1, lambda: None)
        assert sim.heap_hwm == 10
        sim.run()
        assert sim.events_executed == 10

    def test_capture_and_describe(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.run()
        prof = RunProfile.capture(sim, wall_s=2.0)
        assert prof.events == 1 and prof.events_per_sec == 0.5
        assert prof.heap_hwm == 1
        assert prof.as_dict()["events"] == 1
        assert "ev/s" in prof.describe()


class TestSummaries:
    def _events(self):
        tr = Tracer()
        pkt = data_pkt(flow_id=1)
        for t in (10, 20):
            tr.enqueue(t, "p0", 0, pkt)
        tr.dequeue(30, "p0", 0, pkt, 20)
        tr.dequeue(45, "p0", 0, pkt, 25)
        tr.mark(45, "p0", 0, pkt, "deq")
        tr.drop(50, "p0", 1, pkt, "buffer")
        return tr

    def test_summarize_counts_and_rates(self):
        s = summarize_events(self._events().iter_dicts())
        assert s.n_events == 6
        q0 = s.queues[("p0", 0)]
        assert (q0.enqueued, q0.dequeued, q0.marked) == (2, 2, 1)
        assert q0.mark_rate == 0.5
        assert s.queues[("p0", 1)].dropped == 1
        assert s.drop_causes == {"buffer": 1}
        assert s.total_marks == 1 and s.total_drops == 1
        assert s.t_first_ns == 10 and s.t_last_ns == 50

    def test_sojourn_percentiles(self):
        s = summarize_events(self._events().iter_dicts())
        assert s.sojourns_ns == [20, 25]
        assert s.sojourn_percentile(50.0) == 20.0
        assert s.sojourn_percentile(99.0) == 25.0
        assert s.sojourn_mean_ns == 22.5

    def test_file_and_live_summaries_agree(self, tmp_path):
        tr = self._events()
        path = str(tmp_path / "t.jsonl")
        tr.export_jsonl(path)
        live = summarize_events(tr.iter_dicts())
        kind, records = read_records(path)
        assert kind == "event"
        from_file = summarize_events(records)
        assert format_trace_summary(live) == format_trace_summary(from_file)

    def test_format_mentions_percentiles(self):
        out = format_trace_summary(summarize_events(self._events().iter_dicts()))
        assert "p50=" in out and "p99=" in out and "mark-rate" in out
        assert "drop causes: buffer=1" in out

    def test_empty_trace_formats(self):
        out = format_trace_summary(summarize_events([]))
        assert "0 events" in out


class TestRunMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(ExperimentConfig(
            scheme="tcn", scheduler="dwrr", workload="cache",
            load=0.5, n_flows=12, seed=2,
        ))

    def test_port_counters_match_stats(self, result):
        total_marks = sum(
            v for k, v in result.metrics.items()
            # port-level key: port.<name>.marked_pkts (3 dotted parts);
            # per-queue keys have 4
            if k.startswith("port.") and k.endswith(".marked_pkts")
            and len(k.split(".")) == 3
        )
        assert total_marks == result.marks

    def test_queue_counters_present(self, result):
        assert any(".q0.dequeued_pkts" in k for k in result.metrics)

    def test_fct_histogram_counts_completions(self, result):
        assert result.metrics["fct_ns"]["count"] == result.completed

    def test_profile_attached(self, result):
        assert result.profile["events"] == result.events > 0
        assert result.profile["heap_hwm"] > 0

    def test_port_breakdown_renders(self, result):
        out = format_port_breakdown(result.metrics)
        assert "sw0:p0" in out and "mark%" in out

    def test_port_breakdown_empty(self):
        assert "no port traffic" in format_port_breakdown({})
