"""Tracing is an observer: byte-identical traces, unchanged results.

Also home of the golden-digest guards: SHA-256 pins of the full JSONL
trace and the FCT vector for fixed seeds, captured on the pre-hot-path
core.  Any change that perturbs simulation behaviour — event ordering,
RNG consumption, marking, retransmission timing — flips a digest; pure
performance work must keep them all green.  ``TestHashSeedDeterminism``
runs one config under two ``PYTHONHASHSEED`` values: set iteration over
id-hashed objects would make the FCT vector differ between them.
"""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment
from repro.harness.sweep import SweepResult, SweepStats, _result_from_payload
from repro.metrics.fct import FctSummary
from repro.obs import Tracer

REPO_ROOT = Path(__file__).resolve().parent.parent

_CFG = dict(
    scheme="tcn", scheduler="dwrr", workload="cache",
    load=0.5, n_flows=15, seed=4,
)


def _traced_run():
    tracer = Tracer()
    result = run_experiment(ExperimentConfig(**_CFG), tracer=tracer)
    return result, tracer


def _jsonl(tracer: Tracer) -> str:
    buf = io.StringIO()
    tracer.export_jsonl(buf)
    return buf.getvalue()


class TestTraceDeterminism:
    def test_same_seed_runs_give_byte_identical_traces(self):
        _, t1 = _traced_run()
        _, t2 = _traced_run()
        blob1, blob2 = _jsonl(t1), _jsonl(t2)
        assert blob1 and blob1 == blob2

    def test_different_seed_changes_the_trace(self):
        _, t1 = _traced_run()
        tracer = Tracer()
        run_experiment(
            ExperimentConfig(**{**_CFG, "seed": 5}), tracer=tracer
        )
        assert _jsonl(t1) != _jsonl(tracer)


class TestTracingIsPureObservation:
    @pytest.fixture(scope="class")
    def pair(self):
        traced, tracer = _traced_run()
        untraced = run_experiment(ExperimentConfig(**_CFG))
        return traced, untraced, tracer

    def test_summary_and_counters_identical(self, pair):
        traced, untraced, _ = pair
        for fld in FctSummary.__slots__:
            assert getattr(traced.summary, fld) == getattr(untraced.summary, fld)
        for fld in (
            "completed", "total", "timeouts", "timeouts_small",
            "drops", "marks", "sim_ns", "events",
        ):
            assert getattr(traced, fld) == getattr(untraced, fld), fld

    def test_flow_fcts_identical(self, pair):
        traced, untraced, _ = pair
        assert [f.fct_ns for f in traced.flows] == [
            f.fct_ns for f in untraced.flows
        ]

    def test_metrics_identical_modulo_trace_derived(self, pair):
        traced, untraced, _ = pair
        stripped = {
            k: v for k, v in traced.metrics.items()
            if not k.startswith("trace.")
        }
        assert stripped == untraced.metrics
        # the trace-only sojourn histogram counts every dequeue
        assert traced.metrics["trace.sojourn_ns"]["count"] > 0

    def test_trace_marks_equal_result_marks(self, pair):
        traced, _, tracer = pair
        marks = sum(1 for ev in tracer.records if ev[0] == "mark")
        assert marks == traced.marks
        drops = sum(1 for ev in tracer.records if ev[0] == "drop")
        assert drops == traced.drops

    def test_deterministic_profile_fields(self, pair):
        traced, untraced, _ = pair
        assert traced.profile["events"] == untraced.profile["events"]
        assert traced.profile["heap_hwm"] == untraced.profile["heap_hwm"]


#: digests captured from the engine as of the seed revision (pre hot-path
#: rework); the rework was required to reproduce them bit-for-bit.
#: To regenerate after an *intentional* behaviour change: run the config
#: with a Tracer, sha256 the exported JSONL and the json.dumps of the
#: [flow.fct_ns...] list, and update the counters alongside.
_GOLDEN = {
    "star_tcn_dwrr": {
        "config": dict(
            scheme="tcn", scheduler="dwrr", workload="cache",
            load=0.5, n_flows=15, seed=4,
        ),
        "trace_sha256": (
            "529ebbcbec50ccb9b9e7740044ad43126f458e12999863d03c6b98d7ea53b74a"
        ),
        "trace_events": 511,
        "fct_sha256": (
            "c1e4bb33aa843bb0f2d3c340d9a838f4094a8d1bef5f9780510a64df830a8920"
        ),
        "completed": 15,
        "total": 15,
        "timeouts": 0,
        "drops": 0,
        "marks": 0,
        "sim_ns": 50_000_000,
        "avg_all_ns": 235_301.6,
    },
    "star_red_spwfq": {
        "config": dict(
            scheme="red_std", scheduler="sp_wfq", workload="websearch",
            load=0.7, n_flows=25, seed=7,
        ),
        "trace_sha256": (
            "d4ee7ad6ad8448f9b03dbc2630570868e2701ddfbdfcb50790f7eb396f3ff44b"
        ),
        "trace_events": 17444,
        "fct_sha256": (
            "c4b911f1a412d35c0b56a600348b5f148d90e7ff8288342103b098ba3435d94c"
        ),
        "completed": 25,
        "total": 25,
        "timeouts": 0,
        "drops": 0,
        "marks": 0,
        "sim_ns": 400_000_000,
        "avg_all_ns": 2_253_811.2,
    },
}


#: the leaf-spine reference config: 4 leaves x 2 spines x 2 hosts per
#: leaf, every leaf pair exchanging websearch traffic
_REFERENCE = dict(
    topology="leafspine", n_leaf=4, n_spine=2, hosts_per_leaf=2,
    workload="websearch", transport="dctcp", scheme="tcn",
    scheduler="dwrr", load=0.6, n_flows=40, seed=5,
)

#: golden digests of the serial run on the reference config — update
#: only with an intentional behaviour change, and say why in the commit
_GOLDEN_FCT = (
    "07943316c186358824a50c0f351689aa542b6114d64f3307c95114cdc34bfbf8"
)
_GOLDEN_TRACE = (
    "9f411b3fe3c779781aadf252b81151227771d41fbf34765448c042af84713d40"
)


def _reference_digests():
    """SHA-256 of the reference run's (id, fct, completed) vector and of
    its sorted trace lines."""
    tracer = Tracer(capacity=None)
    result = run_experiment(ExperimentConfig(**_REFERENCE), tracer=tracer)
    fct = hashlib.sha256(
        json.dumps(
            [(f.id, f.fct_ns, f.completed) for f in result.flows]
        ).encode()
    ).hexdigest()
    lines = sorted(json.dumps(list(e)) for e in tracer.records)
    trace = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return fct, trace


class TestGoldenDigests:
    """Bit-exact pins of whole runs across schemes, schedulers and
    topologies."""

    def test_goldens_pin_the_serial_run(self):
        fct, trace = _reference_digests()
        assert fct == _GOLDEN_FCT
        assert trace == _GOLDEN_TRACE

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for name, golden in _GOLDEN.items():
            tracer = Tracer()
            result = run_experiment(
                ExperimentConfig(**golden["config"]), tracer=tracer
            )
            out[name] = (result, _jsonl(tracer))
        return out

    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_trace_bytes_match_golden(self, runs, name):
        golden = _GOLDEN[name]
        _, blob = runs[name]
        assert len(blob.splitlines()) == golden["trace_events"]
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            golden["trace_sha256"]
        )

    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_fct_vector_matches_golden(self, runs, name):
        golden = _GOLDEN[name]
        result, _ = runs[name]
        fcts = [f.fct_ns for f in result.flows]
        assert hashlib.sha256(json.dumps(fcts).encode()).hexdigest() == (
            golden["fct_sha256"]
        )
        assert result.summary.avg_all_ns == golden["avg_all_ns"]

    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_counters_match_golden(self, runs, name):
        golden = _GOLDEN[name]
        result, _ = runs[name]
        for fld in (
            "completed", "total", "timeouts", "drops", "marks", "sim_ns",
        ):
            assert getattr(result, fld) == golden[fld], fld


class TestHashSeedDeterminism:
    """The FCT vector of a run must not depend on PYTHONHASHSEED."""

    SCRIPT = (
        "import json\n"
        "from repro.harness.config import ExperimentConfig\n"
        "from repro.harness.runner import run_experiment\n"
        "cfg = ExperimentConfig(scheme='tcn', scheduler='dwrr',"
        " transport='dctcp', workload='websearch', load=0.6, seed=7,"
        " n_flows=40, n_queues=4)\n"
        "r = run_experiment(cfg)\n"
        "print(json.dumps(sorted([f.id, f.fct_ns] for f in r.flows)))\n"
    )

    def _fct_vector(self, hash_seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
            check=True,
        )
        return json.loads(proc.stdout)

    def test_fct_vector_identical_across_hash_seeds(self):
        base = self._fct_vector(0)
        assert base, "experiment produced no flows"
        assert any(fct is not None for _, fct in base)
        assert self._fct_vector(42) == base


class TestSweepObservabilityFields:
    def test_payload_round_trips_metrics_and_heap(self):
        result = run_experiment(ExperimentConfig(**_CFG))
        sr = SweepResult(
            config=result.config,
            summary=result.summary,
            completed=result.completed,
            total=result.total,
            metrics=result.metrics,
            heap_hwm=result.profile["heap_hwm"],
        )
        payload = sr.payload()
        back = _result_from_payload(
            result.config, payload, wall_s=0.0, from_cache=True
        )
        assert back.metrics == result.metrics
        assert back.heap_hwm == result.profile["heap_hwm"] > 0

    def test_sweep_stats_json_round_trip(self):
        stats = SweepStats(
            total=4, cache_hits=1, cache_misses=3, errors=0,
            wall_s=1.0, sim_events=1000, run_wall_s=2.0,
        )
        back = SweepStats(**dataclasses.asdict(stats))
        assert back == stats
        assert back.events_per_sec == 500.0
        assert SweepStats().events_per_sec == 0.0
