"""Tests of the ledger itself: ``pytest benchmarks/ledger``.

Not collected by the tier-1 command (``testpaths = ["tests"]``).  Nothing
here asserts a timing; the smoke pass runs cells of a few hundred events.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

RUN_PY = os.path.join(HERE, "run.py")
REPRO_ROOT = os.path.join(run.SRC, "repro")


@pytest.fixture(scope="module")
def manifest():
    with open(run.MANIFEST_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full ledger pass at smoke size: (stdout, results.json)."""
    out = tmp_path_factory.mktemp("ledger")
    done = subprocess.run(
        [sys.executable, RUN_PY, "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out / "results.json") as fh:
        results = json.load(fh)
    assert (out / "layers.json").exists()
    spans = [json.loads(line) for line in open(out / "spans.jsonl")]
    return done.stdout, results, spans


def test_manifest_matches_the_code(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == (
        run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == (
        run.per_layer_units())
    assert manifest["paths"] == ["benchmarks/ledger"]


def test_smoke_prints_every_name_with_a_unit(manifest, smoke):
    stdout, results, _ = smoke
    assert set(results["meta"]) >= {"nproc", "python", "loadavg_1m", "noisy"}
    for workload in manifest["workloads"]:
        entry = results["workloads"][workload["name"]]
        assert workload["name"] in stdout
        assert entry["correct"] and entry["failed_frac"] == 0
        for metric in manifest["end_to_end"]:
            row = entry["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert row["n"] >= 2 and row["q1"] <= row["median"] <= row["q3"]
            assert row["median"] > 0
        for metric in manifest["per_layer"]:
            assert metric["name"] in entry["per_layer"]
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert f"{metric['name']} " in stdout


def test_smoke_layer_contrast_and_spans(smoke):
    _, results, spans = smoke
    per_layer = {w: e["per_layer"] for w, e in results["workloads"].items()}
    assert per_layer["fabric_bulk_hybrid"]["sim.fluid.self_share"] > 0
    assert per_layer["timer_churn"]["net.port.self_share"] == 0
    # TCN lives in core.tcn: only the sweep's baselines run repro.aqm code
    assert (per_layer["figure_sweep"]["aqm.self_share"]
            > 10 * per_layer["fabric_mixed"]["aqm.self_share"])
    for values in per_layer.values():
        shares = [v for k, v in values.items() if k.endswith(".self_share")]
        assert abs(sum(shares) - 1.0) < 1e-9
    # a counter the program does not report is n/a (null), not an error
    assert per_layer["figure_sweep"]["sim.fluid.epochs"] is None
    names = {s["name"] for s in spans}
    assert names >= {"rep", "import", "setup", "run", "verify", "sweep/job"}
    assert all(s["end_ns"] >= s["start_ns"] for s in spans)


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_protocol(manifest, trace):
    done = subprocess.run(
        [sys.executable, RUN_PY, "--smoke", "--workload", "timer_churn",
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = manifest["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_every_repro_file_has_exactly_one_layer():
    buckets = set(layers.LAYERS) | {layers.OTHER}
    seen = 0
    for dirpath, _dirs, files in os.walk(REPRO_ROOT):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name), REPRO_ROOT)
                assert layers.layer_of_path(rel) in buckets
                seen += 1
    assert seen > 50
    with pytest.raises(LookupError):
        layers.layer_of_path("newpackage/thing.py")
    assert layers.layer_of_path("sim/equeue/sanitize.py") == "sanitize"
    assert layers.layer_of_path("sim/equeue/heap.py") == "sim.equeue"
    assert layers.layer_of_path("sim/engine.py") == "sim.engine"
    assert layers.layer_of_path("harness/sweep.py") == "harness.sweep"


def test_fold_charges_builtins():
    engine = (os.path.join(REPRO_ROOT, "sim", "engine.py"), 10, "run")
    port = (os.path.join(REPRO_ROOT, "net", "port.py"), 20, "enqueue")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    stdlib = ("/usr/lib/python3/json/encoder.py", 1, "encode")
    stats = {
        engine: (1, 1, 1.0, 9.0, {}),
        port: (4, 4, 2.0, 3.0, {engine: (4, 4, 2.0, 3.0)}),
        heappush: (8, 8, 0.5, 0.5, {engine: (8, 8, 0.5, 0.5)}),
        append: (6, 6, 0.3, 0.3, {port: (4, 4, 0.2, 0.2),
                                  stdlib: (2, 2, 0.1, 0.1)}),
        stdlib: (1, 1, 0.25, 0.5, {}),
    }
    folded = layers.fold(stats, REPRO_ROOT)
    assert folded["sim.engine"] == {"self_s": 1.0, "calls": 1}
    assert folded["sim.equeue"] == {"self_s": 0.5, "calls": 8}
    assert folded["net.port"]["calls"] == 8
    assert folded["net.port"]["self_s"] == pytest.approx(2.2)
    assert folded["other"]["self_s"] == pytest.approx(0.35)
    total = sum(row["self_s"] for row in folded.values())
    assert total == pytest.approx(sum(row[2] for row in stats.values()))


def test_child_failure_fails_its_operations():
    def crashing(workload, seed, rep, size, flags=()):
        return run.spawn_child(
            workload, seed, rep, size, flags,
            command=[sys.executable, "-c", "import sys; sys.exit(3)"])

    result = run.measure("timer_churn", 1, 0, "smoke", spawn=crashing)
    assert result["failed_frac"] == 1
    assert result["correct"] is False
    assert result["end_to_end"] == {}
    assert any("exited 3" in p for p in result["problems"])


def test_nondeterminism_is_caught():
    calls = []

    def drifting(workload, seed, rep, size, flags=()):
        calls.append(rep)
        rec = run.spawn_child(workload, seed, rep, size, flags)
        if len(calls) == 1:  # the warm-up
            rec["facts"]["digest"] = "0" * 64
        return rec

    result = run.measure("timer_churn", 1, 0, "smoke", spawn=drifting)
    assert result["correct"] is False
    assert result["fct_err_pct"] == 100
    assert result["failed"] == wl.ops_per_cell("timer_churn", "smoke")


def _ledger(wall=3.0, spread=0.02):
    row = {"median": wall, "q1": wall * (1 - spread / 2),
           "q3": wall * (1 + spread / 2), "n": 5, "unit": "us"}
    return {"workloads": {w: {
        "end_to_end": {m: dict(row) for m in run.E2E_UNITS},
        "failed_frac": 0.0, "fct_err_pct": 0.0,
    } for w in wl.WORKLOADS}}


def test_compare_flags_a_regression_and_passes_identity(tmp_path, capsys):
    bounds = compare.load_bounds()
    parent = _ledger()
    assert {r[5] for r in compare.compare(parent, parent, bounds)} == {"ok"}

    slower = copy.deepcopy(parent)
    slow = slower["workloads"]["fabric_mixed"]["end_to_end"]
    slow["cpu_us_per_work"]["median"] *= (
        1.05 + bounds["cpu_us_per_work"])
    flagged = [r for r in compare.compare(parent, slower, bounds)
               if r[5] == "REGRESSION"]
    assert [(r[0], r[1].split()[0]) for r in flagged] == [
        ("fabric_mixed", "cpu_us_per_work")]

    noisy = _ledger(spread=0.5)
    assert "unresolved" in {
        r[5] for r in compare.compare(noisy, noisy, bounds)}

    failing = copy.deepcopy(parent)
    failing["workloads"]["timer_churn"]["failed_frac"] = 0.01
    assert any(r[5] == "REGRESSION" and r[1] == "failed_frac"
               for r in compare.compare(parent, failing, bounds))

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
