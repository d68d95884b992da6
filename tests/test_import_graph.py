"""Cold start is proportional to use: what each entry point imports.

Every ``repro`` package serves its re-exports lazily (PEP 562), so a
process loads the modules it uses and no others.  These pins keep it that
way.  Each census runs in a fresh interpreter — ``sys.modules`` of the
test process says nothing, pytest has imported half the tree already —
and with ``REPRO_SANITIZE`` cleared: the pins describe the unarmed engine,
whatever mode the suite itself runs in.
"""

import ast
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PKG = SRC / "repro"

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: printed last by every child: the module census plus whatever the
#: snippet stored in ``facts``
_CENSUS = """
import json as _json, sys as _sys
print(_json.dumps({"modules": sorted(_sys.modules), "facts": facts}))
"""


def _run(code, env_extra=None):
    """Run ``code`` in a fresh interpreter; return (modules, facts)."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
    env["PYTHONPATH"] = str(SRC)
    env.update(env_extra or {})
    script = "facts = {}\n" + code + "\n" + _CENSUS
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return set(record["modules"]), record["facts"]


def _repro(modules):
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def _under(modules, *prefixes):
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


#: appended to a snippet: which heavyweight stdlib modules it pulled in,
#: recorded before ``_CENSUS`` imports json itself to print
_STDLIB_PROBE = (
    "import sys\n"
    "facts['stdlib'] = [m for m in ('multiprocessing', 'subprocess', "
    "'socket', 'hashlib', 'json') if m in sys.modules]\n"
)

ENGINE_ONLY = {
    "repro",
    "repro.sim",
    "repro.sim.engine",
    "repro.obs",
    "repro.obs.profile",
}


class TestEngineOnly:
    def test_event_loop_loads_five_modules(self):
        modules, facts = _run(
            "from repro import Simulator, RunProfile\n"
            "sim = Simulator()\n"
            "sim.schedule(5, lambda: None)\n"
            "facts['events'] = sim.run()\n"
            "facts['profile'] = RunProfile.capture(sim, 1.0).events\n"
            + _STDLIB_PROBE
        )
        assert facts["events"] == 1 and facts["profile"] == 1
        assert _repro(modules) == ENGINE_ONLY
        assert facts["stdlib"] == []

    def test_sanitizer_loads_only_when_armed(self):
        code = (
            "from repro import Simulator\n"
            "facts['armed'] = Simulator()._san is not None\n"
        )
        for value, armed in (("0", False), ("1", True)):
            modules, facts = _run(code, {"REPRO_SANITIZE": value})
            assert facts["armed"] is armed
            assert ("repro.sanitize" in modules) is armed


#: the ledger's ``fabric_mixed`` cell, at test size: TCN over SP/DWRR on
#: a 2x2 leaf-spine with PIAS, DCTCP and the mixed workload
FABRIC_MIXED = dict(
    scheme="tcn", scheduler="sp_dwrr", transport="dctcp",
    topology="leafspine", n_leaf=2, n_spine=2, hosts_per_leaf=3,
    link_rate_bps=10**10, buffer_bytes=300_000, base_rtt_ns=85_200,
    n_queues=8, n_high=1, pias=True, workload="mixed",
    workload_clip_bytes=20_000_000, load=0.6, n_flows=8, seed=1,
)

#: where a simulator's classes live: the config and CLI surfaces load none
SIMULATOR = (
    "repro.net", "repro.sched", "repro.aqm", "repro.transport", "repro.topo",
    "repro.sim",
)


class TestRunExperiment:
    def test_the_run_loop_imports_nothing(self):
        """What a config names is imported by the build, before the first
        event: no import cost lands in the run loop's time.  (The profile
        read after the loop may load a stdlib module; no ``repro`` one.)"""
        modules, facts = _run(
            "import sys\n"
            "from repro import ExperimentConfig, run_experiment\n"
            "from repro.sim.engine import Simulator\n"
            "real_run = Simulator.run\n"
            "def run(self, *args, **kwargs):\n"
            "    facts.setdefault('first', sorted(sys.modules))\n"
            "    executed = real_run(self, *args, **kwargs)\n"
            "    facts['last'] = sorted(sys.modules)\n"
            "    return executed\n"
            "Simulator.run = run\n"
            "result = run_experiment(ExperimentConfig(n_flows=4, seed=1))\n"
            "facts.update(done=result.completed, after=sorted(sys.modules))\n"
            "facts['multiprocessing'] = 'multiprocessing' in sys.modules\n"
        )
        assert facts["done"] == 4
        assert facts["first"] == facts["last"]
        assert _repro(facts["first"]) == _repro(facts["after"])
        assert not facts["multiprocessing"]
        assert _under(modules, "repro.harness.sweep", "repro.sanitize") == []

    def test_a_run_loads_what_its_config_names(self):
        modules, facts = _run(
            "from repro import ExperimentConfig, run_experiment\n"
            f"result = run_experiment(ExperimentConfig(**{FABRIC_MIXED!r}))\n"
            "facts['done'] = result.completed\n"
        )
        assert facts["done"] == FABRIC_MIXED["n_flows"]
        assert _under(modules, "repro.sim.fluid", "repro.topo.star") == []
        assert _under(modules, "repro.aqm") == ["repro.aqm", "repro.aqm.base"]
        assert _under(modules, "repro.sched") == [
            "repro.sched", "repro.sched.base", "repro.sched.dwrr",
            "repro.sched.fifo",
        ]
        assert _under(modules, "repro.transport.tcp") == []

    def test_hybrid_mode_loads_the_fluid_engine(self):
        modules, facts = _run(
            "from repro import ExperimentConfig, run_experiment\n"
            "cfg = ExperimentConfig(workload='bulk', n_flows=4, seed=1,\n"
            "                       mode='hybrid')\n"
            "facts['done'] = run_experiment(cfg).completed\n"
        )
        assert facts["done"] == 4
        assert "repro.sim.fluid.build" in modules

    def test_validation_and_parsers_load_no_simulator(self):
        modules, _ = _run(
            "from repro import ExperimentConfig\n"
            "from repro.__main__ import build_parser, build_sweep_parser\n"
            f"ExperimentConfig(**{FABRIC_MIXED!r}).validate()\n"
            "build_parser()\n"
            "build_sweep_parser()\n"
        )
        assert _under(modules, *SIMULATOR) == []


def _cli(*argv):
    """Census after ``python -m repro <argv>`` (SystemExit swallowed)."""
    return _run(
        "import runpy, sys\n"
        f"sys.argv = ['repro'] + {list(argv)!r}\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    facts['exit'] = exc.code\n"
    )


class TestCliDispatch:
    @pytest.mark.parametrize("target", ["trace", "spans"])
    def test_post_processors_never_load_the_simulator(self, target, tmp_path):
        if target == "trace":
            argv = ("--help",)
        else:
            spans = tmp_path / "s.jsonl"
            spans.write_text(
                '{"args":{},"cat":"engine","dur_ns":5,"name":"chunk",'
                '"pid":"run","t0_ns":0,"tid":"sim"}\n'
            )
            argv = (str(spans), "--chrome", str(tmp_path / "s.json"))
        modules, facts = _cli("trace", *argv)
        assert facts["exit"] == 0
        assert _under(
            modules, "repro.sim.engine", "repro.net", "repro.harness.runner",
        ) == []

    def test_trace_and_timeline_on_real_files(self, tmp_path):
        trace, spans = tmp_path / "t.jsonl", tmp_path / "s.jsonl"
        modules, facts = _cli(
            "run", "--flows", "4", "--seed", "1",
            "--trace", str(trace), "--spans", str(spans),
        )
        assert facts["exit"] == 0
        # the run path stays clear of the tooling it does not use
        assert _under(modules, "repro.harness.sweep") == []
        for argv in (("trace", str(trace)), ("trace", str(spans))):
            modules, facts = _cli(*argv)
            assert facts["exit"] == 0
            assert _under(modules, "repro.sim.engine", "repro.net") == []

    def test_sweep_cli_stays_clear_of_tooling(self, tmp_path):
        modules, facts = _cli(
            "sweep", "--flows", "4", "--processes", "0",
            "--cache-dir", str(tmp_path),
        )
        assert facts["exit"] == 0
        assert _under(modules, "repro.sanitize") == []


_SWEEP = """
import sys
from repro import ExperimentConfig, ResultCache, run_sweep
from repro.harness import sweep

real = sweep._execute_config

def probe(cfg):
    inherited = "repro.harness.runner" in sys.modules
    before = set(sys.modules)
    payload, wall_s = real(cfg)
    imported = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
    payload["metrics"] = dict(
        payload["metrics"], runner_inherited=inherited, imported=imported
    )
    return payload, wall_s

sweep._execute_config = probe  # forked workers inherit the patched module
grid = [ExperimentConfig(n_flows=4, seed=seed) for seed in (1, 2)]
facts["held_before"] = "repro.harness.runner" in sys.modules
outcome = run_sweep(grid, processes=2, cache=ResultCache(sys.argv[1]))
facts["ok"] = outcome.ok
facts["hits"] = outcome.stats.cache_hits
facts["inherited"] = [r.metrics.get("runner_inherited") for r in outcome]
facts["imported"] = [r.metrics.get("imported") for r in outcome]
"""


@pytest.mark.skipif(not HAS_FORK, reason="workers inherit imports under fork")
class TestSweepWorkers:
    def test_workers_inherit_the_runner_and_a_warm_sweep_never_loads_it(
        self, tmp_path
    ):
        code = f"import sys; sys.argv.append({str(tmp_path)!r})\n" + _SWEEP
        modules, cold = _run(code)
        assert cold["ok"] and cold["hits"] == 0
        assert not cold["held_before"]  # importing run_sweep is not enough
        assert cold["inherited"] == [True, True]
        assert cold["imported"] == [[], []]  # each worker imports nothing
        assert "repro.harness.runner" in modules  # loaded once, pre-fork

        modules, warm = _run(code)
        assert warm["ok"] and warm["hits"] == 2
        assert warm["inherited"] == [True, True]  # read back from the cache
        assert _under(
            modules, "repro.harness.runner", "repro.sim.engine", "repro.net",
        ) == []


# -- laziness stops at package boundaries ---------------------------------

#: modules the event loop reaches, plus the runner that builds a run:
#: module-level imports only, so nothing is imported for the first time
#: while a simulation is run
HOT_PATH = sorted(
    p.relative_to(PKG).as_posix()
    for pattern in (
        "sim/engine.py", "sim/fluid/network.py",
        "sim/fluid/solver.py", "net/*.py", "sched/*.py", "aqm/*.py",
        "core/*.py", "transport/*.py", "harness/runner.py",
    )
    for p in PKG.glob(pattern)
)

#: (file, enclosing function, imported module): the dispatch points where
#: a function-level import is the design, each paid at most once per run
#: and never inside the run loop
ALLOWED_LOCAL_IMPORTS = {
    # constructor-time, and only when the sanitizer is armed
    ("sim/engine.py", "Simulator.__init__", "repro.sanitize"),
    # the span clock, only when a SpanRecorder was passed (its module is
    # then loaded already)
    ("harness/runner.py", "run_experiment", "repro.obs.spans"),
}


def _local_imports(rel_path):
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and any(
                kind == "def" for kind, _ in scope
            ):
                names = (
                    [child.module] if isinstance(child, ast.ImportFrom)
                    else [alias.name for alias in child.names]
                )
                qualname = ".".join(name for _, name in scope)
                found.update((rel_path, qualname, name) for name in names)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [("def", child.name)])
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [("class", child.name)])
            else:
                visit(child, scope)

    visit(ast.parse((PKG / rel_path).read_text()), [])
    return found


def test_hot_path_modules_import_at_module_level_only():
    assert len(HOT_PATH) > 35  # the globs still match the tree
    found = set()
    for rel_path in HOT_PATH:
        found |= _local_imports(rel_path)
    assert found == ALLOWED_LOCAL_IMPORTS
