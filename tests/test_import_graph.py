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
    "repro.sim.equeue",
    "repro.sim.equeue.base",
    "repro.sim.equeue.heap",
    "repro.obs",
    "repro.obs.profile",
}


class TestEngineOnly:
    def test_event_loop_loads_eight_modules(self):
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

    def test_named_backends_load_only_themselves(self):
        modules, facts = _run(
            "from repro import Simulator\n"
            "from repro.sim.equeue import BACKENDS\n"
            "facts['names'] = sorted(BACKENDS)\n"
            "facts['known'] = 'wheel' in BACKENDS\n"
            "facts['name'] = Simulator(equeue='ladder').equeue_name\n"
        )
        assert facts == {
            "names": ["heap", "ladder", "wheel"], "known": True,
            "name": "ladder",
        }
        assert "repro.sim.equeue.ladder" in modules
        assert "repro.sim.equeue.wheel" not in modules

    def test_sanitizer_loads_only_when_armed(self):
        code = (
            "from repro import Simulator\n"
            "facts['armed'] = Simulator().equeue_name.startswith('sanitize')\n"
        )
        for value, armed in (("0", False), ("1", True)):
            modules, facts = _run(code, {"REPRO_SANITIZE": value})
            assert facts["armed"] is armed
            assert bool(_under(modules, "repro.sanitize")) is armed
            assert ("repro.sim.equeue.sanitize" in modules) is armed


class TestRunExperiment:
    def test_the_call_imports_nothing(self):
        modules, facts = _run(
            "import sys\n"
            "from repro import ExperimentConfig, run_experiment\n"
            "cfg = ExperimentConfig(n_flows=4, seed=1)\n"
            "before = sorted(m for m in sys.modules if m.startswith('repro'))\n"
            "result = run_experiment(cfg)\n"
            "after = sorted(m for m in sys.modules if m.startswith('repro'))\n"
            "facts.update(done=result.completed, before=before, after=after)\n"
            "facts['multiprocessing'] = 'multiprocessing' in sys.modules\n"
        )
        assert facts["done"] == 4
        assert facts["before"] == facts["after"]
        assert not facts["multiprocessing"]
        assert _under(
            modules, "repro.analysis", "repro.bench", "repro.sim.parallel",
            "repro.harness.sweep", "repro.sanitize",
            "repro.sim.equeue.sanitize",
        ) == []


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
    @pytest.mark.parametrize("command", ["lint", "trace", "timeline"])
    def test_post_processors_never_load_the_simulator(self, command):
        modules, facts = _cli(command, "--help")
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
        assert _under(
            modules, "repro.analysis", "repro.bench", "repro.sim.parallel",
            "repro.harness.sweep",
        ) == []
        for argv in (("trace", str(trace)), ("timeline", str(spans))):
            modules, facts = _cli(*argv)
            assert facts["exit"] == 0
            assert _under(modules, "repro.sim.engine", "repro.net") == []

    def test_sweep_cli_stays_clear_of_tooling(self, tmp_path):
        modules, facts = _cli(
            "sweep", "--flows", "4", "--processes", "0",
            "--cache-dir", str(tmp_path),
        )
        assert facts["exit"] == 0
        assert _under(
            modules, "repro.analysis", "repro.bench", "repro.sim.parallel",
        ) == []


_SWEEP = """
import sys
from repro import ExperimentConfig, ResultCache, run_sweep
from repro.harness import sweep

real = sweep._execute_config

def probe(cfg):
    inherited = "repro.harness.runner" in sys.modules
    payload, wall_s = real(cfg)
    payload["metrics"] = dict(payload["metrics"], runner_inherited=inherited)
    return payload, wall_s

sweep._execute_config = probe  # forked workers inherit the patched module
grid = [ExperimentConfig(n_flows=4, seed=seed) for seed in (1, 2)]
facts["held_before"] = "repro.harness.runner" in sys.modules
outcome = run_sweep(grid, processes=2, cache=ResultCache(sys.argv[1]))
facts["ok"] = outcome.ok
facts["hits"] = outcome.stats.cache_hits
facts["inherited"] = [r.metrics.get("runner_inherited") for r in outcome]
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
#: while a simulation is being built or run
HOT_PATH = sorted(
    p.relative_to(PKG).as_posix()
    for pattern in (
        "sim/engine.py", "sim/equeue/*.py", "sim/fluid/network.py",
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
    # --workers dispatch: the serial path never loads the parallel engine
    ("harness/runner.py", "run_experiment", "repro.sim.parallel.cluster"),
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
    assert len(HOT_PATH) > 40  # the globs still match the tree
    found = set()
    for rel_path in HOT_PATH:
        found |= _local_imports(rel_path)
    assert found == ALLOWED_LOCAL_IMPORTS
