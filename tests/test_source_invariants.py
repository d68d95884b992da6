"""Source invariants that keep runs bit-deterministic and the hot path lean.

A run must be a pure function of its config and seed, and idiomatic Python
breaks that silently: a ``time.time()`` in a control law, a draw on the
process-global ``random`` stream, a second owner of the event heap.  Each
check reads the AST of every module under ``src/repro``.  A finding is keyed
by (module, innermost enclosing def or class, check); ``ALLOWED`` lists the
legitimate sites with their exact finding counts and a reason, and an entry
whose count no longer matches fails too.  docs/STATIC_ANALYSIS.md maps each
check to the rule it replaced.  ``TestConfigFieldUser`` and
``TestRegistryUser`` read the benches, examples and CLI instead: every
config field and every registry name must have a user there, and
``TestModuleUser`` asks the same of every module, counting ``src/repro``'s
own modules among the users.
"""

import ast
import collections
import dataclasses
import functools
from pathlib import Path

import pytest

from repro.harness.config import ExperimentConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: packages under ``repro.`` whose code can affect simulated behaviour
SIM_PACKAGES = ["repro." + p for p in
                "sim net sched aqm core transport topo workloads".split()]

#: (module, scope, check) -> (findings allowed, why the site is legitimate)
ALLOWED = {
    ("repro.harness.runner", "run_experiment", "wall-clock"): (
        4, "wall_s and the run-loop time feed RunProfile, never the simulation"),
    ("repro.harness.sweep", "_run_serial", "wall-clock"): (
        2, "per-job wall time for SweepStats and error reports"),
    ("repro.harness.sweep", "_run_parallel", "wall-clock"): (
        3, "worker timeout budgets; the simulation runs inside the worker"),
    ("repro.harness.sweep", "_run_parallel.reap", "wall-clock"): (
        1, "wall time of a finished worker's job"),
    ("repro.harness.sweep", "run_sweep", "wall-clock"): (
        2, "sweep wall time for SweepStats"),
    ("repro.obs.spans", "wall_ns", "wall-clock"): (
        1, "the flight recorder's one clock; spans are output, never input"),
    ("repro.sched.pifo", "<module>", "confinement"): (
        1, "heapq ranks packets by programmable priority, not events by time"),
}


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def _under(module, packages):
    return any(module == p or module.startswith(p + ".") for p in packages)


_CLOCKS = {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
           "monotonic_ns", "process_time", "process_time_ns"}
_DATES = {"now", "utcnow", "today"}


def wall_clock(module, tree):
    """Simulated time is ``Simulator.now``; a wall-clock read makes a run
    depend on host speed.  ``from time import <clock>`` is rejected too, so
    every call site stays a qualified, greppable ``time.<clock>``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCKS:
                    yield node, f"imports time.{alias.name}"
        elif isinstance(node, ast.Attribute):
            base = _dotted(node.value) or ""
            dated = base in ("datetime", "date") or (
                base.startswith("datetime.") and base.count(".") == 1)
            if (base == "time" and node.attr in _CLOCKS) or (
                    dated and node.attr in _DATES):
                yield node, f"wall-clock read {base}.{node.attr}"


_DRAWS = {"random", "randint", "randrange", "uniform", "choice", "choices",
          "shuffle", "sample", "expovariate", "gauss", "normalvariate",
          "lognormvariate", "betavariate", "paretovariate", "weibullvariate",
          "vonmisesvariate", "triangular", "getrandbits", "seed"}


def global_random(module, tree):
    """The module-level ``random`` stream is shared process state: a new
    consumer perturbs every existing draw.  Randomness comes from seeded
    ``repro.sim.rng`` streams."""
    for node in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = _dotted(node.func) or ""
        if name.startswith("random.") and name[len("random."):] in _DRAWS:
            yield node, f"{name}() draws on the process-global stream"
        elif name in ("random.Random", "Random") and not (node.args or node.keywords):
            yield node, f"unseeded {name}()"


_HOT = {"Scheduler", "Aqm", "SenderBase", "Packet", "PacketQueue", "EgressPort",
        "PortStats", "Link", "Receiver", "Flow", "Simulator", "TransportStats",
        "RateMeter"}
# Host and Switch are absent on purpose: a handful per topology, and tests
# patch ``receive`` on instances, which __slots__ would forbid.
_HOT_BASES = {"Scheduler", "FifoScheduler", "WrrScheduler", "DwrrScheduler",
              "WfqScheduler", "PifoScheduler", "Aqm",
              "SenderBase", "DctcpSender", "EcnStarSender", "RenoSender"}


def _name(node):
    return getattr(node, "attr", getattr(node, "id", None))


def hot_path_slots(module, tree):
    """Per-packet, per-port and per-flow classes declare ``__slots__``
    (``()`` when they add no state): an instance dict each costs memory and
    a slower attribute path in the tightest loops.  Dataclasses are exempt."""
    if not _under(module, SIM_PACKAGES):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        hot = node.name in _HOT or {_name(b) for b in node.bases} & _HOT_BASES
        slots = any(
            getattr(t, "id", None) == "__slots__"
            for s in node.body if isinstance(s, (ast.Assign, ast.AnnAssign))
            for t in (s.targets if isinstance(s, ast.Assign) else [s.target]))
        dataclass = any(
            _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
            for d in node.decorator_list)
        if hot and not slots and not dataclass:
            yield node, f"hot-path class {node.name} declares no __slots__"


def _trivial(fn):
    """A body of only a docstring plus ``pass`` or ``return False``."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            getattr(body[0].value, "value", None), str):
        body = body[1:]
    return not body or len(body) == 1 and (
        isinstance(body[0], ast.Pass)
        or isinstance(body[0], ast.Return)
        and isinstance(body[0].value, ast.Constant)
        and body[0].value.value is False)


def abstract_surface(module, tree):
    """A Scheduler subclass defines ``enqueue`` and ``dequeue``.  An Aqm
    subclass overrides a marking hook with a real body and never shadows
    one with a trivial no-op: the port elides hooks inherited from ``Aqm``,
    and a shadowing no-op re-adds a per-packet call."""
    if not _under(module, SIM_PACKAGES):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {_name(b) for b in node.bases}
        methods = {s.name: s for s in node.body if isinstance(s, ast.FunctionDef)}
        missing = {"enqueue", "dequeue"} - set(methods)
        if "Scheduler" in bases and node.name != "Scheduler" and missing:
            yield node, f"Scheduler {node.name} lacks {sorted(missing)}"
        if "Aqm" in bases and node.name != "Aqm":
            hooks = [methods[h] for h in ("on_enqueue", "on_dequeue") if h in methods]
            if all(_trivial(h) for h in hooks):
                yield node, f"Aqm {node.name} overrides no marking hook"
            for hook in filter(_trivial, hooks):
                yield hook, f"{node.name}.{hook.name} shadows an elided hook"


#: (module, the names confined in it or () for all of it, the packages that
#: may use it, the contract the confinement protects)
CONFINED = (
    ("heapq", (), ("repro.sim.engine", "repro.sanitize"),
     "event ordering belongs to the engine's heap and its checked twins"),
    ("multiprocessing", (), ("repro.harness.sweep",),
     "process fan-out belongs to the sweep driver"),
    ("gc", (), ("repro.sim.engine",), "the run loop owns the collector pause window"),
    ("repro.sim.engine", ("heappush", "heappop", "heapreplace", "heapify"),
     ("repro.sim.engine",),
     "a raw heap push bypasses the (time, seq) contract and the sanitizer"),
    ("repro.net.packet", ("make_data", "make_ack", "release"),
     ("repro.net", "repro.transport"), "frame lifetime is the endpoint layer's"),
)


def confinement(module, tree):
    """Each API in ``CONFINED`` is imported only where it may be used.  A
    confined name called through a module alias bound in the same file
    (``import repro.net.packet as p; p.release(f)``) counts as a use."""
    live = [c for c in CONFINED if not _under(module, c[2])]
    aliases = {}  # local dotted name -> confined module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                for api, names, _, why in live:
                    if not names and _under(alias.name, [api]):
                        yield node, f"imports {api}: {why}"
                    elif names and alias.name == api:
                        aliases[alias.asname or alias.name] = api
        elif isinstance(node, ast.ImportFrom):
            for api, names, _, why in live:
                hit = sorted({a.name for a in node.names} & set(names))
                if not names and _under(node.module or "", [api]):
                    yield node, f"imports {api}: {why}"
                elif node.module == api and hit:
                    yield node, f"imports {hit} from {api}: {why}"
            for alias in node.names if node.module and not node.level else ():
                if any(f"{node.module}.{alias.name}" == c[0] for c in live if c[1]):
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    confined = {api: (names, why) for api, names, _, why in live if names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            api = aliases.get(_dotted(node.func.value) or "")
            if api and node.func.attr in confined[api][0]:
                yield node, f"calls {api}.{node.func.attr}: {confined[api][1]}"


_MUTABLE = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "deque", "bytearray"}


def mutable_default(module, tree):
    """A mutable default is shared by every call, so state leaks between
    experiments in one process."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for d in node.args.defaults + [d for d in node.args.kw_defaults if d]:
            called = getattr(getattr(d, "func", None), "id", None)  # ``list()``
            if isinstance(d, _MUTABLE) or called in _MUTABLE_CALLS:
                yield d, "mutable default argument"


def no_print(module, tree):
    """Only the command line prints: a stray print corrupts machine-read CLI
    output.  Library code returns data or emits through ``repro.obs``."""
    if module == "repro.__main__":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            yield node, "print() in library code"


@functools.lru_cache(maxsize=None)
def _served(package):
    """``{name: home module}`` that ``package``'s ``__init__`` serves lazily
    (its ``_EXPORTS`` table); empty for a module or a package outside
    ``src/repro``."""
    init = SRC.parent.joinpath(*package.split("."), "__init__.py")
    if not init.is_file():
        return {}
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "_EXPORTS" for t in node.targets):
            return ast.literal_eval(node.value)
    return {}


def package_import(module, tree):
    """A name is imported from its home module, never through a package's
    lazy ``__getattr__``: a type checker sees a lazily served name as
    ``Any``, so one such import would blind the strict mypy tier.
    Submodules (``from repro.net import packet``) and what an ``__init__``
    defines itself (``_lazy_exports``) are not served, so they pass."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            hit = sorted({a.name for a in node.names} & _served(node.module).keys())
            if hit:
                yield node, f"imports {hit} through package {node.module}"


CHECKS = {"wall-clock": wall_clock, "global-random": global_random,
          "slots": hot_path_slots, "abstract-surface": abstract_surface,
          "confinement": confinement, "mutable-default": mutable_default,
          "print": no_print, "package-import": package_import}


def _scopes(node, scope, scope_of):
    """Map each node to the qualified name of its innermost enclosing def or
    class (a def or class is its own scope), ``<module>`` at top level."""
    scope_of[node] = scope
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _scopes(child, f"{scope}.{child.name}".replace("<module>.", ""), scope_of)
        else:
            _scopes(child, scope, scope_of)
    return scope_of


def findings(source, module):
    """(scope, check, line, message) for every finding in one module."""
    tree = ast.parse(source)
    scope_of = _scopes(tree, "<module>", {})
    return [
        (scope_of[node], name, node.lineno, message)
        for name, check in CHECKS.items()
        for node, message in check(module, tree)
    ]


@functools.lru_cache(maxsize=None)
def tree_findings():
    """(module, scope, check) -> ["path:line: message", ...] over src/repro."""
    found = collections.defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent)
        module = ".".join(rel.with_suffix("").parts).replace(".__init__", "")
        for scope, name, line, message in findings(path.read_text(), module):
            found[(module, scope, name)].append(f"{rel}:{line}: {message}")
    return found


class TestRepoIsClean:
    def test_src_repro_is_clean(self):
        unallowed = [f"{site}  {key}" for key, sites in tree_findings().items()
                     if len(sites) > ALLOWED.get(key, (0,))[0] for site in sites]
        assert not unallowed, "\n".join(unallowed)

    def test_allowlist_has_no_stale_entries(self):
        found = {key: len(tree_findings().get(key, ())) for key in ALLOWED}
        stale = {key: f"{n} found, {ALLOWED[key][0]} allowed"
                 for key, n in found.items() if n != ALLOWED[key][0]}
        assert not stale, stale

    def test_every_check_has_a_negative_case(self):
        assert [case[0] for case in NEGATIVE_CASES] == list(CHECKS)


#: (check, module, source): each source breaks its check exactly once
NEGATIVE_CASES = [
    ("wall-clock", "repro.sim.engine", "import time\nt = time.time()\n"),
    ("global-random", "repro.workloads.mix", "import random\nrandom.shuffle([])\n"),
    ("slots", "repro.net.packet", "class Packet:\n    pass\n"),
    ("abstract-surface", "repro.aqm.base",
     "class QuietAqm(Aqm):\n    __slots__ = ()\n"
     "    def on_enqueue(self, port, queue, pkt, now):\n        return False\n"
     "    def on_dequeue(self, port, queue, pkt, now):\n        return pkt.ce\n"),
    ("confinement", "repro.sched.pifo", "import heapq\n"),
    ("mutable-default", "repro.core.tcn", "def f(x=[]):\n    return x\n"),
    ("print", "repro.topo.base", "print('building')\n"),
    ("package-import", "repro.harness.runner",
     "from repro.sched import DwrrScheduler\n"),
]


@pytest.mark.parametrize("name, module, source", NEGATIVE_CASES,
                         ids=[case[0] for case in NEGATIVE_CASES])
def test_check_rejects(name, module, source):
    assert [f[1] for f in findings(source, module)] == [name]


class TestConfinementAliases:
    """A same-file module alias leads to the confined call, however spelled."""

    @pytest.mark.parametrize("binding, call", [
        ("import repro.net.packet as p", "p.release(f)"),
        ("from repro.net import packet", "packet.make_ack(f)"),
        ("from repro.net import packet as pk", "pk.make_data(f)"),
        ("import repro.net.packet", "repro.net.packet.release(f)"),
        ("from repro.sim import engine", "engine.heappush(h, f)"),
    ], ids=["import-as", "from-package", "from-package-as", "full-path", "engine-heap"])
    def test_alias_call_fires(self, binding, call):
        source = f"{binding}\n\n\ndef go(f, h):\n    {call}\n"
        hits = findings(source, "repro.workloads.mod")
        assert [(f[1], f[2]) for f in hits] == [("confinement", 5)]

    @pytest.mark.parametrize("package, call", [
        ("workloads", "p.freelist_stats()"),  # not a confined name
        ("transport", "p.release(f)"),  # the owning layer
    ], ids=["unconfined-name", "owning-package"])
    def test_near_misses_are_silent(self, package, call):
        source = f"import repro.net.packet as p\n\n\ndef go(f):\n    {call}\n"
        assert findings(source, f"repro.{package}.mod") == []


# -- every config field names its user ------------------------------------

ROOT = SRC.parent.parent

#: where a config field's users live: the benches, the examples, the CLI
USER_FILES = [*sorted(ROOT.joinpath("benchmarks").rglob("*.py")),
              *sorted(ROOT.joinpath("examples").rglob("*.py")),
              SRC / "__main__.py"]

#: ExperimentConfig fields that no bench, example or CLI flag sets, with
#: the reason each stays a field
UNSET_FIELDS = {
    "max_sim_ns": "partial runs: a deadline that cuts a run short",
    "lam": "the threshold-surface sweep (ROADMAP item 12) varies it",
    "max_cwnd_bdp_factor": "the NIC-or-TSQ probe (ROADMAP item 1) varies it",
}


def _names_read(path):
    """Every keyword, attribute and string constant in one file: a config
    field is set as ``field=``, read as ``cfg.field`` or keyed as
    ``"field"``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.keyword):
            names.add(node.arg)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


class TestConfigFieldUser:
    """A knob no bench, example or CLI flag sets holds the one value every
    run uses: it is a constant, and belongs at its one reader."""

    def _unused(self):
        read = set().union(*map(_names_read, USER_FILES))
        return {f.name for f in dataclasses.fields(ExperimentConfig)} - read

    def test_every_field_has_a_user(self):
        unused = self._unused() - set(UNSET_FIELDS)
        assert not unused, f"no bench, example or CLI flag sets {sorted(unused)}"

    def test_allowlist_has_no_stale_entries(self):
        stale = set(UNSET_FIELDS) - self._unused()
        assert not stale, f"set by a user now, not unset: {sorted(stale)}"


# -- every registry name names its user ------------------------------------

#: where a registry name's users live: the figure and ablation benches,
#: the examples, the CLI
REGISTRY_USER_FILES = [*sorted(ROOT.joinpath("benchmarks").glob("*.py")),
                       *sorted(ROOT.joinpath("examples").rglob("*.py")),
                       SRC / "__main__.py"]

#: registry names no bench, example or CLI default uses, with the reason
#: each stays registered
UNUSED_REGISTRY_NAMES = {
    "reno": "the non-ECT traffic share (ROADMAP item 13) runs it",
}


def _registered():
    """``{name: class it loads}`` over SCHEMES, SCHEDULERS and TRANSPORTS,
    read from the ``"module:Class"`` argument of each entry's factory."""
    loads = {}
    tree = ast.parse((SRC / "harness" / "schemes.py").read_text())
    for node in ast.walk(tree):
        if not (isinstance(node, ast.AnnAssign) and _name(node.target)
                in ("SCHEMES", "SCHEDULERS", "TRANSPORTS")):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            loads[key.value] = value.args[0].value.partition(":")[2]
    assert {"tcn", "sp", "dctcp"} <= set(loads)  # the parse still finds them
    return loads


def _names_used(path):
    """Every string constant and every identifier one file spells."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


class TestRegistryUser:
    """A registry name that no bench, example or CLI default selects, by
    name or by the class it loads, is code only tests reach."""

    def _unused(self):
        used = set().union(*map(_names_used, REGISTRY_USER_FILES))
        return {name for name, cls in _registered().items()
                if name not in used and cls not in used}

    def test_every_name_has_a_user(self):
        unused = self._unused() - set(UNUSED_REGISTRY_NAMES)
        assert not unused, f"no bench, example or CLI uses {sorted(unused)}"

    def test_allowlist_has_no_stale_entries(self):
        stale = set(UNUSED_REGISTRY_NAMES) - self._unused()
        assert not stale, f"used now, not unused: {sorted(stale)}"


# -- every module names its user -------------------------------------------

#: where a module's users live besides src/repro itself: the benches and
#: the examples
MODULE_USER_FILES = [*sorted(ROOT.joinpath("benchmarks").rglob("*.py")),
                     *sorted(ROOT.joinpath("examples").rglob("*.py"))]

#: modules no other module, bench or example imports, with the reason each
#: stays
ENTRY_MODULES = {
    "repro.__main__": "the `python -m repro` entry point",
}


def _is_module(dotted):
    path = SRC.parent.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _home(module, name):
    """The module ``from module import name`` loads: the submodule
    ``name``, else the home a package's ``_EXPORTS`` gives it (followed
    through every package on the way), else ``module`` itself."""
    if _is_module(f"{module}.{name}"):
        return f"{module}.{name}"
    home = _served(module).get(name)
    return module if home is None else _home(home, name)


def _imported(path):
    """Every module one file imports, by name or through ``_EXPORTS``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
            found.update(_home(node.module, alias.name) for alias in node.names)
    return found


def _registry_modules():
    """The modules ``harness/schemes.py`` names as ``"module[:name]"``."""
    tree = ast.parse((SRC / "harness" / "schemes.py").read_text())
    return {node.value.partition(":")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("repro.")}


class TestModuleUser:
    """``module-user``: a module that no other ``src/repro`` module, bench
    or example imports, and no registry names, is code only tests reach."""

    def _unused(self):
        own = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
        used = set().union(*map(_imported, own + MODULE_USER_FILES))
        modules = {".".join(p.relative_to(SRC.parent).with_suffix("").parts)
                   for p in own}
        return modules - used - _registry_modules()

    def test_exports_are_followed_to_the_home_module(self):
        assert _home("repro", "DctcpSender") == "repro.transport.dctcp"
        assert _home("repro.net", "packet") == "repro.net.packet"
        assert _home("repro.units", "SEC") == "repro.units"

    def test_every_module_has_a_user(self):
        unused = self._unused() - set(ENTRY_MODULES)
        assert not unused, f"no module, bench or example imports {sorted(unused)}"

    def test_allowlist_has_no_stale_entries(self):
        stale = set(ENTRY_MODULES) - self._unused()
        assert not stale, f"imported now, not an entry: {sorted(stale)}"


# -- every function, class and method names its user -----------------------

#: definitions that no module, bench, example or registry names, keyed by
#: ``module.qualname``, with the reason each stays
UNNAMED_DEFS = {
    "repro.net.packet.reset_freelist":
        "test isolation: empties the freelist and zeroes its counters",
    "repro.sanitize.detach":
        "test isolation: uninstalls the freelist sanitizer a test armed",
    "repro.sched.pifo.lstf_rank":
        "ROADMAP item 9's property draws PIFO ranks from STFQ and LSTF",
    "repro.sim.fluid.solver.max_min_shares":
        "the solver's self-contained form, held to tests/fluid_oracle.py",
}


def _definitions(path):
    """``{qualname: name}`` of every def and class in one file, nested
    ones included; dunders are called by the language, not by name."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = scope + (child.name,)
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found[".".join(qualname)] = child.name
                visit(child, qualname)
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def _names_spelled(path):
    """Every identifier one file spells as a name, an attribute or an
    import alias (a definition's own ``def`` line is none of these)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _registry_strings():
    """The strings ``harness/schemes.py`` resolves: ``"module:name"``
    gives ``name``, a config attribute read by name gives itself."""
    tree = ast.parse((SRC / "harness" / "schemes.py").read_text())
    return {node.value.rpartition(":")[2] for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


class TestNameUser:
    """``name-user``: a function, class or method whose name no ``src/repro``
    module, bench or example spells, and the registry does not resolve,
    is code only tests reach."""

    def _unused(self):
        own = sorted(SRC.rglob("*.py"))
        used = set().union(*map(_names_spelled, own + MODULE_USER_FILES))
        used |= _registry_strings()
        unused = set()
        for path in own:
            module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
            unused.update(f"{module.removesuffix('.__init__')}.{qualname}"
                          for qualname, name in _definitions(path).items()
                          if name not in used)
        return unused

    def test_scan_sees_nested_defs_and_skips_dunders(self):
        defs = _definitions(SRC / "net" / "queue.py")
        assert defs["PacketQueue.pop"] == "pop"
        assert "PacketQueue.__len__" not in defs

    def test_every_definition_has_a_user(self):
        unused = self._unused() - set(UNNAMED_DEFS)
        assert not unused, f"no module, bench or example names {sorted(unused)}"

    def test_allowlist_has_no_stale_entries(self):
        stale = set(UNNAMED_DEFS) - self._unused()
        assert not stale, f"named now, not unused: {sorted(stale)}"
