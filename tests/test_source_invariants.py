"""Source invariants that keep runs bit-deterministic and the hot path lean.

A run must be a pure function of its config and seed, and idiomatic Python
breaks that silently: a ``time.time()`` in a control law, a draw on the
process-global ``random`` stream, a second owner of the event heap.  Each
check reads the AST of every module under ``src/repro``.  A finding is keyed
by (module, innermost enclosing def or class, check); ``ALLOWED`` lists the
legitimate sites with their exact finding counts and a reason, and an entry
whose count no longer matches fails too.  docs/STATIC_ANALYSIS.md maps each
check to the rule it replaced.
"""

import ast
import collections
import functools
from pathlib import Path

import pytest

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
    ("repro.aqm.base", "NoopAqm", "abstract-surface"): (
        1, "the no-ECN baseline is the base class's never-mark behaviour"),
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
_HOT_BASES = {"Scheduler", "FifoScheduler", "WrrScheduler",
              "StrictPriorityScheduler", "DwrrScheduler", "WfqScheduler",
              "PifoScheduler", "SpDwrrScheduler", "SpWfqScheduler", "Aqm", "NoopAqm",
              "SenderBase", "DctcpSender", "DcqcnSender", "EcnStarSender", "RenoSender"}


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
    """The names ``package``'s ``__init__`` serves lazily (its ``_EXPORTS``
    keys); empty for a module or a package outside ``src/repro``."""
    init = SRC.parent.joinpath(*package.split("."), "__init__.py")
    if not init.is_file():
        return frozenset()
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "_EXPORTS" for t in node.targets):
            return frozenset(ast.literal_eval(node.value))
    return frozenset()


def package_import(module, tree):
    """A name is imported from its home module, never through a package's
    lazy ``__getattr__``: a type checker sees a lazily served name as
    ``Any``, so one such import would blind the strict mypy tier.
    Submodules (``from repro.net import packet``) and what an ``__init__``
    defines itself (``_lazy_exports``) are not served, so they pass."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            hit = sorted({a.name for a in node.names} & _served(node.module))
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
     "class NoopAqm(Aqm):\n    __slots__ = ()\n"
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
