"""The built-in simlint rules (run ``repro lint --list-rules`` for the span).

Each rule encodes one project-specific invariant that a generic linter
cannot express — they are all, one way or another, about keeping the
simulator **bit-deterministic under a seed** and its hot path disciplined.
docs/STATIC_ANALYSIS.md carries the full catalog with worked examples; the
docstring of each checker here is the normative statement.

Scope conventions
-----------------
``SIM_PACKAGES`` are the packages whose code can affect simulation results
(event order, timestamps, marking decisions, flow schedules).  Rules about
*determinism of results* apply there; rules about *codebase hygiene*
(wall-clock, prints, mutable defaults) apply to all of ``src/repro`` and are
suppressed at the legitimately-impure sites with justified pragmas.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.engine import (
    SEVERITY_WARNING,
    Finding,
    ModuleInfo,
    rule,
)

#: packages under ``repro.`` whose code affects simulated behaviour
SIM_PACKAGES = (
    "sim",
    "net",
    "sched",
    "aqm",
    "core",
    "transport",
    "topo",
    "workloads",
)

# -- SIM001: wall clock ---------------------------------------------------

_TIME_FNS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
}
_DATETIME_FNS = {"now", "utcnow", "today"}


@rule(
    "SIM001",
    "no-wall-clock",
    rationale=(
        "Simulated time is Simulator.now; wall-clock reads make behaviour "
        "depend on host speed and destroy bit-reproducibility."
    ),
)
def check_wall_clock(mod: ModuleInfo) -> Iterator[Finding]:
    """Flag ``time.time()``/``perf_counter()``/``datetime.now()`` & friends.

    Applies to all of ``src/repro``: inside the sim-affecting packages a hit
    is always a bug; elsewhere (harness wall-time accounting, benchmarks)
    the few legitimate sites carry justified pragmas, so a new unannotated
    one still fails review.
    """
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name):
                if base.id == "time" and node.attr in _TIME_FNS:
                    yield mod.finding(
                        "SIM001",
                        node,
                        f"wall-clock call time.{node.attr} — simulated code "
                        "must read Simulator.now",
                    )
                elif base.id in ("datetime", "date") and node.attr in _DATETIME_FNS:
                    yield mod.finding(
                        "SIM001",
                        node,
                        f"wall-clock call {base.id}.{node.attr} — simulated "
                        "code must read Simulator.now",
                    )
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "datetime"
                and node.attr in _DATETIME_FNS
            ):
                yield mod.finding(
                    "SIM001",
                    node,
                    f"wall-clock call datetime.{base.attr}.{node.attr}",
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_FNS:
                    yield mod.finding(
                        "SIM001",
                        node,
                        f"imports wall-clock function time.{alias.name} — "
                        "keep the time module qualified so call sites are "
                        "individually auditable",
                    )


# -- SIM002: global random ------------------------------------------------

_RANDOM_DRAWS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "expovariate",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "betavariate",
    "paretovariate",
    "weibullvariate",
    "vonmisesvariate",
    "triangular",
    "getrandbits",
    "seed",
}


@rule(
    "SIM002",
    "no-global-random",
    rationale=(
        "The module-level random stream is shared process state: any new "
        "consumer perturbs every existing draw.  All randomness flows "
        "through repro.sim.rng seeded streams."
    ),
)
def check_global_random(mod: ModuleInfo) -> Iterator[Finding]:
    """Flag ``random.<draw>()`` on the module-global stream and unseeded
    ``random.Random()`` construction, everywhere except ``repro.sim.rng``."""
    if mod.module == "repro.sim.rng":
        return
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
        ):
            if func.attr in _RANDOM_DRAWS:
                yield mod.finding(
                    "SIM002",
                    node,
                    f"random.{func.attr}() uses the process-global stream — "
                    "draw from an RngFactory stream instead",
                )
            elif func.attr == "Random" and not node.args and not node.keywords:
                yield mod.finding(
                    "SIM002",
                    node,
                    "unseeded random.Random() — seed it, or take a stream "
                    "from RngFactory",
                )
        elif (
            isinstance(func, ast.Name)
            and func.id == "Random"
            and not node.args
            and not node.keywords
        ):
            yield mod.finding(
                "SIM002",
                node,
                "unseeded Random() — seed it, or take a stream from RngFactory",
            )


# -- SIM003: set-iteration order ------------------------------------------


def _scopes(tree: ast.Module) -> Iterator[Tuple[ast.AST, Sequence[ast.stmt]]]:
    """Yield (scope node, body) for the module and every function."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def _walk_scope(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a scope's statements without descending into nested scopes.

    Nested functions/lambdas/classes are *yielded* (so callers can note
    them) but not entered — each function body is analyzed exactly once,
    by its own entry from :func:`_scopes`.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@rule(
    "SIM003",
    "no-set-iteration",
    severity=SEVERITY_WARNING,
    rationale=(
        "Iterating a set of id-hashed objects visits them in PYTHONHASHSEED "
        "order — identical seeds then produce different event interleavings "
        "across processes.  Iterate a list, or sorted(...) with a stable key."
    ),
)
def check_set_iteration(mod: ModuleInfo) -> Iterator[Finding]:
    """Flag ``for``/comprehension iteration over sets in sim-affecting code.

    Heuristic: direct iteration of a set display/comprehension/``set()``
    call, or of a local name bound to one earlier in the same scope.
    Wrapping in ``sorted(...)`` (any deterministic ordering) passes.
    """
    if not mod.in_packages(SIM_PACKAGES):
        return
    for _scope, body in _scopes(mod.tree):
        set_names: Set[str] = set()
        # first pass: names bound to set expressions anywhere in the scope
        for node in _walk_scope(body):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if _is_set_expr(node.value) and isinstance(node.target, ast.Name):
                    set_names.add(node.target.id)
        for node in _walk_scope(body):
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    yield mod.finding(
                        "SIM003",
                        it,
                        "iteration over a set — order follows "
                        "PYTHONHASHSEED for id-hashed elements; use a "
                        "list or sorted(...)",
                    )
                elif isinstance(it, ast.Name) and it.id in set_names:
                    yield mod.finding(
                        "SIM003",
                        it,
                        f"iteration over set {it.id!r} — order follows "
                        "PYTHONHASHSEED for id-hashed elements; use a "
                        "list or sorted(...)",
                    )


# -- SIM004: mutable defaults ---------------------------------------------


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "dict", "set", "defaultdict", "deque", "bytearray")
    )


@rule(
    "SIM004",
    "no-mutable-defaults",
    rationale=(
        "A mutable default is shared across every call — state leaks "
        "between experiments and across sweep workers."
    ),
)
def check_mutable_defaults(mod: ModuleInfo) -> Iterator[Finding]:
    """Flag list/dict/set (display or constructor) default argument values."""
    for node in ast.walk(mod.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield mod.finding(
                    "SIM004",
                    default,
                    "mutable default argument — use None and construct "
                    "inside the function",
                )


# -- SIM005: __slots__ on hot-path classes --------------------------------

#: classes constructed per-port/per-flow/per-packet: one instance dict each
#: is measurable memory and attribute-lookup overhead on the hot path
HOT_CLASS_NAMES = {
    "Scheduler",
    "Aqm",
    "SenderBase",
    "Packet",
    "PacketQueue",
    "EgressPort",
    "PortStats",
    "Link",
    # Host and Switch are intentionally absent: one instance per node (a
    # handful per topology, vs. thousands of packets), and the test suite
    # instruments them by patching ``receive`` on instances — which
    # ``__slots__`` would forbid.
    "Receiver",
    "Flow",
    "Simulator",
    "TransportStats",
    "RateMeter",
}

#: inheriting from any of these puts a class on the hot path (AST-level
#: name matching: the known abstract roots plus their shipped subclasses,
#: so one level of indirection is still caught)
HOT_BASE_NAMES = {
    "Scheduler",
    "_SpOverScheduler",
    "FifoScheduler",
    "StrictPriorityScheduler",
    "WrrScheduler",
    "DwrrScheduler",
    "WfqScheduler",
    "PifoScheduler",
    "SpDwrrScheduler",
    "SpWfqScheduler",
    "Aqm",
    "NoopAqm",
    "SenderBase",
    "DctcpSender",
    "DcqcnSender",
    "EcnStarSender",
    "RenoSender",
}


def _base_names(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                return True
    return False


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        name = None
        if isinstance(dec, ast.Name):
            name = dec.id
        elif isinstance(dec, ast.Attribute):
            name = dec.attr
        elif isinstance(dec, ast.Call):
            func = dec.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "dataclass":
            return True
    return False


@rule(
    "SIM005",
    "slots-on-hot-path",
    rationale=(
        "Per-packet/per-flow objects without __slots__ each drag an "
        "instance dict: ~2x memory and a slower attribute path in the "
        "tightest loops the benchmarks gate."
    ),
)
def check_hot_path_slots(mod: ModuleInfo) -> Iterator[Finding]:
    """Hot-path classes (Packet, queues, ports, schedulers, AQMs, senders)
    must declare ``__slots__`` — empty tuple when they add no state."""
    if not mod.in_packages(SIM_PACKAGES):
        return
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        hot = node.name in HOT_CLASS_NAMES or (_base_names(node) & HOT_BASE_NAMES)
        if not hot or _is_dataclass(node):
            continue
        if not _declares_slots(node):
            yield mod.finding(
                "SIM005",
                node,
                f"hot-path class {node.name} does not declare __slots__ "
                "(use __slots__ = () when it adds no attributes)",
            )


# -- SIM006: stale `now` captured across event boundaries ------------------

_SCHEDULE_FNS = {"schedule", "schedule_at", "schedule_call", "schedule_many"}


def _names_read(node: ast.AST) -> Set[str]:
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


@rule(
    "SIM006",
    "no-stale-now-capture",
    severity=SEVERITY_WARNING,
    rationale=(
        "A callback runs at its *fire* time; a captured `now = sim.now` "
        "snapshot is the *scheduling* time.  Control laws fed stale "
        "timestamps (sojourn, round time) silently skew marking decisions."
    ),
)
def check_stale_now_capture(mod: ModuleInfo) -> Iterator[Finding]:
    """Flag scheduling a lambda/closure that reads a local previously
    assigned from ``<sim>.now`` — re-read ``.now`` inside the callback."""
    if not mod.in_packages(SIM_PACKAGES):
        return
    for scope, body in _scopes(mod.tree):
        if scope is mod.tree:
            continue
        # locals snapshotting .now in this function
        now_names: Set[str] = set()
        inner_defs: Dict[str, ast.AST] = {}
        for node in _walk_scope(body):
            if isinstance(node, ast.Assign):
                value = node.value
                if isinstance(value, ast.Attribute) and value.attr == "now":
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            now_names.add(target.id)
            if isinstance(node, ast.FunctionDef) and node is not scope:
                inner_defs[node.name] = node
        if not now_names:
            continue
        for node in _walk_scope(body):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            if attr not in _SCHEDULE_FNS:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                callback: Optional[ast.AST] = None
                if isinstance(arg, ast.Lambda):
                    callback = arg.body
                elif isinstance(arg, ast.Name) and arg.id in inner_defs:
                    callback = inner_defs[arg.id]
                if callback is None:
                    continue
                stale = _names_read(callback) & now_names
                if stale:
                    yield mod.finding(
                        "SIM006",
                        arg,
                        "scheduled callback captures stale now-snapshot "
                        f"{sorted(stale)!r} — re-read Simulator.now at "
                        "fire time",
                    )


# -- SIM007: abstract surface of Scheduler/Aqm subclasses ------------------


def _trivial_hook(fn: ast.FunctionDef) -> bool:
    """True for a body that is only a docstring plus `pass`/`return False`."""
    body = list(fn.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    return (
        isinstance(stmt, ast.Return)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is False
    )


@rule(
    "SIM007",
    "override-abstract-surface",
    rationale=(
        "A Scheduler must implement enqueue+dequeue; an Aqm must override a "
        "hook to exist at all.  Re-defining a hook as a trivial no-op "
        "defeats the port's hook elision and re-adds a per-packet call."
    ),
)
def check_abstract_surface(mod: ModuleInfo) -> Iterator[Finding]:
    """Direct ``Scheduler`` subclasses must define both ``enqueue`` and
    ``dequeue``; direct ``Aqm`` subclasses must override at least one
    marking hook, and no subclass may shadow a hook with a trivial no-op
    body (the port elides hooks inherited from ``Aqm`` — a shadowing no-op
    silently re-enables the per-packet call)."""
    if not mod.in_packages(SIM_PACKAGES):
        return
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = _base_names(node)
        methods = {
            s.name: s for s in node.body if isinstance(s, ast.FunctionDef)
        }
        if "Scheduler" in bases and node.name != "Scheduler":
            missing = {"enqueue", "dequeue"} - set(methods)
            if missing:
                yield mod.finding(
                    "SIM007",
                    node,
                    f"Scheduler subclass {node.name} does not implement "
                    f"{sorted(missing)} — the full abstract surface is "
                    "mandatory",
                )
        if "Aqm" in bases and node.name != "Aqm":
            hooks = {"on_enqueue", "on_dequeue"}
            overridden = hooks & set(methods)
            nontrivial = {h for h in overridden if not _trivial_hook(methods[h])}
            if not nontrivial:
                yield mod.finding(
                    "SIM007",
                    node,
                    f"Aqm subclass {node.name} overrides no marking hook — "
                    "it can never mark",
                )
            for h in overridden:
                if _trivial_hook(methods[h]):
                    yield mod.finding(
                        "SIM007",
                        methods[h],
                        f"{node.name}.{h} shadows the elided no-op hook with "
                        "a trivial body — delete the override so the port "
                        "skips the per-packet call",
                    )


# -- SIM008: float equality on simulated time ------------------------------

_TIME_NAME_SUFFIXES = ("_ns", "_ts", "_time")
_TIME_NAMES = {"now", "deadline", "enq_ts", "ts", "ts_echo", "sojourn"}


def _terminal_names(node: ast.AST) -> Iterator[str]:
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _time_like(node: ast.AST) -> bool:
    for name in _terminal_names(node):
        if name in _TIME_NAMES or name.endswith(_TIME_NAME_SUFFIXES):
            return True
    return False


def _float_tainted(node: ast.AST) -> bool:
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, float):
            return True
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Div):
            return True
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == "float"
        ):
            return True
    return False


@rule(
    "SIM008",
    "no-float-time-equality",
    rationale=(
        "Simulated time is integer nanoseconds by design; == against a "
        "float (or a true-division result) re-introduces the rounding "
        "surprises the integer clock exists to rule out."
    ),
)
def check_float_time_equality(mod: ModuleInfo) -> Iterator[Finding]:
    """Flag ``==``/``!=`` where one side is time-like (``.now``, ``*_ns``,
    ``*_ts``...) and either side is float-tainted (float literal, true
    division, ``float()``)."""
    if not mod.in_packages(SIM_PACKAGES):
        return
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if (_time_like(left) or _time_like(right)) and (
                _float_tainted(left) or _float_tainted(right)
            ):
                yield mod.finding(
                    "SIM008",
                    node,
                    "float equality on simulated time — compare integer "
                    "nanoseconds, or use an explicit tolerance",
                )


# -- SIM009: no print -----------------------------------------------------


@rule(
    "SIM009",
    "no-print",
    rationale=(
        "Stray prints corrupt machine-read CLI output and bypass the "
        "repro.obs tracing/metrics pipeline; user-facing output belongs to "
        "the CLI modules."
    ),
)
def check_print(mod: ModuleInfo) -> Iterator[Finding]:
    """Flag ``print()`` outside the CLI entry points (``__main__``, ``cli``
    modules) — route diagnostics through ``repro.obs``."""
    parts = mod.package_parts()
    if parts and (parts[-1] in ("__main__", "cli")):
        return
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield mod.finding(
                "SIM009",
                node,
                "print() in library code — emit through repro.obs (trace/"
                "metrics) or return data to the CLI layer",
            )


# -- SIM010: freelist discipline ------------------------------------------

_MAKE_FNS = {"make_data", "make_ack"}


def _statement_lists(tree: ast.Module) -> Iterator[List[ast.stmt]]:
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if isinstance(stmts, list) and stmts and isinstance(stmts[0], ast.stmt):
                yield stmts


@rule(
    "SIM010",
    "freelist-discipline",
    rationale=(
        "Packets are pooled: a make_data/make_ack result that is dropped on "
        "the floor leaks a frame for the whole run, and touching a packet "
        "after release() reads a frame the next make_* may have rewritten."
    ),
)
def check_freelist_discipline(mod: ModuleInfo) -> Iterator[Finding]:
    """In ``repro.net``/``repro.transport``: a ``make_data``/``make_ack``
    result must not be discarded, and a name passed to ``release()`` must
    not be used later in the same statement list (use-after-release).  The
    companion cross-module invariant — every make path reaches ``release``
    at the delivery endpoint — is enforced at runtime by the freelist
    counters the benchmarks gate."""
    if not mod.in_packages(("net", "transport")):
        return
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in _MAKE_FNS:
                yield mod.finding(
                    "SIM010",
                    node,
                    f"{name}() result discarded — the frame can never be "
                    "released back to the freelist",
                )
    for stmts in _statement_lists(mod.tree):
        released: Dict[str, int] = {}
        for idx, stmt in enumerate(stmts):
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and len(stmt.value.args) == 1
                and isinstance(stmt.value.args[0], ast.Name)
            ):
                func = stmt.value.func
                fname = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None
                )
                if fname == "release":
                    released[stmt.value.args[0].id] = idx
                    continue
            # reassignment re-validates the name
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id in released:
                        del released[target.id]
            if not released:
                continue
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id in released
                ):
                    yield mod.finding(
                        "SIM010",
                        sub,
                        f"{sub.id!r} used after release() — the frame may "
                        "already have been recycled by the next make_*",
                    )
                    del released[sub.id]
                    break


# -- API confinement (SIM011/SIM012/SIM017) ---------------------------------
#
# The confinement rules share one declarative table: each entry names a
# confined API, where it may be used, and the one-line contract the
# confinement protects.  SIM011/SIM012 keep their historical ids (and
# fixtures/baselines keyed on them); SIM017 carries the later entries and
# also follows module aliases, so ``import repro.net.packet as p`` followed
# by ``p.release(...)`` cannot dodge it.  SIM013 (event-queue draining
# outside the engine) is retired with the queue backends it guarded, the
# partition-ownership rule SIM014 with the partitioned engine, and the
# freelist escape analysis SIM015 with the whole-program layer; no id is
# reused.

_ENGINE_PKG = ("repro", "sim", "engine")
_SANITIZE_PKG = ("repro", "sanitize")
_SWEEP_PKG = ("repro", "harness", "sweep")
_NET_PKG = ("repro", "net")
_TRANSPORT_PKG = ("repro", "transport")


class Confinement(NamedTuple):
    """One confined API: what is restricted, and where it is legitimate."""

    rule_id: str
    #: "import"      — the whole module is confined (import / from-import)
    #: "from-import" — only ``names`` imported from ``api`` are confined
    kind: str
    api: str  # module dotted name
    names: Tuple[str, ...]  # confined names (empty = the whole module)
    allowed: Tuple[Tuple[str, ...], ...]  # package prefixes allowed to use it
    message: str


CONFINEMENTS: Tuple[Confinement, ...] = (
    Confinement(
        "SIM011", "import", "heapq", (), (_ENGINE_PKG, _SANITIZE_PKG),
        "heapq imported outside repro.sim.engine and repro.sanitize — "
        "event ordering belongs to the engine's heap and its checked "
        "twins",
    ),
    Confinement(
        "SIM012", "import", "multiprocessing", (), (_SWEEP_PKG,),
        "multiprocessing imported outside the sweep driver — process "
        "fan-out belongs to repro.harness.sweep",
    ),
    Confinement(
        "SIM017", "import", "gc", (), (_ENGINE_PKG,),
        "gc control outside repro.sim.engine — the run loop owns the "
        "collector pause window; a second owner desynchronizes the "
        "gc.enable/disable pairing the engine guarantees",
    ),
    Confinement(
        "SIM017", "from-import", "repro.sim.engine",
        ("heappush", "heappop", "heapreplace", "heapify"),
        (_ENGINE_PKG,),
        "the engine's raw heap primitives used outside repro.sim.engine "
        "— pushing entries behind the Simulator's back bypasses the "
        "(time, seq) contract, the tombstone bookkeeping and the "
        "sanitizer's checked primitives",
    ),
    Confinement(
        "SIM017", "from-import", "repro.net.packet",
        ("make_data", "make_ack", "make_data_run", "release"),
        (_NET_PKG, _TRANSPORT_PKG),
        "packet freelist constructors/release used outside repro.net and "
        "repro.transport — frame lifetime (and the sanitizer's poisoning "
        "protocol) is the endpoint layer's contract",
    ),
)


def _module_allowed(
    mod: ModuleInfo, allowed: Tuple[Tuple[str, ...], ...]
) -> bool:
    parts = mod.package_parts()
    return any(parts[: len(pkg)] == pkg for pkg in allowed)


def _confinement_findings(
    mod: ModuleInfo, entries: Sequence[Confinement]
) -> Iterator[Finding]:
    """Run the import entries of the table against one module."""
    live = [e for e in entries if not _module_allowed(mod, e.allowed)]
    if not live:
        return
    imports = [e for e in live if e.kind == "import"]
    from_imports = [e for e in live if e.kind == "from-import"]
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                for e in imports:
                    if alias.name == e.api or alias.name.startswith(e.api + "."):
                        yield mod.finding(e.rule_id, node, e.message)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for e in imports:
                if module == e.api or module.startswith(e.api + "."):
                    yield mod.finding(e.rule_id, node, e.message)
            for e in from_imports:
                if module == e.api and {a.name for a in node.names} & set(e.names):
                    yield mod.finding(e.rule_id, node, e.message)


def _table_entries(rule_id: str) -> Tuple[Confinement, ...]:
    return tuple(e for e in CONFINEMENTS if e.rule_id == rule_id)


@rule(
    "SIM011",
    "heapq-in-engine-only",
    rationale=(
        "Event ordering is the engine's contract: an ad-hoc heapq "
        "elsewhere in simulation code re-implements the (time, seq) total "
        "order in private, outside the lazy-cancel bookkeeping and the "
        "sanitizer's checked push/pop."
    ),
)
def check_heapq_confined(mod: ModuleInfo) -> Iterator[Finding]:
    """``heapq`` may be imported only by ``repro.sim.engine`` (the event
    heap) and ``repro.sanitize`` (its checked push/pop twins): every other
    module must order time-keyed work through the ``Simulator``
    scheduling API.  Non-event priority queues (e.g. a packet-ranking
    scheduler) are legitimate — suppress with a pragma naming the
    ordering domain."""
    yield from _confinement_findings(mod, _table_entries("SIM011"))


# -- SIM012: multiprocessing confinement ------------------------------------


@rule(
    "SIM012",
    "multiprocessing-in-drivers-only",
    rationale=(
        "Process fan-out is the sweep driver's contract: it owns the "
        "start-method fallbacks, the spawn-safe bootstrap and the "
        "serial-equivalent results.  An ad-hoc multiprocessing use "
        "elsewhere forks simulation state mid-run and bypasses every one "
        "of those guarantees."
    ),
)
def check_multiprocessing_confined(mod: ModuleInfo) -> Iterator[Finding]:
    """``multiprocessing`` may be imported only by ``repro.harness.sweep``:
    everywhere else, parallelism must go through ``run_sweep`` (one
    config per process), which is tested for serial-equivalent results.
    A genuinely new driver belongs next to it, not behind a pragma."""
    yield from _confinement_findings(mod, _table_entries("SIM012"))


# -- SIM016: event-callback purity -------------------------------------------


def _functions(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[ast.ClassDef], ast.FunctionDef]]:
    """Yield (enclosing class or None, def) for module functions and the
    methods of module-level classes."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield None, stmt
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    yield stmt, sub


def _lambda_bound_names(fn: ast.Lambda) -> Set[str]:
    args = fn.args
    bound = {a.arg for a in args.args}
    bound |= {a.arg for a in args.kwonlyargs}
    bound |= {a.arg for a in getattr(args, "posonlyargs", [])}
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    return bound


def _reads_self_attr(fn: ast.FunctionDef, attrs: Set[str]) -> Optional[str]:
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in attrs
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
    return None


@rule(
    "SIM016",
    "event-callback-purity",
    severity=SEVERITY_WARNING,
    rationale=(
        "A callback runs at fire time: closing over the live loop "
        "variable makes every callback see the final iteration, and a "
        "now-snapshot stashed on self is the *scheduling* time when the "
        "callback reads it.  SIM006 catches the same-function closure "
        "case; this rule follows the callback into the sibling method "
        "it schedules."
    ),
)
def check_callback_purity(mod: ModuleInfo) -> Iterator[Finding]:
    """Two generalizations of SIM006, in sim-affecting packages: (a) a
    callback scheduled *inside a for loop* that closes over the loop
    variable without default-binding it (late binding: all callbacks
    share the last element); (b) ``self.X = <...>.now`` in a method that
    then schedules another method defined in the same class body which
    reads ``self.X`` — the callback consumes a scheduling-time snapshot.
    Known false negatives: scheduled methods inherited from a base class,
    snapshots flowing through intermediate helpers, dict-dispatched
    callbacks, and attributes read via aliases of ``self``."""
    if not mod.in_packages(SIM_PACKAGES):
        return
    for cls, fn in _functions(mod.tree):
        # (a) loop-variable capture
        for loop in ast.walk(fn):
            if not isinstance(loop, ast.For):
                continue
            targets = {
                n.id
                for n in ast.walk(loop.target)
                if isinstance(n, ast.Name)
            }
            if not targets:
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                attr = func.attr if isinstance(func, ast.Attribute) else None
                if attr not in _SCHEDULE_FNS:
                    continue
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if not isinstance(arg, ast.Lambda):
                        continue
                    captured = sorted(
                        (_names_read(arg.body) - _lambda_bound_names(arg))
                        & targets
                    )
                    if captured:
                        yield mod.finding(
                            "SIM016",
                            arg,
                            "scheduled callback closes over live loop "
                            f"variable(s) {captured!r} — every callback "
                            "will see the final iteration's value; bind "
                            "with a default (lambda x=x: ...)",
                        )
        # (b) now-snapshot handed to a sibling method via self attributes
        if cls is None:
            continue
        now_locals: Set[str] = set()
        snap_attrs: Set[str] = set()
        for node in _walk_scope(fn.body):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            bare_now = isinstance(value, ast.Attribute) and value.attr == "now"
            from_now_local = (
                isinstance(value, ast.Name) and value.id in now_locals
            )
            for target in node.targets:
                if isinstance(target, ast.Name) and bare_now:
                    now_locals.add(target.id)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and (bare_now or from_now_local)
                ):
                    snap_attrs.add(target.attr)
        if not snap_attrs:
            continue
        methods = {s.name: s for s in cls.body if isinstance(s, ast.FunctionDef)}
        for node in _walk_scope(fn.body):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            if attr not in _SCHEDULE_FNS:
                continue
            for arg in list(node.args) + [k.value for k in node.keywords]:
                if not (
                    isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "self"
                    and arg.attr in methods
                ):
                    continue
                hit = _reads_self_attr(methods[arg.attr], snap_attrs)
                if hit is not None:
                    yield mod.finding(
                        "SIM016",
                        arg,
                        f"scheduled callback {arg.attr}() reads "
                        f"self.{hit}, a .now snapshot taken at "
                        "scheduling time — re-read Simulator.now at "
                        "fire time",
                    )


# -- SIM017: API confinement, imports and module aliases ----------------------


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _module_aliases(mod: ModuleInfo, apis: Set[str]) -> Dict[str, str]:
    """Local dotted names bound to one of the ``apis`` modules: ``import
    a.b as p`` binds ``p``, ``from a import b`` binds ``b``, and a plain
    ``import a.b`` makes the full path ``a.b`` usable."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in apis:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if full in apis:
                    aliases[alias.asname or alias.name] = full
    return aliases


@rule(
    "SIM017",
    "api-confinement",
    rationale=(
        "Some APIs are contracts of exactly one subsystem: gc pausing "
        "belongs to the run loop, raw heap primitives to the engine, "
        "frame construction to the endpoint layer.  The declarative table "
        "(CONFINEMENTS) states who may use what; following module aliases "
        "means an innocent-looking module import cannot dodge it."
    ),
)
def check_api_confinement(mod: ModuleInfo) -> Iterator[Finding]:
    """Enforce the SIM017 rows of :data:`CONFINEMENTS`: flag disallowed
    imports of confined names, and calls of a confined name through a
    module alias bound in the same file, where the import itself looks
    innocent (``import repro.net.packet as p; p.release(...)``).  Known
    false negatives: aliases bound in another module or by a relative
    import, and names reached through a package re-export."""
    entries = _table_entries("SIM017")
    yield from _confinement_findings(mod, entries)
    confined = {
        e.api: e
        for e in entries
        if e.kind == "from-import" and not _module_allowed(mod, e.allowed)
    }
    aliases = _module_aliases(mod, set(confined)) if confined else {}
    if not aliases:
        return
    for node in ast.walk(mod.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        api = aliases.get(_dotted(node.func.value) or "")
        if api is not None and node.func.attr in confined[api].names:
            yield mod.finding("SIM017", node, confined[api].message)


# -- SIM018: fluid-solver discipline ------------------------------------------

_FLUID_PKG = ("repro", "sim", "fluid")

#: the packet-freelist surface the fluid package may never touch
_FLUID_FREELIST_NAMES = frozenset(
    {"make_data", "make_ack", "make_data_run", "release", "reset_freelist"}
)
_FLUID_FORBIDDEN_MODULE = "repro.net.packet"


def _fluid_mutator(name: str) -> bool:
    """Function names allowed to mutate fluid state.

    ``__init__`` builds the objects; ``on_*`` are the scheduled event
    entry points; ``_epoch*`` are the epoch-boundary phases they call
    (settle / resolve / apply / arm / restore).  Everything else in the
    package is a pure helper.
    """
    return (
        name == "__init__"
        or name.startswith("on_")
        or name.startswith("_epoch")
    )


@rule(
    "SIM018",
    "fluid-epoch-discipline",
    rationale=(
        "The fluid solver is a rate abstraction: it must never construct "
        "or release pooled frames (frame lifetime is the packet engine's "
        "contract, guarded by the freelist counters and the sanitizer "
        "poisoning protocol), and fluid state may move only at epoch "
        "boundaries — mutation scattered through helpers breaks the "
        "piecewise-constant-rate invariant the epoch algebra "
        "(settle -> resolve -> apply -> arm) and the fluid digest pins "
        "rely on."
    ),
)
def check_fluid_discipline(mod: ModuleInfo) -> Iterator[Finding]:
    """In ``repro.sim.fluid`` only: (a) importing ``repro.net.packet`` —
    or naming any freelist constructor/release — is forbidden: fluid
    flows are rates, not frames; (b) attribute stores are confined to
    ``__init__`` and the epoch-boundary entry points (functions named
    ``on_*`` / ``_epoch*``) — helpers compute and return, they do not
    mutate.  Subscript stores (the solver's work arrays) are always
    allowed.  The packet side of the coupling (the port reading
    ``port.fluid``) lives outside this package and is deliberately out
    of scope."""
    parts = mod.package_parts()
    if parts[: len(_FLUID_PKG)] != _FLUID_PKG:
        return
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == _FLUID_FORBIDDEN_MODULE or alias.name.startswith(
                    _FLUID_FORBIDDEN_MODULE + "."
                ):
                    yield mod.finding(
                        "SIM018",
                        node,
                        "repro.net.packet imported in the fluid package — "
                        "fluid flows are rates, not frames",
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == _FLUID_FORBIDDEN_MODULE or module.startswith(
                _FLUID_FORBIDDEN_MODULE + "."
            ):
                yield mod.finding(
                    "SIM018",
                    node,
                    "repro.net.packet imported in the fluid package — "
                    "fluid flows are rates, not frames",
                )
            else:
                hit = sorted(
                    {a.name for a in node.names} & _FLUID_FREELIST_NAMES
                )
                if hit:
                    yield mod.finding(
                        "SIM018",
                        node,
                        f"freelist name(s) {', '.join(hit)} imported in the "
                        "fluid package — the packet freelist is off-limits "
                        "to the fluid solver",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in _FLUID_FREELIST_NAMES:
                yield mod.finding(
                    "SIM018",
                    node,
                    f"{name}() called in the fluid package — the packet "
                    "freelist is off-limits to the fluid solver",
                )
    for scope, body in _scopes(mod.tree):
        if isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and _fluid_mutator(scope.name):
            continue
        where = (
            "at module level"
            if isinstance(scope, ast.Module)
            else f"in helper {scope.name}()"
        )
        for node in _walk_scope(body):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                yield mod.finding(
                    "SIM018",
                    node,
                    f"fluid state mutated {where} — mutation is confined "
                    "to __init__ and the epoch-boundary entry points "
                    "(on_* / _epoch*)",
                )
