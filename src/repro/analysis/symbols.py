"""Project symbol table and call graph for simlint's cross-module rules.

Layer 1 of the two-layer toolchain (see ``docs/STATIC_ANALYSIS.md``): a
:class:`Project` is built once per lint run from every parsed
:class:`~repro.analysis.engine.ModuleInfo` and gives project-scoped rules
(``scope="project"``) three things the per-file AST cannot:

* **Name resolution** — each module's import table maps local aliases to
  fully-qualified dotted names, so ``from repro.net.packet import release
  as rel; rel(p)`` resolves to ``repro.net.packet.release`` no matter how
  it was spelled (and regardless of whether the target module is part of
  the linted file set — resolution is lexical, which is what lets a
  single-file fixture exercise a cross-module rule).
* **Definitions** — functions, methods and classes keyed by qualname
  (``repro.sim.parallel.cluster._Partition.apply_and_run``), with class
  bases resolved so "is-a / wraps-a ``PartitionSimulator``" questions are
  answerable.
* **A call graph** — resolved edges for ``Name`` calls, dotted-attribute
  calls and ``self.method()`` calls, plus a conservative bag of *bare*
  attribute-call names (``obj.meth(...)`` on an unresolvable receiver).

Everything here is deliberately *lexical and conservative*: no type
inference, no points-to.  Rules built on top document the resulting
false-negative envelope rather than chase soundness.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import ModuleInfo


class FunctionInfo:
    """One function or method definition, addressable by qualname."""

    __slots__ = ("qualname", "module", "node", "class_name")

    def __init__(
        self,
        qualname: str,
        module: str,
        node: ast.FunctionDef,
        class_name: Optional[str],
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.node = node
        self.class_name = class_name  # None for module-level functions


class ClassInfo:
    """One class definition: resolved bases and its method table."""

    __slots__ = ("qualname", "module", "node", "bases", "methods")

    def __init__(
        self,
        qualname: str,
        module: str,
        node: ast.ClassDef,
        bases: Tuple[str, ...],
        methods: Dict[str, str],  # method name -> method qualname
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.node = node
        self.bases = bases
        self.methods = methods


class Project:
    """Whole-program view over one lint run's modules."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        #: dotted module name -> ModuleInfo
        self.modules: Dict[str, ModuleInfo] = {m.module: m for m in modules}
        #: module -> {local alias -> fully-qualified dotted name}
        self.imports: Dict[str, Dict[str, str]] = {}
        #: qualname -> FunctionInfo (module functions and class methods)
        self.functions: Dict[str, FunctionInfo] = {}
        #: qualname -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qualname -> resolved callee qualnames
        self.calls: Dict[str, Set[str]] = {}
        #: caller qualname -> bare method names called on opaque receivers
        self.attr_calls: Dict[str, Set[str]] = {}
        #: imported fq name -> its home after re-exports (`_home_of` memo)
        self._homes: Dict[str, str] = {}
        # every import table first: resolving a name may consult any of them
        for mod in modules:
            self._index_imports(mod)
        for mod in modules:
            self._index_defs(mod)
        for mod in modules:
            self._index_calls(mod)

    # -- construction ----------------------------------------------------

    def _index_imports(self, mod: ModuleInfo) -> None:
        table: Dict[str, str] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".", 1)[0]
                        table[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(mod.module, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base else alias.name
        self.imports[mod.module] = table

    def _index_defs(self, mod: ModuleInfo) -> None:
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qn = f"{mod.module}.{stmt.name}"
                self.functions[qn] = FunctionInfo(qn, mod.module, stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                cls_qn = f"{mod.module}.{stmt.name}"
                methods: Dict[str, str] = {}
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mq = f"{cls_qn}.{sub.name}"
                        methods[sub.name] = mq
                        self.functions[mq] = FunctionInfo(
                            mq, mod.module, sub, stmt.name
                        )
                bases = tuple(
                    b
                    for b in (
                        self.resolve_expr(mod.module, base) for base in stmt.bases
                    )
                    if b is not None
                )
                self.classes[cls_qn] = ClassInfo(
                    cls_qn, mod.module, stmt, bases, methods
                )

    @staticmethod
    def _import_base(module: str, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted base of a ``from X import ...`` (relative-aware)."""
        if not node.level:
            return node.module or ""
        parts = module.split(".")
        # level 1 = current package: drop the module's own leaf name
        if len(parts) < node.level:
            return None
        anchor = parts[: len(parts) - node.level]
        if node.module:
            anchor.append(node.module)
        return ".".join(anchor)

    def _index_calls(self, mod: ModuleInfo) -> None:
        for qn, info in self.functions.items():
            if info.module != mod.module:
                continue
            resolved: Set[str] = set()
            bare: Set[str] = set()
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                target = self.resolve_callable(
                    mod.module, info.class_name, node.func
                )
                if target is not None:
                    resolved.add(target)
                elif isinstance(node.func, ast.Attribute):
                    bare.add(node.func.attr)
            self.calls[qn] = resolved
            self.attr_calls[qn] = bare

    # -- resolution ------------------------------------------------------

    def resolve_name(self, module: str, name: str) -> Optional[str]:
        """Resolve a bare name in ``module`` to a fully-qualified name."""
        target = self.imports.get(module, {}).get(name)
        if target is not None:
            return self._home_of(target)
        local = f"{module}.{name}"
        if local in self.functions or local in self.classes:
            return local
        return None

    def _home_of(self, target: str) -> str:
        """Follow ``pkg.name`` through ``pkg``'s own imports to its home.

        A package ``__init__`` re-exports names it imports — eagerly, or
        under ``if TYPE_CHECKING:`` beside a lazy export table; either way
        the import table sees the statement — so ``from repro.net import
        release`` must resolve to ``repro.net.packet.release``, the name
        the rules key on, not to ``repro.net.release``.
        """
        home = self._homes.get(target)
        if home is None:
            home, seen = target, {target}
            while True:
                owner, _, leaf = home.rpartition(".")
                onward = self.imports.get(owner, {}).get(leaf)
                if onward is None or onward in seen:  # at home / a cycle
                    break
                seen.add(onward)
                home = onward
            self._homes[target] = home
        return home

    def resolve_expr(self, module: str, node: ast.AST) -> Optional[str]:
        """Resolve a ``Name`` or dotted ``Attribute`` chain to a fq name.

        ``packet.release`` under ``import repro.net.packet as packet``
        resolves to ``repro.net.packet.release``; chains whose head is not
        a plain name (calls, subscripts) resolve to ``None``.
        """
        parts: List[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        parts.append(cur.id)
        parts.reverse()
        head = self.resolve_name(module, parts[0])
        if head is None:
            # unresolved head: a plain `import a.b` binds `a`, which the
            # import table records as itself, so only truly local/builtin
            # heads land here
            return None
        return ".".join([head] + parts[1:])

    def resolve_callable(
        self, module: str, class_name: Optional[str], func: ast.AST
    ) -> Optional[str]:
        """Resolve a call's ``func`` expression to a definition qualname.

        Handles bare names, dotted chains and ``self.method(...)`` (looked
        up in the enclosing class, then its resolved project bases).
        """
        if isinstance(func, ast.Name):
            return self.resolve_name(module, func.id)
        if not isinstance(func, ast.Attribute):
            return None
        recv = func.value
        if (
            isinstance(recv, ast.Name)
            and recv.id == "self"
            and class_name is not None
        ):
            return self.resolve_method(f"{module}.{class_name}", func.attr)
        return self.resolve_expr(module, func)

    def resolve_method(self, class_qualname: str, method: str) -> Optional[str]:
        """Find ``method`` on a class or its project-resolved bases (MRO-ish)."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            cq = stack.pop(0)
            if cq in seen:
                continue
            seen.add(cq)
            info = self.classes.get(cq)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            stack.extend(info.bases)
        return None

    def is_subclass_of(self, class_qualname: str, base_suffix: str) -> bool:
        """True when the class or any resolved ancestor matches ``base_suffix``.

        ``base_suffix`` matches a full qualname or a trailing dotted suffix
        (``partition.PartitionSimulator``), so the check works even when
        the base's defining module is outside the linted file set.
        """
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            cq = stack.pop()
            if cq in seen:
                continue
            seen.add(cq)
            if cq == base_suffix or cq.endswith("." + base_suffix):
                return True
            info = self.classes.get(cq)
            if info is not None:
                stack.extend(info.bases)
        return False

    # -- reachability ----------------------------------------------------

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Qualnames reachable from ``roots`` over *resolved* call edges."""
        seen: Set[str] = set()
        stack = [r for r in roots]
        while stack:
            qn = stack.pop()
            if qn in seen:
                continue
            seen.add(qn)
            stack.extend(self.calls.get(qn, ()))
        return seen

    def functions_in_package(self, prefix: str) -> List[str]:
        """Qualnames of every function whose module sits under ``prefix``."""
        dotted = prefix + "."
        return [
            qn
            for qn, info in self.functions.items()
            if info.module == prefix or info.module.startswith(dotted)
        ]


def build_project(modules: Sequence[ModuleInfo]) -> Project:
    """Build the whole-program view for one lint run."""
    return Project(modules)
