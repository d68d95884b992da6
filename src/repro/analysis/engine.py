"""The simlint engine: file walking, pragmas, baseline, rule registry.

The engine is deliberately small and dependency-free (stdlib ``ast`` only):

* A **rule** is a callable ``(ModuleInfo) -> Iterable[Finding]`` registered
  through the :func:`rule` decorator, carrying an id (``SIMxxx``), a default
  severity, and a one-line rationale.
* **Pragmas** suppress findings inline::

      time.time()  # simlint: disable=SIM001 -- wall clock feeds wall_s only

  The justification after ``--`` is *mandatory*: a pragma without one does
  not suppress and instead raises a ``SIM000`` finding.  A pragma on a line
  of its own applies to the next source line; ``disable-file=`` applies to
  the whole module.  Pragmas that suppress nothing are reported (warning) so
  dead suppressions cannot accumulate.
* The **baseline** grandfathers existing findings: fingerprints are
  line-number-independent (rule + path + normalized source line + occurrence
  index), so unrelated edits do not invalidate it.  Only *new* error-level
  findings fail the lint.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
import tokenize
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

#: bump when the baseline file format changes incompatibly
BASELINE_VERSION = 1
#: bump when the ``--format json`` report schema changes incompatibly
JSON_SCHEMA_VERSION = 1

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: id reserved for pragma hygiene (malformed / unknown-rule / unused)
PRAGMA_RULE_ID = "SIM000"

_PRAGMA_RE = re.compile(
    r"#\s*simlint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)


class Finding(NamedTuple):
    """One diagnostic: a rule firing at a source location."""

    rule: str
    path: str  # repo-relative posix path
    line: int  # 1-based
    col: int  # 0-based
    severity: str
    message: str
    snippet: str  # stripped source line

    def fingerprint_key(self) -> str:
        """Line-number-independent identity used for baselining.

        Whitespace inside the snippet is collapsed so reformatting a line
        does not churn the baseline; the occurrence index for identical
        (rule, path, snippet) triples is appended by the baseline matcher.
        """
        norm = " ".join(self.snippet.split())
        return f"{self.rule}|{self.path}|{norm}"

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"


#: rule scopes: module rules see one file, project rules see the whole run
SCOPE_MODULE = "module"
SCOPE_PROJECT = "project"


class Rule(NamedTuple):
    """A registered rule: metadata plus its check function.

    ``scope`` selects the check signature: ``"module"`` rules are called
    as ``check(mod)``, ``"project"`` rules as ``check(mod, project)``
    with the :class:`repro.analysis.symbols.Project` built over every
    module in the lint run.
    """

    id: str
    name: str
    severity: str
    rationale: str
    check: Callable[..., Iterable[Finding]]
    scope: str = SCOPE_MODULE


_REGISTRY: Dict[str, Rule] = {}


def rule(
    id: str,
    name: str,
    severity: str = SEVERITY_ERROR,
    rationale: str = "",
    scope: str = SCOPE_MODULE,
) -> Callable[[Callable[..., Iterable[Finding]]], Callable]:
    """Class/function decorator registering a simlint rule.

    >>> @rule("SIM999", "demo", rationale="docs example")
    ... def _check(mod):
    ...     return []
    >>> registered_rules()["SIM999"].name
    'demo'
    >>> _ = _REGISTRY.pop("SIM999")
    """

    def decorate(fn: Callable[..., Iterable[Finding]]) -> Callable:
        if id in _REGISTRY:
            raise ValueError(f"duplicate rule id {id}")
        if scope not in (SCOPE_MODULE, SCOPE_PROJECT):
            raise ValueError(f"unknown rule scope {scope!r}")
        _REGISTRY[id] = Rule(id, name, severity, rationale, fn, scope)
        return fn

    return decorate


def registered_rules() -> Dict[str, Rule]:
    """The rule registry (id -> Rule), importing the built-in rules."""
    # The import is deferred so engine <-> rules can cross-reference.
    from repro.analysis import rules as _rules  # noqa: F401

    return dict(_REGISTRY)


def rule_range() -> str:
    """The registry-derived id span, e.g. ``"SIM001..SIM018"``.

    User-facing text (CLI help, docs pointers) must use this instead of a
    hardcoded span so the advertised range can never rot as rules are
    added (it did once: "SIM001..SIM010" survived three rule additions).
    """
    ids = sorted(rid for rid in registered_rules() if rid != PRAGMA_RULE_ID)
    if not ids:
        return "none"
    if len(ids) == 1:
        return ids[0]
    return f"{ids[0]}..{ids[-1]}"


class Pragma(NamedTuple):
    line: int  # line the pragma comment sits on
    rules: Tuple[str, ...]
    justification: Optional[str]  # None = malformed (missing)
    file_wide: bool
    raw: str


class ModuleInfo:
    """One parsed module: tree, source lines, dotted name, pragmas."""

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=rel)
        self.module = _dotted_module(rel)
        self.pragmas = _scan_pragmas(path, source)

    # -- helpers for rule authors ---------------------------------------

    def finding(
        self, rule_id: str, node: ast.AST, message: str, severity: Optional[str] = None
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = self.lines[line - 1].strip() if line <= len(self.lines) else ""
        if severity is None:
            severity = _REGISTRY[rule_id].severity if rule_id in _REGISTRY else SEVERITY_ERROR
        return Finding(rule_id, self.rel, line, col, severity, message, snippet)

    def package_parts(self) -> Tuple[str, ...]:
        """Dotted module split into parts, e.g. ('repro', 'sim', 'engine')."""
        return tuple(self.module.split("."))

    def in_packages(self, names: Iterable[str]) -> bool:
        """True when the module lives under ``repro.<one of names>``."""
        parts = self.package_parts()
        return len(parts) >= 2 and parts[0] == "repro" and parts[1] in set(names)


def _dotted_module(rel: str) -> str:
    """``src/repro/sim/engine.py`` -> ``repro.sim.engine``."""
    parts = Path(rel).with_suffix("").parts
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _scan_pragmas(path: Path, source: str) -> List[Pragma]:
    """Extract simlint pragmas from comments via the tokenizer.

    Using :mod:`tokenize` (not a line regex) means pragma-looking text inside
    string literals can never suppress anything.
    """
    pragmas: List[Pragma] = []
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        for tok in tokens:
            if tok.type != tokenize.COMMENT or "simlint:" not in tok.string:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                # pragma-looking comment that does not parse: malformed
                pragmas.append(
                    Pragma(tok.start[0], (), None, False, tok.string.strip())
                )
                continue
            ids = tuple(
                r.strip().upper() for r in match.group("rules").split(",") if r.strip()
            )
            pragmas.append(
                Pragma(
                    tok.start[0],
                    ids,
                    match.group("why"),
                    match.group("kind") == "disable-file",
                    tok.string.strip(),
                )
            )
    except tokenize.TokenError:  # unterminated strings etc.: no pragmas
        pass
    return pragmas


# -- baseline ------------------------------------------------------------


class Baseline:
    """Grandfathered findings, persisted as fingerprint -> count.

    Counts (not sets) let several identical findings on distinct lines of
    one file be baselined individually: the first N occurrences of a
    fingerprint are absorbed, the N+1st is new.
    """

    def __init__(self, counts: Optional[Dict[str, int]] = None) -> None:
        self.counts: Dict[str, int] = dict(counts or {})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls()
        data = json.loads(path.read_text())
        if data.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"baseline {path} has version {data.get('version')!r}, "
                f"expected {BASELINE_VERSION} — re-run with --write-baseline"
            )
        return cls(data.get("fingerprints", {}))

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        counts: Dict[str, int] = {}
        for f in findings:
            key = _digest(f.fingerprint_key())
            counts[key] = counts.get(key, 0) + 1
        return cls(counts)

    def write(self, path: Path) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "fingerprints": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def partition(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Split into (baselined, new), consuming counts in file order."""
        remaining = dict(self.counts)
        old: List[Finding] = []
        new: List[Finding] = []
        for f in findings:
            key = _digest(f.fingerprint_key())
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                old.append(f)
            else:
                new.append(f)
        return old, new


def _digest(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:16]


# -- the lint run --------------------------------------------------------


class LintResult:
    """Everything one lint run produced, pre-partitioned for reporting."""

    def __init__(
        self,
        findings: List[Finding],
        baselined: List[Finding],
        parse_errors: List[Finding],
        files_checked: int,
    ) -> None:
        #: live findings (pragma-suppressed removed, baseline removed)
        self.findings = findings
        self.baselined = baselined
        self.parse_errors = parse_errors
        self.files_checked = files_checked

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    @property
    def ok(self) -> bool:
        """Gate condition: no new error-severity findings, no parse errors."""
        return not self.errors and not self.parse_errors

    def to_json(self) -> Dict:
        """The ``--format json`` document (schema pinned by tests)."""

        def encode(f: Finding, baselined: bool) -> Dict:
            return {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "severity": f.severity,
                "message": f.message,
                "snippet": f.snippet,
                "fingerprint": _digest(f.fingerprint_key()),
                "baselined": baselined,
            }

        all_rules = registered_rules()
        return {
            "version": JSON_SCHEMA_VERSION,
            "files_checked": self.files_checked,
            "ok": self.ok,
            "counts": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "baselined": len(self.baselined),
                "parse_errors": len(self.parse_errors),
            },
            "findings": (
                [encode(f, False) for f in self.findings]
                + [encode(f, True) for f in self.baselined]
                + [encode(f, False) for f in self.parse_errors]
            ),
            "rules": {
                rid: {
                    "name": r.name,
                    "severity": r.severity,
                    "rationale": r.rationale,
                }
                for rid, r in sorted(all_rules.items())
            },
        }


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield .py files under each path (sorted — deterministic output)."""
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )


def _apply_pragmas(
    mod: ModuleInfo, findings: List[Finding]
) -> Tuple[List[Finding], List[Finding]]:
    """Suppress pragma-covered findings; emit SIM000 pragma-hygiene findings.

    Returns (kept, hygiene).  A pragma covers its own line and, when it is
    the only content of its line, the next line.  Malformed pragmas (no
    justification, or unknown rule ids) never suppress.
    """
    hygiene: List[Finding] = []
    known = set(_REGISTRY)
    # line -> set of rule ids suppressed there; pragma -> hit counter
    line_suppress: Dict[int, Dict[str, Pragma]] = {}
    file_suppress: Dict[str, Pragma] = {}
    used: Dict[int, bool] = {}

    def hygiene_finding(p: Pragma, message: str) -> Finding:
        snippet = (
            mod.lines[p.line - 1].strip() if p.line <= len(mod.lines) else p.raw
        )
        return Finding(
            PRAGMA_RULE_ID, mod.rel, p.line, 0, SEVERITY_ERROR, message, snippet
        )

    for p in mod.pragmas:
        if p.justification is None or not p.rules:
            hygiene.append(
                hygiene_finding(
                    p,
                    "malformed simlint pragma: expected "
                    "'# simlint: disable=<RULE[,RULE]> -- <justification>' "
                    "(the justification is mandatory)",
                )
            )
            continue
        unknown = [r for r in p.rules if r not in known]
        if unknown:
            hygiene.append(
                hygiene_finding(
                    p, f"simlint pragma names unknown rule(s): {', '.join(unknown)}"
                )
            )
            continue
        used[id(p)] = False
        if p.file_wide:
            for r in p.rules:
                file_suppress[r] = p
        else:
            stripped = mod.lines[p.line - 1].strip() if p.line <= len(mod.lines) else ""
            targets = [p.line]
            if stripped.startswith("#"):
                targets.append(p.line + 1)  # standalone pragma: next line
            for target in targets:
                bucket = line_suppress.setdefault(target, {})
                for r in p.rules:
                    bucket[r] = p

    kept: List[Finding] = []
    for f in findings:
        pragma = line_suppress.get(f.line, {}).get(f.rule) or file_suppress.get(f.rule)
        if pragma is not None:
            used[id(pragma)] = True
        else:
            kept.append(f)

    for p in mod.pragmas:
        if id(p) in used and not used[id(p)]:
            hygiene.append(
                Finding(
                    PRAGMA_RULE_ID,
                    mod.rel,
                    p.line,
                    0,
                    SEVERITY_WARNING,
                    f"unused simlint pragma (suppresses nothing): {p.raw}",
                    mod.lines[p.line - 1].strip() if p.line <= len(mod.lines) else "",
                )
            )
    return kept, hygiene


def lint_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    baseline: Optional[Baseline] = None,
    select: Optional[Iterable[str]] = None,
) -> LintResult:
    """Run every registered rule over the Python files under ``paths``.

    ``root`` anchors the repo-relative paths used in findings and baseline
    fingerprints (defaults to the current working directory).  ``select``
    restricts to a subset of rule ids (pragma hygiene always runs).
    """
    all_rules = registered_rules()
    active = [
        r
        for rid, r in sorted(all_rules.items())
        if select is None or rid in set(select)
    ]
    root = (root or Path.cwd()).resolve()
    findings: List[Finding] = []
    parse_errors: List[Finding] = []
    files = 0
    # phase 1: parse everything (project rules need the full module set
    # before any rule runs)
    mods: List[ModuleInfo] = []
    for path in iter_python_files(paths):
        files += 1
        resolved = path.resolve()
        try:
            rel = resolved.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            mods.append(ModuleInfo(path, rel, path.read_text()))
        except SyntaxError as exc:
            parse_errors.append(
                Finding(
                    "PARSE",
                    rel,
                    exc.lineno or 1,
                    (exc.offset or 1) - 1,
                    SEVERITY_ERROR,
                    f"cannot parse: {exc.msg}",
                    (exc.text or "").strip(),
                )
            )
    # phase 2: symbol table + call graph, then every rule per module.
    # Findings of project rules are anchored in the module being checked,
    # so pragma application (which is per-module, per-line) gives every
    # cross-module finding exactly one suppression site: its anchor line.
    project = None
    if any(r.scope == SCOPE_PROJECT for r in active):
        from repro.analysis.symbols import build_project

        project = build_project(mods)
    for mod in mods:
        raw: List[Finding] = []
        for r in active:
            if r.scope == SCOPE_PROJECT:
                raw.extend(r.check(mod, project))
            else:
                raw.extend(r.check(mod))
        raw.sort(key=lambda f: (f.line, f.col, f.rule))
        kept, hygiene = _apply_pragmas(mod, raw)
        findings.extend(kept)
        findings.extend(hygiene)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if baseline is None:
        return LintResult(findings, [], parse_errors, files)
    old, new = baseline.partition(findings)
    return LintResult(new, old, parse_errors, files)
