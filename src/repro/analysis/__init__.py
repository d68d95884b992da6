"""repro.analysis — simlint, the simulator-invariant static analyzer.

Every number this repository produces — the TCN vs. queue-length FCT
comparisons, the golden SHA-256 trace digests, the content-addressed sweep
cache — rests on one property: the simulator is **bit-deterministic under a
seed**.  Generic linters cannot see that property, because it is violated by
perfectly idiomatic Python: a ``time.time()`` in a control law, an iteration
over a ``set`` of id-hashed objects, a module-level ``random`` draw.

simlint is a stdlib-``ast`` rule engine that rejects those hazards at review
time.  Every rule reads one file's AST and nothing else, so each file is
linted on its own and a tree's findings are the union of its files'.
Rules live in :mod:`repro.analysis.rules` (the current id span is
:func:`rule_range`; never hardcode it), the walking/suppression/baseline
machinery in :mod:`repro.analysis.engine`, and the ``python -m repro
lint`` entry point in :mod:`repro.analysis.cli`.

The same invariants are enforced *dynamically* by the runtime sanitizer
(:mod:`repro.sanitize`) — the static layer proves what it can at review
time, the sanitizer catches what slips through at run time.

See docs/STATIC_ANALYSIS.md for the rule catalog, suppression pragmas, and
the re-baselining workflow.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.analysis.engine import (
        BASELINE_VERSION,
        JSON_SCHEMA_VERSION,
        Baseline,
        Finding,
        LintResult,
        ModuleInfo,
        Rule,
        iter_python_files,
        lint_paths,
        registered_rules,
        rule,
        rule_range,
    )

__all__ = [
    "BASELINE_VERSION",
    "JSON_SCHEMA_VERSION",
    "Baseline",
    "Finding",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "iter_python_files",
    "lint_paths",
    "registered_rules",
    "rule",
    "rule_range",
]

_EXPORTS = {
    "BASELINE_VERSION": "repro.analysis.engine",
    "JSON_SCHEMA_VERSION": "repro.analysis.engine",
    "Baseline": "repro.analysis.engine",
    "Finding": "repro.analysis.engine",
    "LintResult": "repro.analysis.engine",
    "ModuleInfo": "repro.analysis.engine",
    "Rule": "repro.analysis.engine",
    "iter_python_files": "repro.analysis.engine",
    "lint_paths": "repro.analysis.engine",
    "registered_rules": "repro.analysis.engine",
    "rule": "repro.analysis.engine",
    "rule_range": "repro.analysis.engine",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
