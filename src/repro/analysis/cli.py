"""``python -m repro lint`` — run simlint over the tree.

Exit codes: 0 clean (no new error-severity findings), 1 findings, 2 usage.

Examples::

    python -m repro lint                         # lint src/repro
    python -m repro lint --format json           # machine-readable report
    python -m repro lint src/repro/sched         # a subtree
    python -m repro lint --changed               # only files changed vs HEAD
    python -m repro lint --changed origin/main   # ... vs a merge base
    python -m repro lint --write-baseline        # grandfather current findings
    python -m repro lint --list-rules            # rule catalog
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.engine import (
    Baseline,
    Finding,
    LintResult,
    lint_paths,
    registered_rules,
    rule_range,
)

#: default baseline location, relative to the lint root
DEFAULT_BASELINE = ".simlint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "simlint: project-specific static analysis enforcing simulator "
            "determinism, hot-path discipline and API ownership "
            f"(rules {rule_range()})."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro package sources)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is schema-versioned for CI artifacts)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="repo root for relative paths/fingerprints (default: cwd)",
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="BASE",
        help=(
            "lint only files changed against the given git base "
            "(`git diff --name-only BASE`; default HEAD), filtered to "
            "the lint targets — the pre-commit fast path"
        ),
    )
    return parser


def _changed_files(root: Path, base: str) -> Optional[List[Path]]:
    """Paths changed against ``base`` per git, or ``None`` on git failure.

    Includes uncommitted work (``git diff`` against a commit covers the
    worktree); deleted files are skipped by the existence filter in
    :func:`main`.
    """
    proc = subprocess.run(
        ["git", "-C", str(root), "diff", "--name-only", base],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        msg = proc.stderr.strip() or f"git diff --name-only {base} failed"
        print(f"error: {msg}", file=sys.stderr)
        return None
    return [root / line for line in proc.stdout.splitlines() if line.strip()]


def _default_paths(root: Path) -> List[Path]:
    """Lint target when none is given: the installed package's source tree."""
    src = root / "src" / "repro"
    if src.is_dir():
        return [src]
    # fall back to wherever the imported package actually lives
    import repro

    return [Path(repro.__file__).parent]


def _format_text(result: LintResult, out) -> None:
    for f in result.parse_errors + result.findings:
        out.write(
            f"{f.location()}: {f.severity} {f.rule} {f.message}\n"
            f"    {f.snippet}\n"
        )
    bits = [
        f"{result.files_checked} files",
        f"{len(result.errors)} errors",
        f"{len(result.warnings)} warnings",
    ]
    if result.baselined:
        bits.append(f"{len(result.baselined)} baselined")
    if result.parse_errors:
        bits.append(f"{len(result.parse_errors)} parse errors")
    out.write("simlint: " + ", ".join(bits) + "\n")


def _list_rules(out) -> None:
    for rid, r in sorted(registered_rules().items()):
        out.write(f"{rid}  {r.name}  [{r.severity}]\n    {r.rationale}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _list_rules(sys.stdout)
        return 0
    root = Path(args.root).resolve() if args.root else Path.cwd()
    paths = [Path(p) for p in args.paths] if args.paths else _default_paths(root)
    for p in paths:
        if not p.exists():
            print(f"error: no such path: {p}", file=sys.stderr)
            return 2
    if args.changed is not None:
        changed = _changed_files(root, args.changed)
        if changed is None:
            return 2
        # keep only Python files that still exist and fall under the
        # lint targets (so fixture trees with seeded findings stay out)
        scope = [t.resolve() for t in paths]
        picked = []
        for p in changed:
            if p.suffix != ".py" or not p.is_file():
                continue
            rp = p.resolve()
            if any(rp == s or s in rp.parents for s in scope):
                picked.append(p)
        if not picked:
            print(
                f"simlint: no changed Python files under the lint "
                f"targets (base {args.changed})"
            )
            return 0
        paths = picked
    select = None
    if args.select:
        select = [r.strip().upper() for r in args.select.split(",") if r.strip()]
        unknown = set(select) - set(registered_rules())
        if unknown:
            print(
                f"error: unknown rule(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2

    baseline_path = Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE

    if args.write_baseline:
        result = lint_paths(paths, root=root, baseline=None, select=select)
        findings: List[Finding] = result.findings
        Baseline.from_findings(findings).write(baseline_path)
        print(
            f"wrote {len(findings)} finding(s) to {baseline_path}",
            file=sys.stderr,
        )
        return 0

    baseline = None
    if not args.no_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    result = lint_paths(paths, root=root, baseline=baseline, select=select)
    if args.format == "json":
        json.dump(result.to_json(), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        _format_text(result, sys.stdout)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
