#!/usr/bin/env python3
"""Compare two ledger runs: ``compare.py PARENT.json CHANGE.json``.

Both files are ``results.json`` as written by ``run.py --out``.  One row is
printed per (workload, end-to-end metric) with both medians, quartiles and
n.  Every metric is lower-is-better.  A row is a ``REGRESSION`` when the
change's median is worse than the parent's by more than the metric's bound
(``BENCHMARK.json``), ``unresolved`` when it is not but the parent's own
inter-quartile spread is wider than the bound — the runs cannot tell
"unchanged" from "a little worse" — and ``ok`` otherwise.  ``failed_frac``
may not rise at all, nor ``fct_err_pct`` on the packet-exact workloads.
Exit status 1 on any regression.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import FCT_ERR_SLACK_PCT  # noqa: E402

MANIFEST_PATH = os.path.join(
    os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

#: setup_s is ~0.15 s, so its relative bound alone would gate on noise
SETUP_FLOOR_S = 0.05


def load_bounds() -> Dict[str, float]:
    with open(MANIFEST_PATH) as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def compare(
    parent: Dict[str, Any], change: Dict[str, Any], bounds: Dict[str, float]
) -> List[Tuple[str, str, str, str, str, str]]:
    """Rows of (workload, metric, parent, change, delta, verdict)."""
    rows = []
    for workload, a in parent["workloads"].items():
        b = change["workloads"].get(workload)
        if b is None:
            rows.append((workload, "*", "", "missing", "", "REGRESSION"))
            continue
        for metric, bound in bounds.items():
            pa, pb = a["end_to_end"].get(metric), b["end_to_end"].get(metric)
            if not pa or not pb:
                rows.append((workload, metric, "n/a", "n/a", "", "REGRESSION"))
                continue
            allowed = bound * pa["median"]
            if metric == "setup_s":
                allowed = max(allowed, SETUP_FLOOR_S)
            if pb["median"] - pa["median"] > allowed:
                verdict = "REGRESSION"
            elif pa["q3"] - pa["q1"] > allowed:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((
                workload, f"{metric} ({pa['unit']})",
                _cell(pa), _cell(pb),
                f"{100 * (pb['median'] / pa['median'] - 1):+.1f}%"
                f" (bound {100 * bound:.0f}%)",
                verdict,
            ))
        for metric, slack in (
            ("failed_frac", 0.0),
            ("fct_err_pct", FCT_ERR_SLACK_PCT.get(workload, 0.0)),
        ):
            worse = b[metric] > a[metric] + slack
            rows.append((
                workload, metric, f"{a[metric]:.4g}", f"{b[metric]:.4g}",
                f"{b[metric] - a[metric]:+.4g} (bound +{slack:g})",
                "REGRESSION" if worse else "ok",
            ))
    return rows


def _cell(row: Dict[str, Any]) -> str:
    return (f"{row['median']:.4g} [{row['q1']:.4g}, {row['q3']:.4g}] "
            f"n={row['n']}")


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        parent = json.load(fh)
    with open(argv[1]) as fh:
        change = json.load(fh)
    rows = compare(parent, change, load_bounds())
    header = ("workload", "metric", "parent", "change", "delta", "verdict")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(6)]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    regressions = sum(r[5] == "REGRESSION" for r in rows)
    unresolved = sum(r[5] == "unresolved" for r in rows)
    print(f"\n{regressions} regression(s), {unresolved} unresolved, "
          f"{len(rows) - regressions - unresolved} ok")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
