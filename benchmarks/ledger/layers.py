"""Fold a cProfile run into the repo's layers.

A layer is a module (or a few sibling modules) of ``src/repro``.  Every
``.py`` file under the package maps to exactly one bucket through
:data:`RULES` (first match wins, and :func:`layer_of_path` raises when no
rule matches, so a new package cannot silently land in ``other``).  C
built-ins have no source path: the ``_heapq`` functions belong to
``sim.equeue`` wherever they are called from (the engine inlines the heap
fast path), and every other built-in is charged to the layer of the Python
function that called it.  What is left — the standard library, the
benchmark's own driver callbacks — is ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional, Tuple

LAYERS = (
    "sim.engine",
    "sim.equeue",
    "sim.fluid",
    "net.port",
    "net.packet",
    "net.host",
    "sched",
    "core.tcn",
    "aqm",
    "transport",
    "topo",
    "harness.runner",
    "harness.sweep",
    "obs",
    "sanitize",
)
OTHER = "other"

#: (path prefix relative to src/repro, layer); first match wins
RULES: Tuple[Tuple[str, str], ...] = (
    ("sanitize.py", "sanitize"),
    ("sim/equeue/sanitize.py", "sanitize"),
    ("sim/equeue/", "sim.equeue"),
    ("sim/fluid/", "sim.fluid"),
    ("sim/", "sim.engine"),          # engine.py, rng.py, parallel/
    ("net/packet.py", "net.packet"),
    ("net/host.py", "net.host"),
    ("net/nic.py", "net.host"),
    ("net/", "net.port"),            # port, queue, link, switch, classifier
    ("sched/", "sched"),
    ("core/", "core.tcn"),
    ("aqm/", "aqm"),
    ("transport/", "transport"),
    ("pias/", "transport"),          # the tagger runs inside the sender
    ("apps/", "transport"),
    ("topo/", "topo"),
    ("harness/sweep.py", "harness.sweep"),
    ("harness/", "harness.runner"),
    ("workloads/", "harness.runner"),  # flow generation is run set-up
    ("metrics/", "harness.runner"),    # FCT collection and summary
    ("obs/", "obs"),
    ("analysis/", OTHER),            # simlint: developer tooling, no run path
    ("bench/", OTHER),               # the old bench CLI, not used here
    ("__init__.py", "harness.runner"),
    ("__main__.py", "harness.runner"),
    ("units.py", "harness.runner"),
)

BUILTIN_FILE = "~"  # cProfile's filename for C functions


def layer_of_path(rel_path: str) -> str:
    """Layer of one source file, given its path relative to ``src/repro``."""
    rel_path = rel_path.replace(os.sep, "/")
    for prefix, layer in RULES:
        if rel_path == prefix or (
            prefix.endswith("/") and rel_path.startswith(prefix)
        ):
            return layer
    raise LookupError(f"no layer rule for repro/{rel_path}")


def layer_of(filename: str, funcname: str, repro_root: str) -> Optional[str]:
    """Layer of one profiled function; ``None`` = charge it to its callers."""
    if filename == BUILTIN_FILE:
        return "sim.equeue" if "_heapq." in funcname else None
    root = repro_root.rstrip(os.sep) + os.sep
    if filename.startswith(root):
        return layer_of_path(filename[len(root):])
    return OTHER


def fold(
    stats: Mapping[tuple, tuple], repro_root: str
) -> Dict[str, Dict[str, float]]:
    """``pstats.Stats(...).stats`` -> ``{layer: {"self_s", "calls"}}``.

    ``calls`` counts primitive (non-recursive) calls, which is what
    repeats exactly between two fresh interpreters.
    """
    out = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS + (OTHER,)}

    def charge(layer: str, self_s: float, calls: int) -> None:
        out[layer]["self_s"] += self_s
        out[layer]["calls"] += calls

    for (filename, _line, funcname), row in stats.items():
        prim_calls, _n_calls, self_s, _cum, callers = row
        layer = layer_of(filename, funcname, repro_root)
        if layer is not None:
            charge(layer, self_s, prim_calls)
            continue
        # a C built-in: split it over the layers of its Python callers
        for (c_file, _c_line, c_name), c_row in callers.items():
            _c_n, c_prim, c_self, _c_cum = c_row
            charge(
                layer_of(c_file, c_name, repro_root) or OTHER, c_self, c_prim
            )
            self_s -= c_self
            prim_calls -= c_prim
        charge(OTHER, max(self_s, 0.0), max(prim_calls, 0))
    return out
