"""Conservative parallel DES over a partitioned leaf-spine fabric.

The package splits the fabric into one sub-simulator per leaf pod and
synchronizes them with a conservative barrier protocol whose lookahead is
the inter-partition (leaf -> spine) link latency:

* :mod:`repro.sim.parallel.protocol` — the pure synchronization state
  machine: lookahead computation and the chunk/horizon schedule that
  makes the partitioned run evaluate its stop conditions at exactly the
  serial runner's 50 ms chunk boundaries.
* :mod:`repro.sim.parallel.partition` — :class:`PartitionSimulator`, the
  engine subclass that orders events by composite ``(time, partition,
  seq)`` keys and intercepts cross-partition transmissions at
  ``schedule_tx``.
* :mod:`repro.sim.parallel.cluster` — the drivers: partition
  construction, the in-process coordinator (``workers=1``), the
  ``multiprocessing`` coordinator (``workers>=2``), and the merge of
  per-partition FCT/metrics/trace/profile into one
  :class:`repro.harness.runner.ExperimentResult`.

Equivalence with the serial engine is digest-checked by
``tests/test_parallel.py``; the protocol and guarantees are documented in
``docs/PARALLEL.md``.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.sim.parallel.partition import PartitionSimulator
    from repro.sim.parallel.protocol import INF, ChunkSync, min_handoff_latency_ns

__all__ = [
    "INF",
    "ChunkSync",
    "PartitionSimulator",
    "min_handoff_latency_ns",
]

_EXPORTS = {
    "PartitionSimulator": "repro.sim.parallel.partition",
    "INF": "repro.sim.parallel.protocol",
    "ChunkSync": "repro.sim.parallel.protocol",
    "min_handoff_latency_ns": "repro.sim.parallel.protocol",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
