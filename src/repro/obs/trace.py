"""Typed event tracing for the simulation pipeline.

A :class:`Tracer` records the packet lifecycle (enqueue / dequeue / mark /
drop, with queue index and sojourn time), AQM marking decisions, and
transport control-law updates (cwnd cuts, DCTCP alpha) into a bounded
ring.  Components hold a ``tracer`` attribute that is ``None`` by
default, so the untraced hot path pays exactly one attribute load and an
``is not None`` test per hook point.

Events are stored as compact tuples and only formatted on export, so a
traced run stays cheap; ``Tracer.export_jsonl`` writes one JSON object
per line with sorted keys and no wall-clock fields, which makes traces
of deterministic simulations byte-identical across runs (asserted by
``tests/test_trace_determinism.py``).

Event schema (JSONL field sets by ``ev`` kind, :data:`EVENT_FIELDS`):

=========  =============================================================
``ev``     fields
=========  =============================================================
enqueue    ``t, port, q, flow, seq, size``
dequeue    ``t, port, q, flow, seq, size, sojourn_ns``
mark       ``t, port, q, flow, seq, size, where`` (``"enq"``/``"deq"``)
drop       ``t, port, q, flow, seq, size, cause`` (``"buffer"``/``"pool"``)
cwnd       ``t, flow, cwnd, reason`` (``"ecn"``/``"fast_retx"``/``"timeout"``)
alpha      ``t, flow, alpha`` (DCTCP marking-fraction EWMA)
=========  =============================================================

``t`` is integer simulated nanoseconds.  One ``mark`` event is emitted
per *applied* CE mark, so ``ev == "mark"`` counts match
``PortStats.marked_pkts`` exactly (unless the ring wrapped — see
:attr:`Tracer.evicted`).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.obs.records import Ring

#: default ring capacity — roomy for benchmark-scale runs, bounded for
#: production-scale ones (at ~8 tuple slots per event this is ~100s of MB
#: worst case, never unbounded growth)
DEFAULT_CAPACITY = 1 << 20

_PKT = ("t", "port", "q", "flow", "seq", "size")

#: record tag -> (``ev`` name, the fields after the tag in tuple order)
_SCHEMA = {
    "enq": ("enqueue", _PKT),
    "deq": ("dequeue", _PKT + ("sojourn_ns",)),
    "mark": ("mark", _PKT + ("where",)),
    "drop": ("drop", _PKT + ("cause",)),
    "cwnd": ("cwnd", ("t", "flow", "cwnd", "reason")),
    "alpha": ("alpha", ("t", "flow", "alpha")),
}

#: ``ev`` name -> the fields a record of that kind carries besides ``ev``
EVENT_FIELDS = dict(_SCHEMA.values())


class Tracer(Ring):
    """Bounded ring of simulation events with JSONL export."""

    __slots__ = ()

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        super().__init__(capacity)

    # -- hot-path recorders (called from port / transport hook points) ----

    def enqueue(self, now: int, port: str, qidx: int, pkt) -> None:
        self._append(("enq", now, port, qidx, pkt.flow_id, pkt.seq, pkt.wire_size))

    def dequeue(
        self, now: int, port: str, qidx: int, pkt, sojourn_ns: int
    ) -> None:
        self._append(
            ("deq", now, port, qidx, pkt.flow_id, pkt.seq, pkt.wire_size,
             sojourn_ns)
        )

    def mark(self, now: int, port: str, qidx: int, pkt, where: str) -> None:
        self._append(
            ("mark", now, port, qidx, pkt.flow_id, pkt.seq, pkt.wire_size,
             where)
        )

    def drop(self, now: int, port: str, qidx: int, pkt, cause: str) -> None:
        self._append(
            ("drop", now, port, qidx, pkt.flow_id, pkt.seq, pkt.wire_size,
             cause)
        )

    def cwnd(self, now: int, flow_id: int, cwnd: float, reason: str) -> None:
        self._append(("cwnd", now, flow_id, cwnd, reason))

    def alpha(self, now: int, flow_id: int, alpha: float) -> None:
        self._append(("alpha", now, flow_id, alpha))

    # -- export -----------------------------------------------------------

    def iter_dicts(self) -> Iterator[Dict]:
        for event in self.records:
            name, fields = _SCHEMA[event[0]]
            d = {"ev": name}
            d.update(zip(fields, event[1:]))
            yield d
