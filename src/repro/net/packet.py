"""The packet: the single unit that flows through the whole simulator.

A :class:`Packet` models one wire frame.  Data segments carry a payload and
the ECN ECT codepoint; pure ACKs carry the cumulative acknowledgement plus
the ECN-Echo (ECE) bit the receiver reflects back; probes model ping.

``enq_ts`` is the enqueue-time timestamp metadata that §4.2 of the paper
describes attaching in hardware — the switch egress port stamps it on
enqueue, and sojourn-time AQMs (TCN, CoDel) read it on dequeue.

Allocation
----------
Packets are by far the most-allocated objects in a run (one per segment
plus one per ACK), so the constructors route through a **freelist**:
:meth:`~repro.net.host.Host.receive` releases a packet once it has been
delivered to its endpoint (the single point at which no queue, link or
scheduler can still reference it), and ``make_data``/``make_ack`` re-use
released frames instead of allocating.  Reuse fully re-initialises every
field, so it is invisible to the simulation — asserted by the trace
determinism guard tests.
"""

from __future__ import annotations

from enum import IntEnum
from typing import List, Tuple

from repro.units import ACK_SIZE, HEADER, PROBE_SIZE


class PacketKind(IntEnum):
    """What role a packet plays on the wire."""

    DATA = 0
    ACK = 1
    PROBE = 2
    PROBE_REPLY = 3


class Packet:
    """One frame in flight.

    Attributes
    ----------
    flow_id:
        Identifier of the owning flow (ECMP hashes on this).
    src, dst:
        Host ids; switches route on ``dst``.
    kind:
        A :class:`PacketKind`.
    seq:
        Data: segment index within the flow (0-based, in MSS units).
        ACK: the cumulative acknowledgement (next expected segment).
    payload:
        Data payload bytes (0 for ACKs/probes).
    wire_size:
        Total bytes occupying buffers and the wire (payload + header).
    ect / ce / ece:
        The ECN machinery: ECN-Capable Transport codepoint, Congestion
        Experienced mark set by AQMs, and the receiver's ECN-Echo on ACKs.
    dscp:
        Service tag used by the switch classifier to pick an egress queue.
    ts:
        Sender timestamp (ns) echoed back in ``ts_echo`` for RTT estimation.
    enq_ts:
        Set by the egress port at enqueue; read at dequeue for sojourn time.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "kind",
        "seq",
        "payload",
        "wire_size",
        "ect",
        "ce",
        "ece",
        "dscp",
        "ts",
        "ts_echo",
        "enq_ts",
        "is_retx",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        kind: PacketKind,
        seq: int = 0,
        payload: int = 0,
        ect: bool = False,
        dscp: int = 0,
        ts: int = 0,
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.seq = seq
        self.payload = payload
        if kind == PacketKind.DATA:
            self.wire_size = payload + HEADER
        elif kind == PacketKind.ACK:
            self.wire_size = ACK_SIZE
        else:
            self.wire_size = PROBE_SIZE
        self.ect = ect
        self.ce = False
        self.ece = False
        self.dscp = dscp
        self.ts = ts
        self.ts_echo: int = 0
        self.enq_ts: int = 0
        self.is_retx = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f for f, on in (("E", self.ect), ("C", self.ce), ("e", self.ece)) if on
        )
        return (
            f"<Pkt f{self.flow_id} {self.kind.name} seq={self.seq} "
            f"{self.src}->{self.dst} {self.wire_size}B dscp={self.dscp} {flags}>"
        )


# -- freelist ------------------------------------------------------------

#: released frames awaiting reuse (process-wide; the simulator is
#: single-threaded and reset is total, so sharing across runs is safe)
_free: List[Packet] = []

# hoisted enum members for the freelist constructors (a module global is
# one dict probe vs. the Enum class-attribute protocol, per packet)
_KIND_DATA = PacketKind.DATA
_KIND_ACK = PacketKind.ACK
#: bound on retained frames — beyond this, released packets are simply
#: left to the garbage collector (covers pathological fan-in bursts)
FREELIST_MAX = 8192
# lifetime counters (read via freelist_stats; reset via reset_freelist)
_allocated = 0
_reused = 0

#: the installed runtime sanitizer (repro.sanitize.Sanitizer), or None.
#: When set, release() poisons frames and the make_* constructors verify
#: the poison on reuse — the hooks cost one global None-check when off.
_san = None


def set_sanitizer(san) -> None:
    """Install (or remove, with ``None``) the freelist sanitizer hook.

    Retained frames are dropped so the poisoning invariant holds for
    everything handed out from here on; the lifetime counters survive.
    """
    global _san
    _san = san
    _free.clear()


def release(pkt: Packet) -> None:
    """Return a dead frame to the freelist.

    Only call this when nothing can reference the packet any more — in
    practice, exactly once, from the delivery endpoint.  A released packet
    must be treated as gone: the next ``make_data``/``make_ack`` may hand
    it out again with every field rewritten.
    """
    san = _san
    if san is not None and not san.on_release(pkt):
        return
    free = _free
    if len(free) < FREELIST_MAX:
        free.append(pkt)


def freelist_stats() -> Tuple[int, int, int]:
    """``(allocated, reused, free)`` counters since the last reset.

    ``allocated`` counts fresh ``Packet`` objects built by the ``make_*``
    constructors; ``reused`` counts frames recycled from the freelist;
    ``free`` is the current freelist depth.  Chunk spans report the
    deltas of these around each run chunk.
    """
    return _allocated, _reused, len(_free)


def reset_freelist() -> None:
    """Drop retained frames and zero the counters (test/bench isolation)."""
    global _allocated, _reused
    _free.clear()
    _allocated = 0
    _reused = 0


def make_data(
    flow_id: int,
    src: int,
    dst: int,
    seq: int,
    payload: int,
    ect: bool,
    dscp: int,
    ts: int,
) -> Packet:
    """Build a data segment (recycling a released frame when possible)."""
    global _allocated, _reused
    free = _free
    if free:
        _reused += 1
        pkt = free.pop()
        if _san is not None:
            _san.on_reuse(pkt)
        pkt.flow_id = flow_id
        pkt.src = src
        pkt.dst = dst
        pkt.kind = _KIND_DATA
        pkt.seq = seq
        pkt.payload = payload
        pkt.wire_size = payload + HEADER
        pkt.ect = ect
        pkt.ce = False
        pkt.ece = False
        pkt.dscp = dscp
        pkt.ts = ts
        pkt.ts_echo = 0
        pkt.enq_ts = 0
        pkt.is_retx = False
        return pkt
    _allocated += 1
    return Packet(
        flow_id, src, dst, PacketKind.DATA, seq=seq, payload=payload,
        ect=ect, dscp=dscp, ts=ts,
    )


def make_ack(
    data: Packet, ack: int, ece: bool, now: int, ect: bool = False,
) -> Packet:
    """Build the cumulative ACK triggered by ``data``.

    The ACK travels the reverse path in the same service class as the data
    it acknowledges, echoes the data packet's CE bit as ECE (per-packet ECN
    echo, as DCTCP requires), and echoes the sender timestamp for RTT
    estimation.
    """
    global _allocated, _reused
    free = _free
    if free:
        _reused += 1
        pkt = free.pop()
        if _san is not None:
            _san.on_reuse(pkt)
        pkt.flow_id = data.flow_id
        pkt.src = data.dst
        pkt.dst = data.src
        pkt.kind = _KIND_ACK
        pkt.seq = ack
        pkt.payload = 0
        pkt.wire_size = ACK_SIZE
        pkt.ect = ect
        pkt.ce = False
        pkt.ece = ece
        pkt.dscp = data.dscp
        pkt.ts = now
        pkt.ts_echo = data.ts
        pkt.enq_ts = 0
        pkt.is_retx = False
        return pkt
    _allocated += 1
    pkt = Packet(
        data.flow_id, data.dst, data.src, PacketKind.ACK,
        seq=ack, ect=ect, dscp=data.dscp, ts=now,
    )
    pkt.ece = ece
    pkt.ts_echo = data.ts
    return pkt
