"""Shared test fixtures: tiny ports, packets, and traffic helpers."""

from __future__ import annotations

from typing import List, Optional

from repro.aqm.base import Aqm
from repro.net.packet import Packet, PacketKind
from repro.net.port import EgressPort
from repro.net.queue import PacketQueue
from repro.sched.base import Scheduler
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.units import GBPS, HEADER, KB, MSS


def data_pkt(
    flow_id: int = 1,
    seq: int = 0,
    payload: int = MSS,
    ect: bool = True,
    dscp: int = 0,
    src: int = 0,
    dst: int = 1,
) -> Packet:
    """A data packet with sensible defaults."""
    return Packet(
        flow_id, src, dst, PacketKind.DATA,
        seq=seq, payload=payload, ect=ect, dscp=dscp,
    )


def make_port(
    sim: Simulator,
    scheduler: Optional[Scheduler] = None,
    aqm: Optional[Aqm] = None,
    rate_bps: int = GBPS,
    buffer_bytes: int = 1000 * KB,
    classify=None,
) -> EgressPort:
    """A standalone egress port with no downstream link (packets vanish
    after serialization) — enough for scheduler/AQM unit tests."""
    return EgressPort(
        sim,
        rate_bps=rate_bps,
        buffer_bytes=buffer_bytes,
        scheduler=scheduler or FifoScheduler(),
        aqm=aqm,
        link=None,
        classify=classify or (lambda pkt: pkt.dscp),
    )


def weighted_queues(
    weights: List[float], quanta: Optional[List[int]] = None
) -> List[PacketQueue]:
    """A bank of queues with the given weights (and quanta)."""
    return [
        PacketQueue(i, weight=w, quantum=quanta[i] if quanta else 1500)
        for i, w in enumerate(weights)
    ]


def drain_in_order(scheduler: Scheduler, now: int = 0) -> List[Packet]:
    """Dequeue everything, returning packets in service order."""
    out = []
    while True:
        result = scheduler.dequeue(now)
        if result is None:
            return out
        out.append(result[0])


def fill(scheduler: Scheduler, qidx: int, n: int, size: int = MSS) -> None:
    """Enqueue ``n`` same-size packets into queue ``qidx``."""
    for i in range(n):
        scheduler.enqueue(data_pkt(flow_id=qidx + 1, seq=i, payload=size,
                                   dscp=qidx), qidx, 0)


def wire(payload: int) -> int:
    """Wire size for a payload."""
    return payload + HEADER
