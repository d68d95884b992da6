"""System-wide conservation invariants, driven by hypothesis.

These catch accounting bugs that unit tests miss: bytes in a port must be
conserved (rx = tx + dropped + buffered), occupancy may never go negative
or exceed the configured buffer, and every byte a sender ships is either
delivered exactly once (in order) or accounted as a drop somewhere.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.tcn import Tcn
from repro.sched.base import make_queues
from repro.sched.dwrr import DwrrScheduler
from repro.sched.pifo import PifoScheduler, stfq_rank
from repro.sched.wfq import WfqScheduler
from repro.sched.wrr import WrrScheduler
from repro.sim.engine import Simulator
from repro.topo.star import StarTopology
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver
from repro.units import GBPS, KB, SEC, USEC
from tests.helpers import data_pkt, make_port

_SCHED_FACTORIES = [
    lambda n: DwrrScheduler(make_queues(n, quanta=[1500] * n)),
    lambda n: WfqScheduler(make_queues(n)),
    lambda n: WrrScheduler(make_queues(n)),
    lambda n: WfqScheduler(make_queues(n), n_high=n),
    lambda n: PifoScheduler(make_queues(n), rank_fn=stfq_rank),
    lambda n: DwrrScheduler(make_queues(n, quanta=[1500] * n), n_high=1),
    lambda n: WfqScheduler(make_queues(n, quanta=[1500] * n), n_high=1),
]


@settings(max_examples=25, deadline=None)
@given(
    sched_idx=st.integers(min_value=0, max_value=len(_SCHED_FACTORIES) - 1),
    n_queues=st.integers(min_value=2, max_value=6),
    arrivals=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),     # dscp
            st.integers(min_value=1, max_value=1460),  # payload
            st.integers(min_value=0, max_value=2000),  # gap ns
        ),
        min_size=1,
        max_size=150,
    ),
    buffer_kb=st.integers(min_value=3, max_value=64),
)
def test_property_port_conserves_bytes(sched_idx, n_queues, arrivals, buffer_kb):
    """rx_pkts == tx_pkts + dropped_pkts + buffered, for any scheduler,
    any arrival pattern, any buffer size; occupancy stays in bounds."""
    sim = Simulator()
    sched = _SCHED_FACTORIES[sched_idx](n_queues)
    port = make_port(
        sim, scheduler=sched, aqm=Tcn(100 * USEC),
        buffer_bytes=buffer_kb * 1000,
        classify=lambda pkt: min(pkt.dscp, n_queues - 1),
    )
    bound_violations = []
    port.occupancy_tracker = lambda now, occ: (
        bound_violations.append(occ)
        if occ < 0 or occ > buffer_kb * 1000
        else None
    )
    t = 0
    for i, (dscp, payload, gap) in enumerate(arrivals):
        t += gap
        sim.schedule(
            t, _Arrival(port, data_pkt(flow_id=i, seq=i, payload=payload, dscp=dscp))
        )
    sim.run()
    assert not bound_violations
    stats = port.stats
    buffered = sum(len(q) for q in sched.queues) + _pifo_backlog(sched)
    assert stats.rx_pkts == stats.tx_pkts + stats.dropped_pkts + buffered
    assert port.occupancy == sched.total_bytes


def _pifo_backlog(sched) -> int:
    heap = getattr(sched, "_heap", None)
    return len(heap) if heap is not None else 0


class _Arrival:
    __slots__ = ("port", "pkt")

    def __init__(self, port, pkt):
        self.port = port
        self.pkt = pkt

    def __call__(self):
        self.port.receive(self.pkt)


@settings(max_examples=10, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=100, max_value=400_000), min_size=2, max_size=10
    ),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_every_flow_delivers_exactly_its_bytes(sizes, seed):
    """End to end through a congested star: whatever the contention, every
    flow completes and the receiver saw exactly flow.size_bytes in order."""
    sim = Simulator()
    topo = StarTopology(
        sim, 5, GBPS,
        sched_factory=lambda: DwrrScheduler(make_queues(2, quanta=[1500, 1500])),
        aqm_factory=lambda: Tcn(250 * USEC),
        buffer_bytes=48 * KB,  # tight: force drops and retransmissions
        link_delay_ns=62_500,
    )
    rng = random.Random(seed)
    flows, receivers = [], []
    delivered = {}

    def on_bytes(flow, nbytes, now):
        delivered[flow.id] = delivered.get(flow.id, 0) + nbytes

    for i, size in enumerate(sizes):
        src = rng.randrange(1, 5)
        f = Flow(i + 1, src, 0, size, service=i % 2)
        flows.append(f)
        receivers.append(Receiver(sim, topo.hosts[0], f, on_bytes=on_bytes))
        s = DctcpSender(sim, topo.hosts[src], f, init_cwnd=8)
        sim.schedule(rng.randrange(0, 1_000_000), s.start)
    sim.run(until=30 * SEC)
    for f, r in zip(flows, receivers):
        assert f.completed, f
        assert r.rcv_nxt == f.npkts
        # deliveries may exceed size (spurious retransmissions) but the
        # reassembled stream is exactly the flow
        assert delivered[f.id] >= f.size_bytes
