"""The linear-cost fluid epoch against the code it replaced, bit for bit.

``tests/fluid_oracle.py`` keeps the pre-ISSUE-12 solver and network.
Here hypothesis draws small random graphs and event sequences and
requires ``==`` — never approx — between the oracle and the live code:
the rewrite changed which loops run, not one floating-point operation's
operands or order.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.metrics.fct import FctCollector
from repro.obs.spans import SpanRecorder
from repro.sim.engine import Simulator
from repro.sim.fluid.model import FluidFlow, FluidLink
from repro.sim.fluid.network import FluidNetwork
from repro.sim.fluid.solver import max_min_shares
from repro.transport.flow import Flow
from tests.fluid_oracle import ReferenceFluidNetwork, reference_max_min_shares

#: capacities that tie exactly, differ by one ulp, and all but vanish
_TIED_CAPS = [1.0, 3.0, 3.0000000000000004, 10.0, 1e9, 9.48e8, 1e-9, 0.0]


@st.composite
def _graphs(draw):
    n_links = draw(st.integers(min_value=1, max_value=40))
    caps = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_TIED_CAPS),
                st.floats(min_value=0.0, max_value=1e10),
            ),
            min_size=n_links,
            max_size=n_links,
        )
    )
    paths = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=min(5, n_links),
                unique=True,
            ),
            max_size=60,
        )
    )
    return caps, paths


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_solver_equals_the_reference_and_conserves_capacity(graph):
    caps, paths = graph
    rates, bottlenecks, iters = max_min_shares(caps, paths)
    assert (rates, bottlenecks, iters) == reference_max_min_shares(
        caps, paths
    )
    load = [0.0] * len(caps)
    for rate, path in zip(rates, paths):
        for li in path:
            load[li] += rate
    for li, cap in enumerate(caps):
        assert load[li] <= cap * (1 + 1e-12)


class _Stats:
    __slots__ = ("tx_bytes",)

    def __init__(self):
        self.tx_bytes = 0


class _Port:
    """The slice of EgressPort the fluid coupling touches."""

    __slots__ = ("stats", "_link_delay", "fluid", "marks")

    def __init__(self, delay_ns):
        self.stats = _Stats()
        self._link_delay = delay_ns
        self.fluid = None
        self.marks = 0

    def send(self, nbytes):
        """Transmit ``nbytes``, CE-marking the way ``receive`` does."""
        self.stats.tx_bytes += nbytes
        link = self.fluid
        if link is not None:
            acc = link.mark_acc + link.mark_frac
            if acc >= 1.0:
                acc -= 1.0
                self.marks += 1
            link.mark_acc = acc


class _World:
    """One simulator, one network, one copy of a drawn scenario."""

    def __init__(self, network_cls, scenario, spans=None):
        rng = random.Random(scenario)
        n_links = rng.randint(1, 40)
        n_flows = rng.randint(0, 60)
        tick_ns = rng.choice([50_000, 200_000, 1_000_000])
        self.sim = Simulator()
        self.ports = []
        self.links = []
        for _ in range(n_links):
            delay = rng.choice([0, 650, 20_000])
            # a quarter of the links are abstract capacities, no port
            port = _Port(delay) if rng.random() < 0.75 else None
            self.ports.append(port)
            self.links.append(
                FluidLink(
                    port,
                    rng.choice([1e8, 9.48e8, 9.48e8, 1e9, 1e10]),
                    delay,
                    rng.choice([0, 78_000, 256_000]),
                )
            )
        self.flows = []
        for i in range(n_flows):
            path = tuple(rng.sample(range(n_links), rng.randint(1, min(5, n_links))))
            flow = Flow(i, 0, 1, rng.randint(2_000, 400_000),
                        start_ns=rng.choice([0, 0, rng.randint(0, 3_000_000)]))
            self.flows.append(
                FluidFlow(flow, path, sum(self.links[li].base_delay_ns for li in path))
            )
        self.collector = FctCollector()
        self.net = network_cls(
            self.sim, self.flows, self.links, self.collector,
            spans=spans, hybrid=True, tick_ns=tick_ns,
        )
        # packet traffic: bursts up to ~1.2x what a link carries per
        # tick, so residual capacity swings down to the 1% floor
        for _ in range(rng.randint(0, 80)):
            li = rng.randrange(n_links)
            port = self.ports[li]
            if port is None:
                continue
            full_tick = self.links[li].capacity_bps * tick_ns / 8e9
            nbytes = int(full_tick * rng.choice([0.001, 0.02, 0.5, 1.0, 1.2]))
            self.sim.schedule_call(
                rng.randint(0, 6_000_000), port.send, nbytes
            )
        self.checkpoints = sorted(rng.randint(0, 8_000_000) for _ in range(4))
        self.net.on_start()

    def state(self):
        net = self.net
        return {
            "now": self.sim.now,
            "stats": net.stats_dict(),
            "links": [
                (l.fluid_rate_bps, l.mark_frac, l.saturated, l.q_delay_ns,
                 l.mark_acc, l.pkt_rate_bps, l.pkt_bytes_prev)
                for l in self.links
            ],
            "ports": [
                None if p is None else
                (p._link_delay, p.marks,
                 None if p.fluid is None else self.links.index(p.fluid))
                for p in self.ports
            ],
            "flows": [
                (f.rate_bps, f.remaining_bytes, f.alpha, f.active, f.done,
                 f.flow.fct_ns)
                for f in self.flows
            ],
        }


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_network_equals_the_reference_after_any_event_sequence(scenario):
    """Random starts, finishes, ticks and packet bursts: after every
    checkpoint and at the end, every link, port and flow agrees."""
    ref = _World(ReferenceFluidNetwork, scenario, spans=SpanRecorder())
    new = _World(FluidNetwork, scenario, spans=SpanRecorder())
    for until in ref.checkpoints:
        assert new.sim.run(until=until) == ref.sim.run(until=until)
        assert new.state() == ref.state()
    assert new.sim.run(max_events=200_000) == ref.sim.run(max_events=200_000)
    assert new.state() == ref.state()
    assert new.net.done and new.net.completed == len(new.flows)
    # fluid/epoch spans: same count, same payload (wall clock aside)
    assert [(s[2], s[3], s[1], s[6]) for s in new.net.spans.spans] == [
        (s[2], s[3], s[1], s[6]) for s in ref.net.spans.spans
    ]
