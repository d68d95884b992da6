"""The linear-cost fluid epoch against the code it replaced, bit for bit.

``tests/fluid_oracle.py`` keeps the pre-ISSUE-12 solver and network.
Here hypothesis draws small random graphs and event sequences and
requires ``==`` — never approx — between the oracle and the live code:
the rewrite changed which loops run, not one floating-point operation's
operands or order.
"""

import random
from functools import partial

from hypothesis import example, given, settings, strategies as st

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
# hypothesis-found: five flows share a subnormal capacity, each share
# rounds up by 5e-324 and the relative bound alone is too tight
@example(graph=([2.2250738585e-313, 1.0], [[0], [0], [0], [0], [0]]))
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
    # relative slack for the normal range; down in the subnormals a
    # share rounds by an absolute 5e-324, once per flow at most
    for li, cap in enumerate(caps):
        assert load[li] <= cap * (1 + 1e-12) + len(paths) * 5e-324


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


#: the first act of a scenario: every start and burst falls inside it
_ACT_NS = 6_000_000


class _World:
    """One simulator, one network, one copy of a drawn scenario.

    Two scenarios in five have a second act.  Packet traffic stops for
    1,020-1,200 measurement ticks — a rate of 1e5..1e10 bit/s halves
    into the subnormals after ~1,040-1,055 of them and is exactly 0.0
    ~53 later — while late flow starts keep the solver running over the
    idle links; then the bursts return.  The live network stops
    touching such a link and has to come back to it with the rate, and
    the rate its last skipped solve would have recorded, bit for bit.
    """

    def __init__(self, network_cls, scenario, spans=None):
        rng = random.Random(scenario)
        n_links = rng.randint(1, 40)
        n_flows = rng.randint(0, 60)
        tick_ns = rng.choice([50_000, 200_000, 1_000_000])
        second_act = rng.random() < 0.4
        resume_ns = _ACT_NS + rng.randint(1_020, 1_200) * tick_ns
        self.sim = Simulator()
        self.ports = []
        self.links = []
        for _ in range(n_links):
            delay = rng.choice([0, 650, 20_000])
            # a quarter of the links are abstract capacities, no port
            port = _Port(delay) if rng.random() < 0.75 else None
            self.ports.append(port)
            link = FluidLink(
                port,
                rng.choice([1e8, 9.48e8, 9.48e8, 1e9, 1e10]),
                delay,
                rng.choice([0, 78_000, 256_000]),
            )
            # one link in ten was already carrying packets: a measured
            # rate above or below the re-solve threshold before tick 1
            if rng.random() < 0.1:
                link.pkt_rate_bps = link.capacity_bps * rng.choice([0.5, 0.001])
            self.links.append(link)
        starts = [
            rng.choice([0, 0, rng.randint(0, 3_000_000)]) for _ in range(n_flows)
        ]
        if second_act:
            # solves all through the idle stretch, and one flow that
            # keeps the network (so the tick) alive past the last burst
            starts += [
                rng.randint(_ACT_NS, resume_ns + _ACT_NS)
                for _ in range(rng.randint(0, 6))
            ]
            starts.append(resume_ns + _ACT_NS)
        self.flows = []
        for i, start_ns in enumerate(starts):
            path = tuple(rng.sample(range(n_links), rng.randint(1, min(5, n_links))))
            flow = Flow(i, 0, 1, rng.randint(2_000, 400_000), start_ns=start_ns)
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
        acts = [0, resume_ns] if second_act else [0]
        for act_ns in acts:
            for _ in range(rng.randint(0, 80)):
                li = rng.randrange(n_links)
                port = self.ports[li]
                if port is None:
                    continue
                full_tick = self.links[li].capacity_bps * tick_ns / 8e9
                nbytes = int(full_tick * rng.choice([0.001, 0.02, 0.5, 1.0, 1.2]))
                self.sim.schedule(
                    act_ns + rng.randint(0, _ACT_NS), partial(port.send, nbytes)
                )
        checkpoints = [rng.randint(0, 8_000_000) for _ in range(4)]
        if second_act:
            # the subnormal tail and the zeros before the bursts return,
            # then the re-entry
            checkpoints += [
                resume_ns - rng.randint(0, 160) * tick_ns for _ in range(2)
            ]
            checkpoints += [
                resume_ns + rng.randint(0, 8_000_000) for _ in range(2)
            ]
        self.checkpoints = sorted(checkpoints)
        self.net.on_start()

    def pkt_rate_bps(self, li):
        """Link ``li``'s measured rate now: the live network keeps it as
        of some earlier tick and reads it through its accessor, the
        reference's slot is always current."""
        if isinstance(self.net, FluidNetwork):
            return self.net.pkt_rate_bps(li)
        return self.links[li].pkt_rate_bps

    def state(self):
        net = self.net
        return {
            "now": self.sim.now,
            "stats": net.stats_dict(),
            "links": [
                (l.fluid_rate_bps, l.mark_frac, l.saturated, l.q_delay_ns,
                 l.mark_acc, self.pkt_rate_bps(li), l.pkt_bytes_prev)
                for li, l in enumerate(self.links)
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


def _rates_at_solve(new, ref):
    """The rate the last solve saw, on each link the live network is
    tracking (white box: nothing public shows it, but the re-solve test
    is a drift from it, within an ulp of the threshold once in 2**47).
    The reference records it at every solve; the live network skips a
    link gone quiet and owes the entry when the link sends again."""
    tracked = [new.net._measured[k][0] for k in new.net._warm]
    return (
        [new.net._pkt_at_solve[li] for li in tracked],
        [ref.net._pkt_at_solve[li] for li in tracked],
    )


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
        live, reference = _rates_at_solve(new, ref)
        assert live == reference
    assert new.sim.run(max_events=200_000) == ref.sim.run(max_events=200_000)
    assert new.state() == ref.state()
    assert new.net.done and new.net.completed == len(new.flows)
    # fluid/epoch spans: same count, same payload (wall clock aside)
    assert [(s[2], s[3], s[1], s[6]) for s in new.net.spans.records] == [
        (s[2], s[3], s[1], s[6]) for s in ref.net.spans.records
    ]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_reading_a_rate_moves_nothing(scenario):
    """``FluidNetwork.pkt_rate_bps`` computes and returns.  A world
    whose every link is read after every event ends exactly where an
    unobserved one does, down to the tick each stored rate is as of —
    a read that brought the slot forward would shift the rate
    ``on_tick`` rebuilds for the solves that skipped the link."""
    plain = _World(FluidNetwork, scenario)
    watched = _World(FluidNetwork, scenario)
    plain.sim.run(max_events=200_000)
    n_links = len(watched.links)
    while watched.sim.run(max_events=1):
        for li in range(n_links):
            watched.pkt_rate_bps(li)
    assert watched.state() == plain.state()
    assert [(l.pkt_rate_bps, l.pkt_rate_tick) for l in watched.links] == [
        (l.pkt_rate_bps, l.pkt_rate_tick) for l in plain.links
    ]
    assert watched.net._pkt_at_solve == plain.net._pkt_at_solve
