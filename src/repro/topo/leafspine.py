"""Leaf-spine fabric with per-flow ECMP — the §6.2 simulation topology.

Hosts hang off leaf (ToR) switches; every leaf connects to every spine.
Up-traffic picks a spine by hashing the flow id (per-flow ECMP, so a flow —
and its reverse ACK stream — sticks to one path and never reorders), down-
traffic routes by destination.  The paper's full scale is 12 leaves x 12
spines x 144 hosts; the builder takes arbitrary dimensions so benchmarks
can run a scaled-down fabric with identical structure.

All fabric egress ports (leaf->host, leaf->spine, spine->leaf) receive the
same scheduler/AQM configuration, as in the ns-2 setup where every switch
port runs the scheme under test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.aqm.base import Aqm
from repro.net.classifier import DscpClassifier
from repro.net.host import Host
from repro.net.link import Link
from repro.net.nic import make_nic
from repro.net.packet import Packet
from repro.net.port import EgressPort
from repro.net.switch import Switch
from repro.sched.base import Scheduler
from repro.sim.engine import Simulator
from repro.units import FABRIC_LINK_DELAY_NS, KB

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.transport.flow import Flow

SchedFactory = Callable[[], Scheduler]
AqmFactory = Callable[[], Optional[Aqm]]

_HASH_MULT = 2654435761  # Knuth multiplicative hash


class LeafSpineTopology:
    """A (possibly scaled-down) leaf-spine datacenter fabric."""

    def __init__(
        self,
        sim: Simulator,
        n_leaf: int,
        n_spine: int,
        hosts_per_leaf: int,
        sched_factory: SchedFactory,
        aqm_factory: AqmFactory,
        edge_rate_bps: int,
        buffer_bytes: int = 300 * KB,
        host_link_delay_ns: int = 20_000,
        ecmp_salt: int = 0,
    ) -> None:
        for name, value in (
            ("n_leaf", n_leaf), ("n_spine", n_spine),
            ("hosts_per_leaf", hosts_per_leaf),
        ):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if n_leaf * hosts_per_leaf < 2:
            raise ValueError(
                "n_leaf x hosts_per_leaf must give at least 2 hosts, got "
                f"{n_leaf} x {hosts_per_leaf}"
            )
        self.sim = sim
        self.n_leaf = n_leaf
        self.n_spine = n_spine
        self.hosts_per_leaf = hosts_per_leaf
        self.edge_rate_bps = edge_rate_bps
        self.host_link_delay_ns = host_link_delay_ns
        self.ecmp_salt = ecmp_salt
        self.hosts: List[Host] = []
        self.leaves: List[Switch] = []
        self.spines: List[Switch] = []

        def new_port(sw: Switch, name: str) -> EgressPort:
            scheduler = sched_factory()
            port = EgressPort(
                sim,
                rate_bps=edge_rate_bps,
                buffer_bytes=buffer_bytes,
                scheduler=scheduler,
                aqm=aqm_factory(),
                classify=DscpClassifier(len(scheduler.queues)),
                name=name,
            )
            return sw.add_port(port)

        for leaf_id in range(n_leaf):
            leaf = Switch(sim, name=f"leaf{leaf_id}")
            self.leaves.append(leaf)
        for spine_id in range(n_spine):
            spine = Switch(sim, name=f"spine{spine_id}")
            self.spines.append(spine)
        self.switches = self.leaves + self.spines  # every switch, leaves first

        # hosts and leaf->host ports
        for leaf_id, leaf in enumerate(self.leaves):
            for slot in range(hosts_per_leaf):
                host_id = leaf_id * hosts_per_leaf + slot
                port = new_port(leaf, f"leaf{leaf_id}:h{slot}")
                nic = make_nic(
                    sim,
                    rate_bps=edge_rate_bps,
                    link=Link(leaf, host_link_delay_ns),
                    name=f"h{host_id}:nic",
                )
                host = Host(sim, host_id, nic)
                port.link = Link(host, host_link_delay_ns)
                leaf.set_route(host_id, port)
                self.hosts.append(host)

        # leaf<->spine ports
        self._uplinks: List[List[EgressPort]] = []
        for leaf_id, leaf in enumerate(self.leaves):
            ups = []
            for spine_id, spine in enumerate(self.spines):
                up = new_port(leaf, f"leaf{leaf_id}:up{spine_id}")
                up.link = Link(spine, FABRIC_LINK_DELAY_NS)
                ups.append(up)
                down = new_port(spine, f"spine{spine_id}:down{leaf_id}")
                down.link = Link(leaf, FABRIC_LINK_DELAY_NS)
                for slot in range(hosts_per_leaf):
                    spine.set_route(leaf_id * hosts_per_leaf + slot, down)
            self._uplinks.append(ups)

        for leaf_id, leaf in enumerate(self.leaves):
            leaf.route_fn = self._make_leaf_router(leaf_id, leaf)

    # -- routing -------------------------------------------------------------

    def ecmp_spine(self, flow_id: int) -> int:
        """Deterministic per-flow spine choice."""
        return ((flow_id + self.ecmp_salt) * _HASH_MULT & 0xFFFFFFFF) % self.n_spine

    def fluid_path(self, flow: "Flow") -> List[Tuple[EgressPort, int]]:
        """Forward-path ports a fluid abstraction of ``flow`` crosses.

        Each entry is ``(port, wire_delay_ns)``.  Per-flow ECMP makes
        the path deterministic and single-valued — the same spine the
        packet engine would hash this flow onto.
        """
        src, dst = flow.src, flow.dst
        src_leaf = src // self.hosts_per_leaf
        dst_leaf = dst // self.hosts_per_leaf
        hops: List[Tuple[EgressPort, int]] = [
            (self.hosts[src].nic, self.host_link_delay_ns)
        ]
        if src_leaf != dst_leaf:
            spine_id = self.ecmp_spine(flow.id)
            hops.append((self._uplinks[src_leaf][spine_id], FABRIC_LINK_DELAY_NS))
            hops.append(
                (self.spines[spine_id]._dst_table[dst], FABRIC_LINK_DELAY_NS)
            )
        hops.append(
            (self.leaves[dst_leaf]._dst_table[dst], self.host_link_delay_ns)
        )
        return hops

    def _make_leaf_router(self, leaf_id: int, leaf: Switch):
        # Everything the per-packet decision needs is bound as closure
        # locals: the router runs for every packet crossing the leaf, so
        # it must not chase attributes or call helper methods.  The
        # arithmetic mirrors ecmp_spine() exactly.
        uplinks = self._uplinks[leaf_id]
        hosts_per_leaf = self.hosts_per_leaf
        n_spine = self.n_spine
        salt = self.ecmp_salt
        dst_table = leaf._dst_table

        def route(pkt: Packet) -> EgressPort:
            dst = pkt.dst
            if dst // hosts_per_leaf == leaf_id:
                return dst_table[dst]
            return uplinks[
                ((pkt.flow_id + salt) * _HASH_MULT & 0xFFFFFFFF) % n_spine
            ]

        return route

    # -- conveniences --------------------------------------------------------

    @property
    def n_hosts(self) -> int:
        return self.n_leaf * self.hosts_per_leaf

    @property
    def base_rtt_ns(self) -> int:
        """Propagation-only RTT between hosts under different leaves
        (host links + 2 fabric hops each way)."""
        return 4 * self.host_link_delay_ns + 8 * FABRIC_LINK_DELAY_NS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LeafSpine {self.n_leaf}x{self.n_spine} "
            f"{self.n_hosts} hosts @{self.edge_rate_bps}bps>"
        )
