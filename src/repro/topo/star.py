"""Star topology: N hosts on one switch — the paper's testbed shape (§6.1).

Every switch egress port gets a fresh scheduler and AQM from the supplied
factories (mirroring the per-NIC qdisc instances of the prototype); host
NICs are plain FIFOs.  The base RTT of the topology is
``4 x link_delay_ns`` plus serialization, matching how the paper quotes its
250 us testbed / 100 us simulation base RTTs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.aqm.base import Aqm
from repro.net.classifier import DscpClassifier
from repro.net.host import Host
from repro.net.link import Link
from repro.net.nic import make_nic
from repro.net.port import EgressPort
from repro.net.switch import Switch
from repro.sched.base import Scheduler
from repro.sim.engine import Simulator
from repro.units import KB

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.transport.flow import Flow

SchedFactory = Callable[[], Scheduler]
AqmFactory = Callable[[], Optional[Aqm]]


class StarTopology:
    """N hosts, one switch, symmetric links."""

    def __init__(
        self,
        sim: Simulator,
        n_hosts: int,
        link_rate_bps: int,
        sched_factory: SchedFactory,
        aqm_factory: AqmFactory,
        buffer_bytes: int = 96 * KB,
        link_delay_ns: int = 62_500,
    ) -> None:
        if n_hosts < 2:
            raise ValueError(f"n_hosts must be >= 2, got {n_hosts}")
        self.sim = sim
        self.link_rate_bps = link_rate_bps
        self.link_delay_ns = link_delay_ns
        self.switch = Switch(sim, name="sw0")
        self.switches = [self.switch]  # every switch of the fabric
        self.hosts: List[Host] = []
        for host_id in range(n_hosts):
            scheduler = sched_factory()
            port = EgressPort(
                sim,
                rate_bps=link_rate_bps,
                buffer_bytes=buffer_bytes,
                scheduler=scheduler,
                aqm=aqm_factory(),
                classify=DscpClassifier(len(scheduler.queues)),
                name=f"sw0:p{host_id}",
            )
            self.switch.add_port(port)
            self.switch.set_route(host_id, port)
            nic = make_nic(
                sim,
                rate_bps=link_rate_bps,
                link=Link(self.switch, link_delay_ns),
                name=f"h{host_id}:nic",
            )
            host = Host(sim, host_id, nic)
            port.link = Link(host, link_delay_ns)
            self.hosts.append(host)

    @property
    def base_rtt_ns(self) -> int:
        """Propagation-only RTT between two hosts through the switch."""
        return 4 * self.link_delay_ns

    def port_to(self, host_id: int) -> EgressPort:
        """The switch egress port facing ``host_id`` (the bottleneck for
        traffic toward that host)."""
        return self.switch.ports[host_id]

    def fluid_path(self, flow: "Flow") -> List[Tuple[EgressPort, int]]:
        """Forward-path ports a fluid abstraction of ``flow`` crosses.

        Each entry is ``(port, wire_delay_ns)``; the fluid engine turns
        the ports into capacity constraints and sums the delays into
        the path's propagation latency.
        """
        return [
            (self.hosts[flow.src].nic, self.link_delay_ns),
            (self.switch.ports[flow.dst], self.link_delay_ns),
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StarTopology {len(self.hosts)} hosts @{self.link_rate_bps}bps>"
