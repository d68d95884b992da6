"""Per-flow and per-link fluid state.

Plain state holders with ``__slots__``; every mutation after
construction happens inside :class:`~repro.sim.fluid.network.
FluidNetwork`'s epoch-boundary entry points, so fluid state never drifts
between epochs where the solver would not see it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids cycle)
    from repro.net.port import EgressPort
    from repro.transport.flow import Flow


class FluidFlow:
    """One promoted flow: a rate and a byte count, not packets."""

    __slots__ = (
        "flow",
        "path",
        "path_delay_ns",
        "path_q_delay_ns",
        "q_delay_moved",
        "rate_bps",
        "remaining_bytes",
        "alpha",
        "active",
        "done",
    )

    def __init__(
        self, flow: "Flow", path: Tuple[int, ...], path_delay_ns: int
    ) -> None:
        #: the transport-layer Flow record (id/src/dst/size/fct slots);
        #: completion writes ``fct_ns``/``completed`` exactly as the
        #: packet-mode Receiver would
        self.flow = flow
        #: link indices into ``FluidNetwork.links``, source to sink, each
        #: link at most once (``FluidNetwork`` refuses anything else)
        self.path = path
        #: one-way propagation delay of the path (last-byte delivery)
        self.path_delay_ns = path_delay_ns
        #: sum of ``q_delay_ns`` over the path's links: taken when the
        #: flow starts, then moved with each link that enters or leaves
        #: the bottleneck set, so the epoch never re-walks the path
        self.path_q_delay_ns = 0
        #: True until the epoch pass has taken ``alpha`` at the current
        #: ``path_q_delay_ns`` (a flip on the path sets it again); a
        #: flow whose share did not move either is then left as it is
        self.q_delay_moved = True
        #: current goodput, bits/s (piecewise constant between epochs)
        self.rate_bps = 0.0
        self.remaining_bytes = float(flow.size_bytes)
        #: DCTCP-style marking estimate at the current share (the
        #: steady-state fixed point alpha ~ sqrt(2/W); starts at 1.0
        #: like DctcpSender)
        self.alpha = 1.0
        self.active = False
        self.done = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FluidFlow {self.flow.id} rate={self.rate_bps / 1e6:.1f}Mbps "
            f"left={self.remaining_bytes:.0f}B>"
        )


class FluidLink:
    """One directed link in the fluid graph (usually one EgressPort)."""

    __slots__ = (
        "port",
        "capacity_bps",
        "base_delay_ns",
        "q_delay_cap_ns",
        "fluid_rate_bps",
        "pkt_rate_bps",
        "pkt_rate_tick",
        "pkt_bytes_prev",
        "saturated",
        "q_delay_ns",
        "mark_frac",
        "mark_acc",
    )

    def __init__(
        self,
        port: Optional["EgressPort"],
        capacity_bps: float,
        base_delay_ns: int = 0,
        q_delay_cap_ns: int = 0,
    ) -> None:
        #: the packet-mode port this link shadows (None in unit tests,
        #: where links are abstract capacities)
        self.port = port
        #: nominal capacity, bits/s
        self.capacity_bps = capacity_bps
        #: propagation delay of the attached wire
        self.base_delay_ns = base_delay_ns
        #: standing-queue delay when saturated: the AQM holds a DCTCP
        #: fluid queue at its threshold, so packets crossing the link
        #: wait this long behind the fluid backlog (0 disables)
        self.q_delay_cap_ns = q_delay_cap_ns
        #: total fluid rate allocated across this link, bits/s
        self.fluid_rate_bps = 0.0
        #: EWMA of measured packet throughput (hybrid residual input),
        #: as of its tick, read through ``FluidNetwork``: an idle link
        #: is not touched, so the slot holds the value at measurement
        #: tick ``pkt_rate_tick`` and ``FluidNetwork.pkt_rate_bps(li)``
        #: halves it forward to the current tick
        self.pkt_rate_bps = 0.0
        #: the measurement tick ``pkt_rate_bps`` was last written at
        self.pkt_rate_tick = 0
        #: port.stats.tx_bytes at the last measurement
        self.pkt_bytes_prev = 0
        #: True while the max-min allocation exhausts this link
        self.saturated = False
        #: currently applied standing-queue delay
        self.q_delay_ns = 0
        #: fraction of transiting ECT packets to CE-mark (deterministic
        #: accumulator thinning, applied by EgressPort.receive)
        self.mark_frac = 0.0
        self.mark_acc = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.port.name if self.port is not None else "abstract"
        return (
            f"<FluidLink {name} fluid={self.fluid_rate_bps / 1e6:.1f}Mbps"
            f"{' saturated' if self.saturated else ''}>"
        )
