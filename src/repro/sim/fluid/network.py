"""The fluid epoch engine, riding the normal event queue.

A :class:`FluidNetwork` owns the promoted flows and the fluid view of
the links they cross.  Between *epochs* nothing happens: every flow
transfers at a constant rate, so simulated time is free.  At an epoch —
flow start, flow finish, a hybrid measurement tick that moved residual
capacity — the engine settles the elapsed interval (each active flow's
remaining bytes drop by ``rate × dt``), re-solves max-min fair shares,
and re-arms the next earliest finish as an ordinary simulator event.

Epoch-boundary discipline (enforced statically by simlint SIM018): all
fluid state mutation lives in ``on_*`` event entry points and
``_epoch*`` helpers.  Anything else in this package only *reads* state,
so a future refactor cannot accidentally mutate shares mid-interval
where the settled accounting would not see it.

Hybrid coupling (both directions, applied in :meth:`_epoch_apply`):

* **fluid → packet:** each saturated link's port has its ``rate_bps``
  set to the residual capacity left by fluid flows (the per-size
  serialization cache is invalidated), its link delay extended by the
  standing-queue delay the AQM would hold, and its ``fluid`` slot
  pointed at the :class:`~repro.sim.fluid.model.FluidLink` so the port
  CE-marks transiting ECT packets at the fluid marking rate.
* **packet → fluid:** a periodic ``on_tick`` samples each port's
  transmitted bytes into a packet-rate EWMA; the solver sees
  ``capacity − packet_rate`` and re-solves when any link's measured
  rate moved more than 1% of capacity.

Epoch cost: one epoch walks each active flow's path a constant number
of times and touches each link a constant number of times outside the
solver's ``min`` — never a link × flow product.  The link→flows
incidence the solver needs is kept up to date at flow start/finish
instead of being rebuilt, and per-link sums are accumulated flow by
flow in activation order, which is the order the per-link scan they
replace added them in, so every float is bit-identical (docs/FLUID.md,
"Epoch cost").
"""

from __future__ import annotations

from math import sqrt
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.spans import wall_ns
from repro.units import MSS, SEC

from repro.sim.fluid.model import FluidFlow, FluidLink
from repro.sim.fluid.solver import check_path, water_fill

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.metrics.fct import FctCollector
    from repro.net.port import PortStats
    from repro.obs.spans import SpanRecorder
    from repro.sim.engine import EventHandle, Simulator

_BITS_NS = 8 * SEC

#: completion slack, bytes — settles within half a byte of zero count as
#: done (float integration error over thousands of epochs stays far
#: below this; the finish event is scheduled from the same arithmetic)
_EPS_BYTES = 0.5

#: floor on the residual rate handed to the packet ports and the solver
#: (fraction of nominal capacity) — keeps serialization times finite
#: and the water-filling well-conditioned even on saturated links
_MIN_RATE_FRAC = 0.01

#: EWMA gain for the measured packet rate (DCTCP's own g)
_PKT_EWMA_G = 0.5
_PKT_EWMA_KEEP = 1.0 - _PKT_EWMA_G

#: re-solve when a link's measured packet rate moves by more than this
#: fraction of nominal capacity since the last solve
_RESOLVE_FRAC = 0.01

#: Share-increase ramp deficit scale.  A DCTCP flow claims a raised
#: share at +1 MSS of window per RTT; versus the solver's step jump the
#: pure congestion-avoidance model under-transfers
#: ``dr^2 * rtt^2 / (2 * 8 * MSS)`` bits during the ramp.  But the
#: bottleneck port work-conserves: the standing queue built before the
#: share rose keeps the link busy for much of that window deficit, so
#: charging the full CA deficit overshoots badly (measured +20..+80% on
#: the cross-validation tails).  0.125 — i.e. the link actually idles
#: for about an eighth of the CA ramp deficit — is the measured
#: calibration on the bulk cross-validation configs (a {0, 0.125, 0.25,
#: 0.5} scan, pooled promoted-flow FCTs over seeds 1-3; 0.125 alone
#: holds both p50 and p99 within 5% on both pinned configs); see
#: docs/FLUID.md for the experiment.
_RAMP_DEFICIT_SCALE = 0.125

#: window in packets = rate_bps * rtt_ns / _WINDOW_DENOM
_WINDOW_DENOM = 8e9 * MSS
#: ramp deficit in bytes = dr^2 * rtt_s^2 / _RAMP_DENOM (bits:
#: dr^2 rtt^2 / (2 * 8*MSS); /8 again for bytes)
_RAMP_DENOM = 128.0 * MSS


class FluidNetwork:
    """Epoch-driven rate evolution for the promoted flows."""

    __slots__ = (
        "sim",
        "flows",
        "links",
        "collector",
        "spans",
        "hybrid",
        "tick_ns",
        "epochs",
        "solver_iterations",
        "threshold_crossings",
        "completed",
        "_active",
        "_paths",
        "_link_flows",
        "_saturated",
        "_caps",
        "_measured",
        "_finish_handle",
        "_last_settle_ns",
        "_pkt_at_solve",
        "_done",
    )

    def __init__(
        self,
        sim: "Simulator",
        flows: Sequence[FluidFlow],
        links: Sequence[FluidLink],
        collector: "FctCollector",
        spans: Optional["SpanRecorder"] = None,
        hybrid: bool = False,
        tick_ns: int = 0,
    ) -> None:
        self.sim = sim
        self.flows: List[FluidFlow] = list(flows)
        self.links: List[FluidLink] = list(links)
        for fl in self.flows:
            check_path(fl.path, len(self.links), f"flow {fl.flow.id}")
        self.collector = collector
        self.spans = spans
        #: True when packet flows coexist: couple rates/delay/marking
        #: into the ports and sample packet throughput back
        self.hybrid = hybrid
        #: measurement-tick interval (hybrid only; 0 disables)
        self.tick_ns = tick_ns
        # -- counters surfaced as fluid_stats --------------------------
        self.epochs = 0
        self.solver_iterations = 0
        #: links whose saturated flag flipped across an epoch (the AQM
        #: standing queue forming or draining)
        self.threshold_crossings = 0
        self.completed = 0
        # -- private epoch state ---------------------------------------
        #: indices of the flows in flight, in activation order
        self._active: List[int] = []
        #: every flow's path, by flow index (the solver's view)
        self._paths = [fl.path for fl in self.flows]
        #: per link, the active flows crossing it, in activation order:
        #: the transpose of ``_active``'s paths, kept in step with it at
        #: flow start/finish
        self._link_flows: List[List[int]] = [[] for _ in self.links]
        #: the links the current allocation saturates
        self._saturated: Set[int] = set()
        #: per link, the capacity the solver may hand out: nominal minus
        #: the measured packet rate, floored (refreshed at each solve
        #: for the links that have a port to measure)
        self._caps: List[float] = []
        #: the links that shadow a port, with the per-link constants of
        #: the measurement tick: (index, link, port counters, rate
        #: floor, re-solve threshold)
        self._measured: List[
            Tuple[int, FluidLink, "PortStats", float, float]
        ] = []
        for li, link in enumerate(self.links):
            floor = _MIN_RATE_FRAC * link.capacity_bps
            residual = link.capacity_bps - link.pkt_rate_bps
            self._caps.append(residual if residual > floor else floor)
            if link.port is not None:
                self._measured.append(
                    (
                        li,
                        link,
                        link.port.stats,
                        floor,
                        _RESOLVE_FRAC * link.capacity_bps,
                    )
                )
        self._finish_handle: Optional["EventHandle"] = None
        self._last_settle_ns = 0
        #: per-link packet rate the current allocation was solved with
        self._pkt_at_solve: List[float] = [0.0] * len(self.links)
        self._done = not self.flows

    # -- event entry points (scheduled on the simulator) ---------------

    def on_start(self) -> None:
        """Arm every flow start (and the hybrid tick) on the queue."""
        if self._done:
            return
        sim = self.sim
        now = sim.now
        self._last_settle_ns = now
        for i, fl in enumerate(self.flows):
            delay = fl.flow.start_ns - now
            if delay < 0:
                delay = 0
            sim.schedule_call(delay, self.on_flow_start, i)
        if self.hybrid and self.tick_ns > 0:
            sim.schedule(self.tick_ns, self.on_tick)

    def on_flow_start(self, i: int) -> None:
        """Epoch: flow ``i`` becomes active; shares shift."""
        if self._done:  # pragma: no cover - starts precede completion
            return
        self._epoch_settle()
        fl = self.flows[i]
        fl.active = True
        self._active.append(i)
        link_flows = self._link_flows
        for li in fl.path:
            link_flows[li].append(i)
        self._epoch_resolve("start")

    def on_finish_due(self) -> None:
        """Epoch: the earliest-finishing flow has drained its bytes."""
        if self._done:  # pragma: no cover - handle is cancelled on done
            return
        self._finish_handle = None
        self._epoch_settle()
        now = self.sim.now
        link_flows = self._link_flows
        still: List[int] = []
        for i in self._active:
            fl = self.flows[i]
            if fl.remaining_bytes <= _EPS_BYTES:
                fl.remaining_bytes = 0.0
                fl.active = False
                fl.done = True
                for li in fl.path:
                    link_flows[li].remove(i)
                flow = fl.flow
                flow.fct_ns = now - flow.start_ns + fl.path_delay_ns
                flow.completed = True
                self.completed += 1
                self.collector.on_complete(flow)
            else:
                still.append(i)
        self._active = still
        if still or self.completed < len(self.flows):
            self._epoch_resolve("finish")
        else:
            self._epoch_restore()

    def on_tick(self) -> None:
        """Hybrid measurement tick: fold packet throughput back in."""
        if self._done:
            return
        tick_ns = self.tick_ns
        at_solve = self._pkt_at_solve
        moved = False
        for li, link, stats, _floor, threshold in self._measured:
            sent = stats.tx_bytes
            prev = link.pkt_bytes_prev
            rate = link.pkt_rate_bps
            if sent == prev and rate == 0.0:
                # Nothing sent and nothing to decay: the update would
                # leave 0.0.  The re-solve test cannot fire either: it
                # did not on the tick that brought the rate to 0.0 (or
                # it re-solved, which zeroed at_solve[li]).
                continue
            link.pkt_bytes_prev = sent
            link.pkt_rate_bps = rate = _PKT_EWMA_KEEP * rate + _PKT_EWMA_G * (
                (sent - prev) * _BITS_NS / tick_ns
            )
            drift = rate - at_solve[li]
            if drift > threshold or -drift > threshold:
                moved = True
        if moved:
            self._epoch_settle()
            self._epoch_resolve("tick")
        self.sim.schedule(tick_ns, self.on_tick)

    # -- epoch helpers (the only other mutation sites) ------------------

    def _epoch_settle(self) -> None:
        """Integrate the constant-rate interval since the last epoch."""
        now = self.sim.now
        dt = now - self._last_settle_ns
        self._last_settle_ns = now
        if dt <= 0:
            return
        flows = self.flows
        for i in self._active:
            fl = flows[i]
            left = fl.remaining_bytes - fl.rate_bps * dt / _BITS_NS
            fl.remaining_bytes = left if left > 0.0 else 0.0

    def _epoch_resolve(self, why: str) -> None:
        """Re-solve shares, update link/marking state, re-arm finish."""
        spans = self.spans
        t0 = wall_ns() if spans is not None else 0
        links = self.links
        flows = self.flows
        active = self._active
        link_flows = self._link_flows
        caps = self._caps
        at_solve = self._pkt_at_solve
        for li, link, _stats, floor, _threshold in self._measured:
            at_solve[li] = rate = link.pkt_rate_bps
            residual = link.capacity_bps - rate
            caps[li] = residual if residual > floor else floor
        rates, bottlenecks, iters = water_fill(
            caps[:], link_flows, self._paths, len(active)
        )
        self.epochs += 1
        self.solver_iterations += iters
        # One pass over the active flows, in activation order: the new
        # rate and DCTCP-style alpha of each, its contribution to every
        # link on its path, and the earliest projected finish.
        fluid_bps = [0.0] * len(links)
        alpha_sums = [0.0] * len(links)
        finish_in = -1
        for i in active:
            fl = flows[i]
            new_rate = rates[i]
            old_rate = fl.rate_bps
            path = fl.path
            # effective RTT: propagation both ways plus the standing
            # queues currently held on the path (assumed symmetric for
            # the ACK direction, as in the bulk scenarios)
            rtt_ns = fl.path_delay_ns
            for li in path:
                rtt_ns += links[li].q_delay_ns
            rtt_ns *= 2
            if 0.0 < old_rate < new_rate:
                # Congestion-avoidance ramp deficit: a real DCTCP flow
                # claims a raised share at +1 MSS of window per RTT
                # (linear), not instantly.  Versus the solver's step
                # jump it under-transfers (dr)^2 * RTT^2 / (2 * MSS)
                # bits during the ramp; charge that back as remaining
                # bytes so completion times carry the convergence lag.
                # Flows *starting* are exempt: slow start is
                # exponential and reaches these shares within a few
                # RTTs (a documented error bound, not worth modelling).
                dr = new_rate - old_rate
                rtt_s = rtt_ns / 1e9
                fl.remaining_bytes += _RAMP_DEFICIT_SCALE * (
                    dr * dr * rtt_s * rtt_s / _RAMP_DENOM
                )
            fl.rate_bps = new_rate
            w_pkts = new_rate * rtt_ns / _WINDOW_DENOM
            alpha = sqrt(2.0 / w_pkts) if w_pkts > 2.0 else 1.0
            fl.alpha = alpha
            for li in path:
                fluid_bps[li] += new_rate
                alpha_sums[li] += alpha
            if new_rate > 0.0:
                delay = int(-(-(fl.remaining_bytes * _BITS_NS) // new_rate))
                if finish_in < 0 or delay < finish_in:
                    finish_in = delay
        for link, bps in zip(links, fluid_bps):
            link.fluid_rate_bps = bps
        # Saturation, standing queue and marking fraction.  An
        # unsaturated link holds no queue and marks nothing, so only
        # the links entering, staying in or leaving the bottleneck set
        # have state to move — and only the first and last kind change
        # what their port must do.
        flipped: List[FluidLink] = []
        for li in bottlenecks:
            link = links[li]
            link.mark_frac = alpha_sums[li] / len(link_flows[li])
            if not link.saturated:
                link.saturated = True
                link.q_delay_ns = link.q_delay_cap_ns
                flipped.append(link)
        for li in self._saturated - bottlenecks:
            link = links[li]
            link.saturated = False
            link.q_delay_ns = 0
            link.mark_frac = 0.0
            link.mark_acc = 0.0
            flipped.append(link)
        self._saturated = bottlenecks
        self.threshold_crossings += len(flipped)
        if self.hybrid:
            self._epoch_apply(flipped)
        self._epoch_arm(finish_in)
        if spans is not None:
            spans.add(
                "fluid",
                "epoch",
                t0,
                wall_ns() - t0,
                tid="sim",
                args={
                    "why": why,
                    "sim_ns": self.sim.now,
                    "active": len(active),
                    "iters": iters,
                },
            )

    def _epoch_apply(self, flipped: Sequence[FluidLink]) -> None:
        """Couple the new allocation into the packet-mode ports.

        Deliberately *not* by reducing ``port.rate_bps``: the port
        serializes packets at line rate even when fluid load saturates
        the link — a transiting burst interleaves with the fluid
        packets, it is not clocked out at the residual rate (an early
        version did exactly that and starved every short flow: the
        throttled port capped their measured throughput, which the
        solver then read as "no packet demand" — a grant/measurement
        deadlock).  Contention is expressed the way the real system
        expresses it: extra sojourn equal to the AQM standing queue,
        and CE marks at the fluid flows' own marking rate, which makes
        packet DCTCP senders converge onto the same fair share the
        solver gave the fluid flows.  Capacity conservation holds on
        the measurement-tick timescale through the reverse coupling
        (the solver sees ``capacity − measured packet rate``), not
        instantaneously — see docs/FLUID.md for the error bound.

        ``flipped`` are the links whose saturation changed this epoch.
        A port reads ``mark_frac`` through its ``fluid`` slot, so a
        link that stays saturated needs no write, and one that stays
        unsaturated keeps the wire delay and empty slot it was built
        with (``base_delay_ns`` is the port's own link delay).
        """
        for link in flipped:
            port = link.port
            if port is None:
                continue
            port._link_delay = link.base_delay_ns + link.q_delay_ns
            port.fluid = link if link.mark_frac > 0.0 else None

    def _epoch_arm(self, finish_in: int) -> None:
        """(Re-)schedule the earliest projected flow finish.

        ``finish_in`` is the delay to it in ns, negative when no active
        flow is moving.
        """
        sim = self.sim
        if self._finish_handle is not None:
            sim.cancel(self._finish_handle)
            self._finish_handle = None
        if finish_in >= 0:
            self._finish_handle = sim.schedule(
                max(finish_in, 1), self.on_finish_due
            )

    def _epoch_restore(self) -> None:
        """All fluid flows done: hand the ports back untouched."""
        self._done = True
        if self._finish_handle is not None:
            self.sim.cancel(self._finish_handle)
            self._finish_handle = None
        if not self.hybrid:
            return
        for link in self.links:
            port = link.port
            if port is None:
                continue
            port._link_delay = link.base_delay_ns
            port.fluid = None

    # -- read-only reporting --------------------------------------------

    @property
    def done(self) -> bool:
        return self._done

    def stats_dict(self) -> Dict[str, int]:
        """The ``fluid_stats`` payload for RunProfile / bench results."""
        return {
            "flows": len(self.flows),
            "completed": self.completed,
            "epochs": self.epochs,
            "solver_iterations": self.solver_iterations,
            "threshold_crossings": self.threshold_crossings,
        }
