"""Reference oracle for the fluid engine: the pre-ISSUE-12 code, kept to
test against.

ISSUE 12 made an epoch cost O(path lengths of the active flows + links)
instead of O(links x active flows x hops) and promised bit-identical
results.  This module keeps what it replaced — the solver that rebuilt
its incidence on every call and rescanned every link every round, and
the network that summed per-link totals with ``li in fl.path`` — so
``tests/test_fluid_differential.py`` can require ``==`` between the two
on random inputs.  Nothing here is imported by ``src/``; do not "fix"
or speed it up.  The calibration constants are the live module's, so a
recalibration moves both sides together.
"""

from __future__ import annotations

from functools import partial
from math import sqrt
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.spans import wall_ns
from repro.sim.fluid.model import FluidFlow, FluidLink
from repro.sim.fluid.network import (
    _BITS_NS,
    _EPS_BYTES,
    _MIN_RATE_FRAC,
    _PKT_EWMA_G,
    _RAMP_DEFICIT_SCALE,
    _RESOLVE_FRAC,
)
from repro.units import MSS


def reference_max_min_shares(
    capacities: Sequence[float],
    paths: Sequence[Sequence[int]],
) -> Tuple[List[float], Set[int], int]:
    """The solver as it stood before ISSUE 12: incidence rebuilt per call,
    every link rescanned every round."""
    n_links = len(capacities)
    n_flows = len(paths)
    rates = [0.0] * n_flows
    if not n_flows:
        return rates, set(), 0
    cap_left = [float(c) for c in capacities]
    counts = [0] * n_links
    link_flows: List[List[int]] = [[] for _ in range(n_links)]
    for f, path in enumerate(paths):
        if not path:
            raise ValueError(f"flow {f} has an empty path")
        for li in path:
            counts[li] += 1
            link_flows[li].append(f)
    frozen = [False] * n_flows
    bottlenecks: Set[int] = set()
    unfrozen = n_flows
    iterations = 0
    while unfrozen:
        iterations += 1
        best = -1
        fair = 0.0
        for li in range(n_links):
            c = counts[li]
            if not c:
                continue
            share = cap_left[li] / c
            if best < 0 or share < fair:
                best = li
                fair = share
        if best < 0:  # pragma: no cover - unreachable while unfrozen > 0
            break
        if fair < 0.0:
            fair = 0.0
        bottlenecks.add(best)
        for f in link_flows[best]:
            if frozen[f]:
                continue
            frozen[f] = True
            unfrozen -= 1
            rates[f] = fair
            for li in paths[f]:
                cap_left[li] -= fair
                counts[li] -= 1
    return rates, bottlenecks, iterations


class ReferenceFluidNetwork:
    """``FluidNetwork`` as it stood before ISSUE 12, verbatim: per-link
    totals by scanning every link x every active flow, the solver called
    from scratch, every port rewritten every epoch."""

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
        "_finish_handle",
        "_last_settle_ns",
        "_pkt_at_solve",
        "_done",
    )

    def __init__(
        self,
        sim: object,
        flows: Sequence[FluidFlow],
        links: Sequence[FluidLink],
        collector: object,
        spans: Optional[object] = None,
        hybrid: bool = False,
        tick_ns: int = 0,
    ) -> None:
        self.sim = sim
        self.flows: List[FluidFlow] = list(flows)
        self.links: List[FluidLink] = list(links)
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
        self._active: List[int] = []
        self._finish_handle: Optional[object] = None
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
            sim.schedule(delay, partial(self.on_flow_start, i))
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
        self._epoch_resolve("start")

    def on_finish_due(self) -> None:
        """Epoch: the earliest-finishing flow has drained its bytes."""
        if self._done:  # pragma: no cover - handle is cancelled on done
            return
        self._finish_handle = None
        self._epoch_settle()
        now = self.sim.now
        still: List[int] = []
        for i in self._active:
            fl = self.flows[i]
            if fl.remaining_bytes <= _EPS_BYTES:
                fl.remaining_bytes = 0.0
                fl.active = False
                fl.done = True
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
        moved = False
        for li, link in enumerate(self.links):
            port = link.port
            if port is None:
                continue
            cur = port.stats.tx_bytes
            inst = (cur - link.pkt_bytes_prev) * _BITS_NS / self.tick_ns
            link.pkt_bytes_prev = cur
            link.pkt_rate_bps = (
                (1.0 - _PKT_EWMA_G) * link.pkt_rate_bps + _PKT_EWMA_G * inst
            )
            if (
                abs(link.pkt_rate_bps - self._pkt_at_solve[li])
                > _RESOLVE_FRAC * link.capacity_bps
            ):
                moved = True
        if moved:
            self._epoch_settle()
            self._epoch_resolve("tick")
        self.sim.schedule(self.tick_ns, self.on_tick)

    # -- epoch helpers (the only other mutation sites) ------------------

    def _epoch_settle(self) -> None:
        """Integrate the constant-rate interval since the last epoch."""
        now = self.sim.now
        dt = now - self._last_settle_ns
        self._last_settle_ns = now
        if dt <= 0:
            return
        for i in self._active:
            fl = self.flows[i]
            fl.remaining_bytes -= fl.rate_bps * dt / _BITS_NS
            if fl.remaining_bytes < 0.0:
                fl.remaining_bytes = 0.0

    def _epoch_resolve(self, why: str) -> None:
        """Re-solve shares, update link/marking state, re-arm finish."""
        t0 = wall_ns()
        links = self.links
        active = self._active
        caps: List[float] = []
        for li, link in enumerate(links):
            residual = link.capacity_bps - link.pkt_rate_bps
            floor = _MIN_RATE_FRAC * link.capacity_bps
            caps.append(residual if residual > floor else floor)
            self._pkt_at_solve[li] = link.pkt_rate_bps
        paths = [self.flows[i].path for i in active]
        rates, bottlenecks, iters = reference_max_min_shares(caps, paths)
        self.epochs += 1
        self.solver_iterations += iters
        # per-flow rate + DCTCP-style alpha at the new share
        for k, i in enumerate(active):
            fl = self.flows[i]
            new_rate = rates[k]
            old_rate = fl.rate_bps
            # effective RTT: propagation both ways plus the standing
            # queues currently held on the path (assumed symmetric for
            # the ACK direction, as in the bulk scenarios)
            rtt_ns = 2 * fl.path_delay_ns
            for li in fl.path:
                rtt_ns += 2 * links[li].q_delay_ns
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
                # bits: dr^2 rtt^2 / (2 * 8*MSS); /8 again for bytes
                dr = new_rate - old_rate
                rtt_s = rtt_ns / 1e9
                fl.remaining_bytes += _RAMP_DEFICIT_SCALE * (
                    dr * dr * rtt_s * rtt_s / (128.0 * MSS)
                )
            fl.rate_bps = new_rate
            w_pkts = new_rate * rtt_ns / (8e9 * MSS)
            if w_pkts < 1.0:
                w_pkts = 1.0
            fl.alpha = min(1.0, sqrt(2.0 / w_pkts))
        # per-link totals, saturation, standing queue, marking fraction
        for li, link in enumerate(links):
            total = 0.0
            alpha_sum = 0.0
            n_crossing = 0
            for k, i in enumerate(active):
                fl = self.flows[i]
                if li in fl.path:
                    total += rates[k]
                    alpha_sum += fl.alpha
                    n_crossing += 1
            link.fluid_rate_bps = total
            sat = li in bottlenecks
            if sat != link.saturated:
                self.threshold_crossings += 1
                link.saturated = sat
            if sat and n_crossing:
                link.q_delay_ns = link.q_delay_cap_ns
                link.mark_frac = alpha_sum / n_crossing
            else:
                link.q_delay_ns = 0
                link.mark_frac = 0.0
                link.mark_acc = 0.0
        if self.hybrid:
            self._epoch_apply()
        self._epoch_arm()
        spans = self.spans
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

    def _epoch_apply(self) -> None:
        for link in self.links:
            port = link.port
            if port is None:
                continue
            port._link_delay = link.base_delay_ns + link.q_delay_ns
            port.fluid = link if link.mark_frac > 0.0 else None

    def _epoch_arm(self) -> None:
        """(Re-)schedule the earliest projected flow finish."""
        sim = self.sim
        if self._finish_handle is not None:
            sim.cancel(self._finish_handle)
            self._finish_handle = None
        best = -1
        for i in self._active:
            fl = self.flows[i]
            if fl.rate_bps <= 0.0:
                continue
            left = fl.remaining_bytes * _BITS_NS
            delay = int(-(-left // fl.rate_bps))
            if delay < 1:
                delay = 1
            if best < 0 or delay < best:
                best = delay
        if best >= 0:
            self._finish_handle = sim.schedule(best, self.on_finish_due)

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
