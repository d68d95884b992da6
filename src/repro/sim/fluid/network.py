"""The fluid epoch engine, riding the normal event queue.

A :class:`FluidNetwork` owns the promoted flows and the fluid view of
the links they cross.  Between *epochs* nothing happens: every flow
transfers at a constant rate, so simulated time is free.  At an epoch —
flow start, flow finish, a hybrid measurement tick that moved residual
capacity — the engine settles the elapsed interval (each active flow's
remaining bytes drop by ``rate × dt``), re-solves max-min fair shares,
and re-arms the next earliest finish as an ordinary simulator event.

Epoch-boundary discipline: all fluid state mutation lives in ``on_*``
event entry points and ``_epoch*`` helpers.  Anything else in this
package only *reads* state: a helper that mutated shares mid-interval
would escape the settled accounting, and the ``==`` differential against
``tests/fluid_oracle.py`` (``tests/test_fluid_differential.py``) would
see the drift.

Hybrid coupling (both directions, applied in :meth:`_epoch_apply`):

* **fluid → packet:** each saturated link's port keeps its line rate
  but has its link delay extended by the standing-queue delay the AQM
  would hold, and its ``fluid`` slot pointed at the
  :class:`~repro.sim.fluid.model.FluidLink` so the port CE-marks
  transiting ECT packets at the fluid marking rate.
* **packet → fluid:** a periodic ``on_tick`` samples each port's
  transmitted bytes into a packet-rate EWMA; the solver sees
  ``capacity − packet_rate`` and re-solves when any link's measured
  rate moved more than 1% of capacity.

Epoch cost: an epoch pays for what moved since the last one.  The
solver, a finish projection per active flow and a load sum per link are
the only per-epoch work that scales with what exists; everything else
is kept incrementally — the link→flows incidence at flow start/finish,
each flow's standing path delay at the saturation flips, its rate and
alpha only when its share or that delay moved, the measured packet
rates by touching a link only on a tick in which it sent or its decay
could still trigger a re-solve (an idle link's rate is a value and the
tick it was measured at, halved forward on demand by :func:`halved`).
Per-link sums are taken in activation order, the order the scans they
replace added in, so every float is bit-identical to
``tests/fluid_oracle.py`` (docs/FLUID.md, "Epoch cost and exactness").
"""

from __future__ import annotations

from functools import partial
from math import frexp, ldexp, sqrt
from sys import float_info
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

#: ``bytes * _BITS_NS / ns`` is bits/s.  An int for the tick, whose
#: byte counts it multiplies exactly; the same value as a double for
#: the per-flow arithmetic, where an int operand would be converted to
#: that double again on every use.
_BITS_NS = 8 * SEC
_BITS_NS_F = float(_BITS_NS)

#: completion slack, bytes — settles within half a byte of zero count as
#: done (float integration error over thousands of epochs stays far
#: below this; the finish event is scheduled from the same arithmetic)
_EPS_BYTES = 0.5

#: floor on the residual rate handed to the packet ports and the solver
#: (fraction of nominal capacity) — keeps serialization times finite
#: and the water-filling well-conditioned even on saturated links
_MIN_RATE_FRAC = 0.01

#: EWMA gain for the measured packet rate (DCTCP's own g); `halved`
#: relies on it being one half exactly
_PKT_EWMA_G = 0.5
_PKT_EWMA_KEEP = 1.0 - _PKT_EWMA_G

#: the smallest normal double, ``2**(_MIN_EXP - 1)``
_MIN_NORMAL = float_info.min
_MIN_EXP = float_info.min_exp

#: a measured rate below this fraction of nominal capacity is under half
#: an ulp of the capacity, so ``capacity − rate == capacity`` whatever
#: the rate decays to from there
_QUIET_FRAC = 2.0**-54

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


def halved(rate: float, n: int) -> float:
    """``rate`` after ``n`` measurement ticks in which its link sent nothing.

    Bit for bit what ``n`` rounds of the EWMA update leave: with no
    bytes sent each is ``0.5 * rate + 0.5 * 0.0``, a halving.  Halving
    a double is exact while the result stays normal, so those steps are
    one ``ldexp``; below ``2**-1022`` each step rounds to even on the
    last bit, so the subnormal tail (54 steps at most, ending on 0.0) is
    walked one step at a time.  ``rate`` is never negative (it averages
    the increments of a byte counter).
    """
    if n > 0 and rate >= _MIN_NORMAL:
        # rate = m * 2**e, 0.5 <= m < 1, is normal down to e == _MIN_EXP
        exact = frexp(rate)[1] - _MIN_EXP
        if exact > n:
            exact = n
        rate = ldexp(rate, -exact)
        n -= exact
    while n > 0 and rate != 0.0:
        rate = _PKT_EWMA_KEEP * rate
        n -= 1
    return rate


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
        "_tx_stats",
        "_tx_prev",
        "_tick",
        "_solve_tick",
        "_hot",
        "_warm",
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
        #: for the warm links)
        self._caps: List[float] = []
        #: the links that shadow a port, with the per-link constants of
        #: the measurement tick: (index, link, rate floor, re-solve
        #: threshold, quiet bound).  ``_tx_stats``, ``_tx_prev``,
        #: ``_hot`` and ``_warm`` go by position in this list.
        self._measured: List[Tuple[int, FluidLink, float, float, float]] = []
        #: their port counters, and ``tx_bytes`` of each at the last tick
        self._tx_stats: List["PortStats"] = []
        self._tx_prev: List[int] = []
        #: links whose idle decay can still move a rate past the
        #: re-solve threshold (stored rate or ``_pkt_at_solve`` entry
        #: above it): the tick updates these every time, and any
        #: other link only on a tick in which it sent
        self._hot: Set[int] = set()
        for li, link in enumerate(self.links):
            floor = _MIN_RATE_FRAC * link.capacity_bps
            residual = link.capacity_bps - link.pkt_rate_bps
            self._caps.append(residual if residual > floor else floor)
            if link.port is not None:
                threshold = _RESOLVE_FRAC * link.capacity_bps
                if link.pkt_rate_bps > threshold:
                    self._hot.add(len(self._measured))
                self._measured.append(
                    (li, link, floor, threshold, _QUIET_FRAC * link.capacity_bps)
                )
                self._tx_stats.append(link.port.stats)
                self._tx_prev.append(link.pkt_bytes_prev)
        #: links whose rate can still show in ``capacity − rate``: the
        #: hot ones and those not yet below the quiet bound.  Only
        #: these have ``_caps`` and ``_pkt_at_solve`` refreshed by a
        #: solve; a link re-enters when it next sends.
        self._warm: Set[int] = set(range(len(self._measured)))
        #: measurement ticks taken, and the count at the last solve
        self._tick = 0
        self._solve_tick = 0
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
        links = self.links
        link_flows = self._link_flows
        q_delay_ns = 0
        for li in fl.path:
            link_flows[li].append(i)
            q_delay_ns += links[li].q_delay_ns
        fl.path_q_delay_ns = q_delay_ns
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
        """Hybrid measurement tick: fold packet throughput back in.

        By exception.  The EWMA update of a link that sent nothing is a
        halving — :func:`halved` applies any number of them at once —
        and can trip the re-solve test only while the rate or the rate
        at the last solve is above the threshold (neither is negative,
        so they differ by at most the larger).  So a tick updates the
        links whose byte counter moved and the hot ones, and leaves
        every other rate as it was stored, with the tick it is as of;
        most ticks find no such link.
        """
        if self._done:
            return
        self._tick += 1
        sent_now = [stats.tx_bytes for stats in self._tx_stats]
        if sent_now != self._tx_prev or self._hot:
            if self._epoch_measure(sent_now):
                self._epoch_settle()
                self._epoch_resolve("tick")
        self.sim.schedule(self.tick_ns, self.on_tick)

    # -- epoch helpers (the only other mutation sites) ------------------

    def _epoch_measure(self, sent_now: List[int]) -> bool:
        """Update the links that sent since last tick and the hot ones.

        ``sent_now`` is every measured port's ``tx_bytes``.  True when
        some link's rate has drifted from the rate at the last solve by
        more than the re-solve threshold.
        """
        tick_ns = self.tick_ns
        tick = self._tick
        hot = self._hot
        sent_prev = self._tx_prev
        if sent_now == sent_prev:
            touched = sorted(hot)  # a copy: the loop moves links in and out
        else:
            self._tx_prev = sent_now
            touched = [
                k
                for k, sent in enumerate(sent_now)
                if sent != sent_prev[k] or k in hot
            ]
        measured = self._measured
        warm = self._warm
        at_solve = self._pkt_at_solve
        solve_tick = self._solve_tick
        moved = False
        for k in touched:
            li, link, _floor, threshold, _quiet = measured[k]
            rate = link.pkt_rate_bps
            as_of = link.pkt_rate_tick
            if k not in warm:
                # Back from quiet (so last written before the solve that
                # dropped it): the solves since skipped this link, and
                # the last one would have recorded the rate it saw.
                at_solve[li] = halved(rate, solve_tick - as_of)
                warm.add(k)
            sent = sent_now[k]
            link.pkt_rate_bps = rate = (
                _PKT_EWMA_KEEP * halved(rate, tick - 1 - as_of)
                + _PKT_EWMA_G
                * ((sent - link.pkt_bytes_prev) * _BITS_NS / tick_ns)
            )
            link.pkt_rate_tick = tick
            link.pkt_bytes_prev = sent
            solved = at_solve[li]
            drift = rate - solved
            if drift > threshold or -drift > threshold:
                moved = True
            # (the re-solve this leads to sets the entry to ``rate``:
            # that can only take the link out of the set, which the
            # next tick will see — hot one tick longer than needed)
            if rate > threshold or solved > threshold:
                hot.add(k)
            else:
                hot.discard(k)
        return moved

    def _epoch_settle(self) -> None:
        """Integrate the constant-rate interval since the last epoch."""
        now = self.sim.now
        dt = now - self._last_settle_ns
        self._last_settle_ns = now
        if dt <= 0:
            return
        elapsed_ns = float(dt)
        flows = self.flows
        for i in self._active:
            fl = flows[i]
            left = fl.remaining_bytes - fl.rate_bps * elapsed_ns / _BITS_NS_F
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
        # Residual capacity of the links whose measured rate can still
        # show in it.  One that has decayed under the quiet bound (and
        # cannot trip a re-solve) gets its last refresh here: capacity −
        # rate is the capacity from now on.
        at_solve = self._pkt_at_solve
        measured = self._measured
        warm = self._warm
        hot = self._hot
        tick = self._solve_tick = self._tick
        cooled: List[int] = []
        for k in warm:
            li, link, floor, _threshold, quiet = measured[k]
            at_solve[li] = rate = halved(
                link.pkt_rate_bps, tick - link.pkt_rate_tick
            )
            residual = link.capacity_bps - rate
            caps[li] = residual if residual > floor else floor
            if rate < quiet and k not in hot:
                cooled.append(k)
        warm.difference_update(cooled)
        rates, bottlenecks, iters = water_fill(
            caps[:], link_flows, self._paths, len(active)
        )
        self.epochs += 1
        self.solver_iterations += iters
        # One pass over the active flows, in activation order: the new
        # rate and DCTCP-style alpha of each, and the earliest projected
        # finish.  A start, a finish or a moved capacity shifts the
        # shares of the flows it meets, not of all: a flow whose share
        # and standing path delay are what they were keeps its rate and
        # alpha as they are, and only has its finish projected again
        # (it has drained since the last epoch like every other).
        finish_in = -1.0
        for i in active:
            fl = flows[i]
            new_rate = rates[i]
            old_rate = fl.rate_bps
            if new_rate != old_rate or fl.q_delay_moved:
                fl.q_delay_moved = False
                # effective RTT: propagation both ways plus the standing
                # queues currently held on the path (assumed symmetric
                # for the ACK direction, as in the bulk scenarios)
                rtt_ns = 2 * (fl.path_delay_ns + fl.path_q_delay_ns)
                if 0.0 < old_rate < new_rate:
                    # Congestion-avoidance ramp deficit: a real DCTCP
                    # flow claims a raised share at +1 MSS of window per
                    # RTT (linear), not instantly.  Versus the solver's
                    # step jump it under-transfers (dr)^2 * RTT^2 /
                    # (2 * MSS) bits during the ramp; charge that back
                    # as remaining bytes so completion times carry the
                    # convergence lag.  Flows *starting* are exempt:
                    # slow start is exponential and reaches these shares
                    # within a few RTTs (a documented error bound, not
                    # worth modelling).
                    dr = new_rate - old_rate
                    rtt_s = rtt_ns / 1e9
                    fl.remaining_bytes += _RAMP_DEFICIT_SCALE * (
                        dr * dr * rtt_s * rtt_s / _RAMP_DENOM
                    )
                fl.rate_bps = new_rate
                w_pkts = new_rate * rtt_ns / _WINDOW_DENOM
                fl.alpha = sqrt(2.0 / w_pkts) if w_pkts > 2.0 else 1.0
            if new_rate > 0.0:
                # ns to drain, rounded up (a whole number, still a float)
                delay = -(-(fl.remaining_bytes * _BITS_NS_F) // new_rate)
                if finish_in < 0.0 or delay < finish_in:
                    finish_in = delay
        # Fluid load of each link: the rates of the flows crossing it,
        # added in activation order from 0.0.
        for link, crossing in zip(links, link_flows):
            bps = 0.0
            for f in crossing:
                bps += rates[f]
            link.fluid_rate_bps = bps
        # Saturation, standing queue and marking fraction.  An
        # unsaturated link holds no queue and marks nothing, so only
        # the links entering, staying in or leaving the bottleneck set
        # have state to move — and only the first and last kind change
        # what their port must do and what delay their flows stand in.
        flipped: List[FluidLink] = []
        for li in bottlenecks:
            link = links[li]
            crossing = link_flows[li]
            # mean alpha of the flows crossing, summed in activation
            # order from 0.0 (never sum(): 3.12 compensates, 3.9 not)
            alpha_sum = 0.0
            for f in crossing:
                alpha_sum += flows[f].alpha
            link.mark_frac = alpha_sum / len(crossing)
            if not link.saturated:
                link.saturated = True
                link.q_delay_ns = q_delay_ns = link.q_delay_cap_ns
                if q_delay_ns:
                    for f in crossing:
                        fl = flows[f]
                        fl.path_q_delay_ns += q_delay_ns
                        fl.q_delay_moved = True
                flipped.append(link)
        for li in self._saturated - bottlenecks:
            link = links[li]
            link.saturated = False
            q_delay_ns = link.q_delay_ns
            if q_delay_ns:
                for f in link_flows[li]:
                    fl = flows[f]
                    fl.path_q_delay_ns -= q_delay_ns
                    fl.q_delay_moved = True
            link.q_delay_ns = 0
            link.mark_frac = 0.0
            link.mark_acc = 0.0
            flipped.append(link)
        self._saturated = bottlenecks
        self.threshold_crossings += len(flipped)
        if self.hybrid:
            self._epoch_apply(flipped)
        self._epoch_arm(int(finish_in))
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

    def pkt_rate_bps(self, li: int) -> float:
        """Link ``li``'s measured packet rate as of the last tick.

        The way to read it outside the epoch code: the link's slot may
        be ticks old.  Computes and returns, stores nothing: a link
        back from quiet has its ``_pkt_at_solve`` entry rebuilt from
        the tick its rate is as of, and a read must not move that.
        """
        link = self.links[li]
        if link.port is None:  # never measured, never decays
            return link.pkt_rate_bps
        return halved(link.pkt_rate_bps, self._tick - link.pkt_rate_tick)

    def stats_dict(self) -> Dict[str, int]:
        """The ``fluid_stats`` payload for RunProfile."""
        return {
            "flows": len(self.flows),
            "completed": self.completed,
            "epochs": self.epochs,
            "solver_iterations": self.solver_iterations,
            "threshold_crossings": self.threshold_crossings,
        }
