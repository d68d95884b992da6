"""The shared sender core: windowing, loss recovery, RTO, ECN plumbing.

Subclasses only decide how to *react to marks* (the ``_on_ecn_feedback``
hook): ECN* halves once per window, DCTCP cuts proportionally to its
estimated marking fraction.  Everything else — slow start, congestion
avoidance, NewReno fast retransmit with partial-ACK retransmission,
RFC 6298 RTO estimation with a configurable minimum (the paper tunes
RTO_min to 10 ms on the testbed and 5 ms in simulation) — is common.

Sequence numbers are in MSS-sized segments, the granularity at which the
whole simulator operates.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.host import Host
from repro.net.packet import Packet, make_data
from repro.sim.engine import Simulator
from repro.transport.flow import Flow
from repro.units import MSEC, MSS, SEC

#: per-packet DSCP override: (flow, segment index) -> dscp
Tagger = Callable[[Flow, int], int]

#: ceiling on the RTO, backoff included
MAX_RTO_NS = 2 * SEC


class TransportStats:
    """Counters one sender accumulates (aggregated by the harness)."""

    __slots__ = ("timeouts", "fast_retransmits", "retx_pkts", "ecn_acks", "acks")

    def __init__(self) -> None:
        self.timeouts = 0
        self.fast_retransmits = 0
        self.retx_pkts = 0
        self.ecn_acks = 0
        self.acks = 0


class SenderBase:
    """Window-based reliable sender with pluggable ECN response."""

    __slots__ = (
        "sim", "host", "flow", "cwnd", "max_cwnd", "ssthresh",
        "snd_una", "snd_nxt", "dupacks", "in_recovery", "recover",
        "done", "tagger", "on_done", "stats", "tracer",
        "min_rto_ns", "srtt_ns", "rttvar_ns", "rto_ns",
        "_base_rto_ns", "_backoff", "_rto_deadline", "_rto_tick_at",
        "_cut_end", "app_rate_bps", "_app_tick", "_app_tokens",
        "_app_refill_ns", "_app_bucket", "_app_hwm", "_window_limited",
    )

    #: set False in subclasses that do not negotiate ECN
    ecn_capable = True

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow: Flow,
        init_cwnd: float = 10.0,
        min_rto_ns: int = 10 * MSEC,
        init_rto_ns: Optional[int] = None,
        tagger: Optional[Tagger] = None,
        on_done: Optional[Callable[["SenderBase"], None]] = None,
        app_rate_bps: Optional[int] = None,
        max_cwnd: float = 2800.0,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow = flow
        self.cwnd = float(init_cwnd)
        # Socket-buffer equivalent (default ~4 MB of segments, like Linux
        # tcp_wmem max): without it, a flow that never sees a mark or loss
        # — e.g. alone in a strict-priority queue — would grow its window
        # without bound and bloat its own NIC queue.
        self.max_cwnd = float(max_cwnd)
        self.ssthresh = float(1 << 30)
        self.snd_una = 0
        self.snd_nxt = 0
        self.dupacks = 0
        self.in_recovery = False
        self.recover = -1
        self.done = False
        self.tagger = tagger
        self.on_done = on_done
        self.stats = TransportStats()
        #: optional repro.obs.Tracer recording cwnd/alpha updates;
        #: None (the default) keeps the ACK path branch-only
        self.tracer = None
        # RFC 6298 state.  A zero RTO would re-arm the timeout tick at the
        # instant it fires (backoff doubles 0), so the clock never moves.
        if min_rto_ns <= 0:
            raise ValueError(f"min_rto_ns must be > 0, got {min_rto_ns}")
        if init_rto_ns is not None and init_rto_ns <= 0:
            raise ValueError(f"init_rto_ns must be > 0, got {init_rto_ns}")
        self.min_rto_ns = min_rto_ns
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns = 0
        self.rto_ns = init_rto_ns if init_rto_ns is not None else min_rto_ns
        self._base_rto_ns = self.rto_ns
        self._backoff = 1
        # Lazy RTO timer: ``_rto_deadline`` is the authoritative expiry
        # (None = disarmed); ``_rto_tick_at`` is the fire time of the
        # earliest tick event in the heap (None = no tick in flight).
        # Re-arming just moves the deadline — the in-flight tick checks it
        # when it fires and reschedules itself — so the heap holds one
        # live entry per sender instead of one cancelled entry per ACK.
        self._rto_deadline: Optional[int] = None
        self._rto_tick_at: Optional[int] = None
        # once-per-window ECN reaction boundary (segment index)
        self._cut_end = 0
        # application pacing: an app-limited flow (e.g. the paper's
        # "500 Mbps TCP flow" in Fig. 5) releases data at this rate rather
        # than as fast as the window allows
        self.app_rate_bps = app_rate_bps
        # True while a token-release tick is in the heap; the tick checks
        # ``done`` at fire time, so completion never needs to cancel it.
        self._app_tick = False
        self._app_tokens = 1.0       # segments the app has made available
        self._app_refill_ns = 0      # last token refill time
        self._app_bucket = max(init_cwnd, 10.0)  # max burst (segments)
        self._app_hwm = 0            # highest segment ever sent (retx is free)
        # cwnd validation: only grow the window when it was actually the
        # limiting factor at the last send opportunity
        self._window_limited = True
        host.register_sender(flow.id, self)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Begin transmission (call at ``flow.start_ns``)."""
        self.flow.start_ns = self.sim.now
        self._app_refill_ns = self.sim.now
        self._send_window()

    def _complete(self) -> None:
        self.done = True
        self._disarm_rto()
        if self.on_done is not None:
            self.on_done(self)

    # -- transmit path -----------------------------------------------------

    def _send_window(self) -> None:
        wnd = int(self.cwnd)
        if wnd < 1:
            wnd = 1
        flow = self.flow
        paced = self.app_rate_bps is not None
        if paced:
            self._refill_app_tokens()
        app_starved = False
        while self.snd_nxt < flow.npkts and self.snd_nxt - self.snd_una < wnd:
            if paced and self.snd_nxt >= self._app_hwm:
                # new data consumes an app token; retransmitted ranges are
                # already-produced data and flow freely
                if self._app_tokens < 1.0:
                    app_starved = True
                    break
                self._app_tokens -= 1.0
                self._app_hwm = self.snd_nxt + 1
            self._transmit(self.snd_nxt)
            self.snd_nxt += 1
        self._window_limited = self.snd_nxt - self.snd_una >= wnd
        if app_starved and not self._app_tick:
            # wake when the next segment's worth of tokens has accrued
            deficit = 1.0 - self._app_tokens
            delay = int(deficit * MSS * 8 * SEC / self.app_rate_bps) + 1
            self._app_tick = True
            self.sim.schedule(delay, self._on_app_release)
        if self._rto_deadline is None and self.snd_una < flow.npkts:
            self._arm_rto()

    def _refill_app_tokens(self) -> None:
        now = self.sim.now
        elapsed = now - self._app_refill_ns
        if elapsed > 0:
            self._app_tokens = min(
                self._app_bucket,
                self._app_tokens + self.app_rate_bps * elapsed / (8 * MSS * SEC),
            )
        self._app_refill_ns = now

    def _on_app_release(self) -> None:
        self._app_tick = False
        if not self.done:
            self._send_window()

    def _transmit(self, seq: int, is_retx: bool = False) -> None:
        flow = self.flow
        dscp = self.tagger(flow, seq) if self.tagger is not None else flow.dscp
        pkt = make_data(
            flow.id,
            flow.src,
            flow.dst,
            seq,
            flow.payload_of(seq),
            ect=self.ecn_capable,
            dscp=dscp,
            ts=self.sim.now,
        )
        pkt.is_retx = is_retx
        if is_retx:
            self.stats.retx_pkts += 1
        self.host.send(pkt)

    # -- ACK path ------------------------------------------------------------

    def on_ack(self, pkt: Packet) -> None:
        if self.done:
            return
        self.stats.acks += 1
        if pkt.ece:
            self.stats.ecn_acks += 1
        ack = pkt.seq
        if ack > self.snd_una:
            self._on_new_ack(pkt, ack)
        elif ack == self.snd_una:
            self._on_dupack(pkt)
        # acks below snd_una are stale reordering; ignore

    def _on_new_ack(self, pkt: Packet, ack: int) -> None:
        if pkt.ts_echo:
            self._update_rtt(self.sim.now - pkt.ts_echo)
        newly = ack - self.snd_una
        self.snd_una = ack
        self.dupacks = 0
        self._backoff = 1
        self._on_ecn_feedback(pkt.ece, newly)
        if self.in_recovery:
            if ack > self.recover:
                self.in_recovery = False
            elif self.snd_una < self.flow.npkts:
                # NewReno partial ACK: the next hole is also lost.  (The
                # bound matters: the flow-completing ACK can itself be a
                # "partial" ACK of an over-estimated recover point, and
                # there is no segment past npkts-1 to retransmit.)
                self._transmit(self.snd_una, is_retx=True)
        if not self.in_recovery:
            self._grow_cwnd(newly)
        if self.snd_una >= self.flow.npkts:
            self._complete()
            return
        self._arm_rto()
        self._send_window()

    def _on_dupack(self, pkt: Packet) -> None:
        self._on_ecn_feedback(pkt.ece, 0)
        self.dupacks += 1
        if self.dupacks == 3 and not self.in_recovery:
            self.stats.fast_retransmits += 1
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.cwnd = self.ssthresh
            self._trace_cwnd("fast_retx")
            self.in_recovery = True
            self.recover = self.snd_nxt
            self._transmit(self.snd_una, is_retx=True)
            self._arm_rto()

    def _grow_cwnd(self, newly_acked: int) -> None:
        if not self._window_limited:
            return  # cwnd validation: the app, not the window, was limiting
        if self.cwnd < self.ssthresh:
            self.cwnd += newly_acked  # slow start
        else:
            self.cwnd += newly_acked / self.cwnd  # congestion avoidance
        if self.cwnd > self.max_cwnd:
            self.cwnd = self.max_cwnd

    # -- ECN hook --------------------------------------------------------------

    def _on_ecn_feedback(self, ece: bool, newly_acked: int) -> None:
        """Subclass hook, called on every ACK (including dupacks)."""

    def _trace_cwnd(self, reason: str) -> None:
        """Record a congestion-window cut into the attached tracer.

        Cuts (not per-ACK growth) are the signal worth a trace event:
        they are rare, and each one names the congestion response — ECN,
        fast retransmit, or timeout — the evaluation figures break out.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.cwnd(self.sim.now, self.flow.id, self.cwnd, reason)

    def _window_cut_allowed(self) -> bool:
        """At most one multiplicative cut per window of data."""
        return self.snd_una > self._cut_end

    def _register_window_cut(self) -> None:
        self._cut_end = self.snd_nxt

    # -- RTO ------------------------------------------------------------------

    def _update_rtt(self, sample_ns: int) -> None:
        if sample_ns <= 0:
            return
        if self.srtt_ns is None:
            self.srtt_ns = sample_ns
            self.rttvar_ns = sample_ns // 2
        else:
            delta = abs(self.srtt_ns - sample_ns)
            self.rttvar_ns = (3 * self.rttvar_ns + delta) // 4
            self.srtt_ns = (7 * self.srtt_ns + sample_ns) // 8
        rto = self.srtt_ns + 4 * self.rttvar_ns
        self._base_rto_ns = max(self.min_rto_ns, min(rto, MAX_RTO_NS))

    def _arm_rto(self) -> None:
        """(Re)start the retransmission timer: deadline = now + RTO.

        Called on every ACK, so it must be cheap: it updates the deadline
        integer and only touches the heap when no tick is in flight (or,
        rarely, when the new deadline is *earlier* than the in-flight tick
        — an RTO estimate that shrank below the outstanding tick).
        """
        self.rto_ns = rto_ns = min(self._base_rto_ns * self._backoff, MAX_RTO_NS)
        deadline = self.sim.now + rto_ns
        self._rto_deadline = deadline
        tick_at = self._rto_tick_at
        if tick_at is None or deadline < tick_at:
            self._rto_tick_at = deadline
            self.sim.schedule(rto_ns, self._rto_tick)

    def _disarm_rto(self) -> None:
        """Stop the timer; any in-flight tick self-cleans at fire time."""
        self._rto_deadline = None

    def _rto_tick(self) -> None:
        """Deadline check at tick time: expire, re-arm, or stand down.

        A tick that fires before the (since-moved) deadline re-schedules
        itself at the current deadline — unless an earlier tick is already
        in flight and owns that duty.  A tick firing with the timer
        disarmed (flow done, or everything ACKed) simply evaporates.
        """
        deadline = self._rto_deadline
        now = self.sim.now
        tick_at = self._rto_tick_at
        if deadline is None or self.done:
            if tick_at is not None and tick_at <= now:
                self._rto_tick_at = None
            return
        if now < deadline:
            if tick_at is None or tick_at <= now:
                self._rto_tick_at = deadline
                self.sim.schedule(deadline - now, self._rto_tick)
            return
        self._rto_tick_at = None
        self._on_timeout()

    def _on_timeout(self) -> None:
        if self.done:
            return
        self.stats.timeouts += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self._trace_cwnd("timeout")
        self.dupacks = 0
        self.in_recovery = False
        self.snd_nxt = self.snd_una  # go-back-N from the hole
        self._backoff = min(self._backoff * 2, 64)
        self._send_window()
        self._arm_rto()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} flow={self.flow.id} cwnd={self.cwnd:.1f} "
            f"una={self.snd_una}/{self.flow.npkts}>"
        )
