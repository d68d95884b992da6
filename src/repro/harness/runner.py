"""Build a configured experiment, run it, and collect results.

The runner reproduces the paper's two experiment shapes end to end:

* **star / many-to-one** (§6.1.2-6.1.3): one client host fetches flows from
  the remaining hosts; the switch port toward the client is the bottleneck.
* **leafspine / all-to-all** (§6.2): every host exchanges flows with every
  other; services partition the communication pairs, each with its own
  workload when ``workload == "mixed"``.

Results carry the paper's FCT statistics plus the packet-level counters
(drops, marks, TCP timeouts — including timeouts suffered by small flows,
which §6.2.1 reports explicitly).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.harness.config import ExperimentConfig
from repro.harness.schemes import resolve
from repro.metrics.fct import SMALL_MAX_BYTES, FctCollector, FctSummary
from repro.net.packet import freelist_stats
from repro.obs.histogram import Histogram
from repro.obs.profile import RunProfile, current_rss_bytes
from repro.pias.tagger import PiasTagger
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.transport.base import SenderBase
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver
from repro.units import MSEC, MSS, SEC
from repro.workloads.distributions import ALL_WORKLOADS, workload_by_name
from repro.workloads.generator import FlowGenerator

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.obs.spans import SpanRecorder
    from repro.obs.trace import Tracer

_RUN_CHUNK_NS = 50 * MSEC


@dataclass
class ExperimentResult:
    """Everything a bench or example needs from one run."""

    config: ExperimentConfig
    summary: FctSummary
    completed: int
    total: int
    timeouts: int
    timeouts_small: int
    drops: int
    marks: int
    sim_ns: int
    wall_s: float
    events: int = 0
    flows: List[Flow] = field(repr=False, default_factory=list)
    #: the run's metrics, sorted by name — per-port / per-queue counters
    #: plus FCT (and, when traced, sojourn) histogram snapshots.  Every
    #: value is derived from simulated state, so it is deterministic.
    metrics: Dict[str, object] = field(repr=False, default_factory=dict)
    #: RunProfile.as_dict() — events, heap high-water mark, wall time,
    #: RSS high-water mark and fluid counters.  Wall-clock derived, hence *not* deterministic (kept out of sweep
    #: cache payloads).
    profile: Dict[str, object] = field(repr=False, default_factory=dict)

    @property
    def all_completed(self) -> bool:
        return self.completed == self.total


def run_experiment(
    cfg: ExperimentConfig,
    tracer: Optional[Tracer] = None,
    spans: Optional[SpanRecorder] = None,
) -> ExperimentResult:
    """Run one configured experiment to completion.

    Pass a :class:`repro.obs.Tracer` to record the packet lifecycle on
    every switch port and the control-law updates of every sender.
    Tracing never changes the simulation (hook points only *read* state),
    so a traced run produces the same :class:`ExperimentResult` as an
    untraced one — modulo the trace-derived sojourn histogram in
    ``metrics`` — which ``tests/test_trace_determinism.py`` asserts.

    Pass a :class:`repro.obs.SpanRecorder` to additionally record the
    harness-side flight recorder: one span per ``Simulator.run`` chunk
    (the GC-paused window, with freelist deltas).
    Spans are pure observation too — ``tests/test_spans.py`` pins a
    spans-on run to the spans-off golden results.
    """
    cfg.validate()
    parts = resolve(cfg)
    sim = Simulator()
    rng = RngFactory(cfg.seed)
    topo = parts.topology(sim)
    flows = _build_flows(cfg, rng, topo)
    collector = FctCollector()
    tagger = _build_tagger(cfg)
    # mode dispatch: promoted flows never get senders/receivers — they
    # live as rates in the fluid engine and complete into the same
    # collector; `flows` (and the completion condition below) still
    # cover both populations
    fluid = parts.fluid
    packet_flows, fluid_flows = (
        fluid.split_flows(cfg, flows) if fluid is not None else (flows, [])
    )
    senders = _wire_endpoints(
        sim, cfg, topo, packet_flows, collector, tagger, parts.sender
    )
    fluid_net = None
    if fluid is not None and fluid_flows:
        fluid_net = fluid.build_fluid_network(
            sim,
            cfg,
            topo,
            fluid_flows,
            collector,
            spans=spans,
            hybrid=bool(packet_flows),
        )
        fluid_net.on_start()
    if tracer is not None:
        # Switch egress ports carry the AQM/scheduler behaviour under
        # study; host NIC ports stay untraced to bound trace volume.
        for sw in topo.switches:
            for port in sw.ports:
                port.tracer = tracer
        for sender in senders:
            sender.tracer = tracer

    wall_start = time.time()
    deadline = _deadline_ns(cfg, flows)
    events = 0
    # run-loop-only wall clock: RunProfile's ev/s divides by time spent
    # *dispatching events*, not topology build or per-chunk bookkeeping —
    # otherwise short runs under-report throughput by the setup cost
    run_loop_s = 0.0
    spans_on = spans is not None
    chunk_idx = 0
    prev_alloc = prev_reuse = 0
    if spans_on:
        from repro.obs.spans import wall_ns

        prev_alloc, prev_reuse, _free = freelist_stats()
    while collector.count < len(flows) and sim.now < deadline:
        sim_from = sim.now
        t0 = wall_ns() if spans_on else 0
        rt0 = time.perf_counter()
        executed = sim.run(until=min(sim.now + _RUN_CHUNK_NS, deadline))
        run_loop_s += time.perf_counter() - rt0
        events += executed
        if spans_on:
            dur = wall_ns() - t0
            assert spans is not None
            args: Dict[str, object] = {
                "chunk": chunk_idx,
                "sim_from_ns": sim_from,
                "sim_to_ns": sim.now,
                "events": executed,
                # Simulator.run disables GC for the whole chunk, so this
                # span is also the GC-pause window
                "gc_paused": True,
            }
            alloc, reuse, _free = freelist_stats()
            if alloc - prev_alloc:
                args["freelist_allocated"] = alloc - prev_alloc
            if reuse - prev_reuse:
                args["freelist_reused"] = reuse - prev_reuse
            prev_alloc, prev_reuse = alloc, reuse
            rss = current_rss_bytes()
            if rss:
                args["rss_bytes"] = rss
            spans.add("engine", "chunk", t0, dur, tid="sim", args=args)
        chunk_idx += 1
        if sim.idle:
            # The event heap is drained: with no timer or transfer pending,
            # no flow can ever complete, so chunking on toward the deadline
            # would just busy-spin.  Return with completed < total.
            break
    wall_s = time.time() - wall_start

    timeouts_small = sum(
        s.stats.timeouts for s in senders
        if s.flow.size_bytes <= SMALL_MAX_BYTES
    )
    return ExperimentResult(
        config=cfg,
        summary=collector.summarize(),
        completed=collector.count,
        total=len(flows),
        timeouts=sum(s.stats.timeouts for s in senders),
        timeouts_small=timeouts_small,
        drops=sum(sw.total_drops() for sw in topo.switches),
        marks=sum(sw.total_marks() for sw in topo.switches),
        sim_ns=sim.now,
        wall_s=wall_s,
        events=events,
        flows=flows,
        metrics=_run_metrics(topo.switches, collector, tracer),
        profile=RunProfile.capture(
            sim,
            run_loop_s,
            fluid_stats=fluid_net.stats_dict() if fluid_net else None,
        ).as_dict(),
    )


_PORT_FIELDS = (
    "rx_pkts", "rx_bytes", "tx_pkts", "tx_bytes",
    "marked_pkts", "dropped_pkts", "dropped_bytes",
)
_QUEUE_FIELDS = (
    "enqueued_pkts", "dequeued_pkts", "marked_pkts", "dropped_pkts",
    "max_bytes_seen",
)


def _run_metrics(
    switches: List, collector: FctCollector, tracer: Optional[Tracer]
) -> Dict[str, object]:
    """The run's metrics dict, read from final simulated state.

    Names follow ``port.<name>.<field>`` / ``port.<name>.q<i>.<field>``
    so :func:`repro.harness.report.format_port_breakdown` can group them.
    """
    metrics: Dict[str, object] = {}
    for sw in switches:
        for port in sw.ports:
            prefix = f"port.{port.name}"
            for fld in _PORT_FIELDS:
                metrics[f"{prefix}.{fld}"] = getattr(port.stats, fld)
            for i, q in enumerate(port.scheduler.queues):
                for fld in _QUEUE_FIELDS:
                    metrics[f"{prefix}.q{i}.{fld}"] = getattr(q, fld)
    fct = Histogram("fct_ns")
    for flow in collector.flows:
        fct.record(flow.fct_ns)
    metrics["fct_ns"] = fct.snapshot()
    if tracer is not None:
        sojourn = Histogram("trace.sojourn_ns")
        for event in tracer.records:
            if event[0] == "deq":
                sojourn.record(event[7])
        metrics["trace.sojourn_ns"] = sojourn.snapshot()
    return dict(sorted(metrics.items()))


def preflight(cfg: ExperimentConfig) -> None:
    """Raise the ``ValueError`` a run of ``cfg`` would raise before its
    first event, and run nothing.

    :meth:`ExperimentConfig.validate` holds only the rules no component
    can check alone; every other check lives in the constructor that
    reads the field.  So this builds the run itself (topology, one flow,
    its endpoints) on a throwaway simulator.  A sweep calls it for every
    config it will run before it starts any job.
    """
    cfg.validate()
    parts = resolve(cfg)
    sim = Simulator(sanitize=False)
    topo = parts.topology(sim)
    flows = _build_flows(replace(cfg, n_flows=1), RngFactory(cfg.seed), topo)
    _wire_endpoints(
        sim, cfg, topo, flows, FctCollector(), _build_tagger(cfg), parts.sender
    )


# -- builders ------------------------------------------------------------


def _build_flows(
    cfg: ExperimentConfig, rng: RngFactory, topo
) -> List[Flow]:
    gen = FlowGenerator(rng)
    n_services = cfg.n_services

    def prepare(cdf):
        if cfg.workload_clip_bytes is not None:
            return cdf.truncated(cfg.workload_clip_bytes)
        return cdf

    if cfg.topology == "star":
        cdf = prepare(workload_by_name(cfg.workload))
        flows = gen.many_to_one(
            senders=list(range(1, cfg.n_hosts)),
            receiver=0,
            cdf=cdf,
            load=cfg.load,
            link_rate_bps=cfg.link_rate_bps,
            n_flows=cfg.n_flows,
            n_services=n_services,
        )
    else:
        if cfg.workload == "mixed":
            cdfs = [
                prepare(ALL_WORKLOADS[i % len(ALL_WORKLOADS)])
                for i in range(n_services)
            ]
        else:
            cdfs = [prepare(workload_by_name(cfg.workload))] * n_services
        flows = gen.all_to_all(
            hosts=list(range(topo.n_hosts)),
            cdfs=cdfs,
            load=cfg.load,
            edge_rate_bps=cfg.link_rate_bps,
            n_flows=cfg.n_flows,
        )
    if not cfg.pias:
        # Map services past any strict-priority queues so high-priority
        # queues stay reserved (they are only used with PIAS tagging).
        offset = cfg.n_high if cfg.scheduler.startswith("sp_") else 0
        for flow in flows:
            flow.dscp = offset + flow.service
    return flows


def _build_tagger(cfg: ExperimentConfig) -> Optional[PiasTagger]:
    if not cfg.pias:
        return None
    # the paper's 100 KB demotion threshold is the tagger's default
    return PiasTagger(high_dscp=0, service_dscp_offset=cfg.n_high)


class ConnectionPool:
    """Warm-window reuse over persistent connections (§5).

    The testbed client multiplexes messages over ``per_pair`` persistent
    TCP connections per host pair (5 in §5); a message starting on a warm
    connection inherits the connection's converged congestion window (and
    is already past slow start).  The pool keys connections by (src, dst,
    k) with k assigned round-robin, remembers each connection's cwnd at
    message completion, and hands it to the next message on that
    connection.
    """

    def __init__(self, max_cwnd: float, per_pair: int = 5) -> None:
        self.per_pair = per_pair
        self.max_cwnd = max_cwnd
        self._cwnd: Dict[tuple, float] = {}
        self._next_k: Dict[tuple, int] = {}

    def checkout(self, src: int, dst: int) -> tuple:
        """Pick the connection for a new message: (key, warm cwnd or None)."""
        pair = (src, dst)
        k = self._next_k.get(pair, 0)
        self._next_k[pair] = (k + 1) % self.per_pair
        key = (src, dst, k)
        return key, self._cwnd.get(key)

    def release(self, key: tuple, cwnd: float) -> None:
        self._cwnd[key] = min(cwnd, self.max_cwnd)


def _wire_endpoints(
    sim: Simulator,
    cfg: ExperimentConfig,
    topo,
    flows: List[Flow],
    collector: FctCollector,
    tagger: Optional[PiasTagger],
    make_sender: Callable[..., SenderBase],
) -> List[SenderBase]:
    senders: List[SenderBase] = []
    pool = (
        ConnectionPool(cfg.max_warm_cwnd)
        if cfg.persistent_connections
        else None
    )
    bdp_pkts = cfg.link_rate_bps * cfg.base_rtt_ns / (8 * MSS * SEC)
    max_cwnd = max(64.0, cfg.max_cwnd_bdp_factor * bdp_pkts)
    base_ns = sim.now
    for flow in flows:
        Receiver(sim, topo.hosts[flow.dst], flow, on_complete=collector.on_complete)
        sender = make_sender(
            sim,
            topo.hosts[flow.src],
            flow,
            init_cwnd=cfg.init_cwnd,
            min_rto_ns=cfg.min_rto_ns,
            init_rto_ns=cfg.min_rto_ns,
            tagger=tagger,
            max_cwnd=max_cwnd,
        )
        senders.append(sender)
        start_cb = sender.start if pool is None else _WarmStart(pool, sender)
        sim.schedule(flow.start_ns - base_ns, start_cb)
    return senders


class _WarmStart:
    """Defer the warm-window checkout to the flow's actual start time."""

    __slots__ = ("pool", "sender")

    def __init__(self, pool: ConnectionPool, sender: SenderBase) -> None:
        self.pool = pool
        self.sender = sender

    def __call__(self) -> None:
        sender = self.sender
        key, warm = self.pool.checkout(sender.flow.src, sender.flow.dst)
        if warm is not None:
            sender.cwnd = warm
            # a warm connection is past slow start: continue in avoidance
            sender.ssthresh = max(warm, 2.0)
        pool = self.pool
        prev_done = sender.on_done

        def record_and_chain(s: SenderBase) -> None:
            pool.release(key, s.cwnd)
            if prev_done is not None:
                prev_done(s)

        sender.on_done = record_and_chain
        sender.start()


def _deadline_ns(cfg: ExperimentConfig, flows: List[Flow]) -> int:
    if cfg.max_sim_ns:
        return cfg.max_sim_ns
    last_arrival = max(f.start_ns for f in flows)
    # generous drain allowance: the whole workload again, plus 2 s of slack
    deadline = last_arrival * 3 + 2 * SEC
    if cfg.mode != "packet":
        # Fluid scenarios are chosen *because* their transfers outlast
        # the arrival window (a 25 MB flow at a contended 1 Gbps share
        # drains for seconds); bound the tail by the time the whole
        # promoted volume would take serialized through one edge link,
        # with the same generosity factor.  Epochs make the extra
        # simulated time nearly free.
        promoted = sum(
            f.size_bytes for f in flows if f.size_bytes >= cfg.fluid_size_bytes
        )
        deadline += 4 * promoted * 8 * SEC // cfg.link_rate_bps
    return deadline
