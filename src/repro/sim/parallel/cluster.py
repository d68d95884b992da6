"""Drivers for the partitioned leaf-spine engine.

One partition per leaf pod, always — ``cfg.workers`` only chooses how
the fixed set of partitions is *hosted*:

* ``workers=1``: every partition lives in this process and the
  coordinator calls it directly.  No ``multiprocessing`` anywhere —
  the debuggable reference driver, and the scaling baseline.
* ``workers>=2``: partitions are spread round-robin over child
  processes (fork preferred, spawn-safe) and rounds travel over
  ``multiprocessing`` pipes.

Because the partitioning is fixed and the round protocol is a barrier,
the computation is *identical* for every worker count by construction —
only serial-vs-partitioned equivalence needs empirical pinning, which
``tests/test_parallel.py`` does with golden digests.

Construction mirrors :mod:`repro.harness.runner` deliberately: each
partition builds the **full** topology and flow list (both deterministic
functions of the config), then wires only the endpoints it owns — the
senders of flows sourced in its pod and the receivers of flows sinking
there.  Ownership of switch state follows traffic: a partition's leaf
and hosts, plus every spine replica's ``down`` port toward that leaf,
see exactly the packets the serial run would put through them; every
other replicated object stays idle at zero, which is what makes the
metric merge a plain sum.
"""

from __future__ import annotations

import os
import time
import traceback
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import multiprocessing

from repro.harness.config import ExperimentConfig
from repro.harness.runner import (
    _RUN_CHUNK_NS,
    ConnectionPool,
    ExperimentResult,
    _WarmStart,
    _build_flows,
    _build_tagger,
    _build_topology,
    _deadline_ns,
    _register_run_metrics,
    _switches_of,
)
from repro.harness.schemes import TRANSPORTS
from repro.metrics.fct import FctCollector
from repro.net.boundary import BoundaryMux, import_packet
from repro.net.link import Link
from repro.obs import MetricsRegistry, RssSampler, SpanRecorder, Tracer
from repro.obs.profile import _rss_high_water
from repro.obs.spans import round_merge_key, stall_table, wall_ns
from repro.sim.parallel.partition import Handoff, PartitionSimulator
from repro.sim.parallel.protocol import INF, ChunkSync, min_handoff_latency_ns
from repro.sim.rng import RngFactory
from repro.transport.receiver import Receiver
from repro.units import MSS, SEC

#: matches the literal in runner._build_topology — the propagation delay
#: of every leaf<->spine wire, and hence part of the lookahead
_FABRIC_DELAY_NS = 650

#: matches the small-flow cut in runner.run_experiment
_SMALL_CUT_BYTES = 100_000

#: per-partition round report:
#: ``(next_pending_ns_or_INF, outbox, completed_cum, executed_delta)``
Report = Tuple[int, List[Handoff], int, int]


# -- one partition --------------------------------------------------------


def _wire_partition_endpoints(
    sim: PartitionSimulator,
    cfg: ExperimentConfig,
    topo: Any,
    flows: List[Any],
    collector: FctCollector,
    tagger: Any,
    pid: int,
) -> List[Any]:
    """``runner._wire_endpoints`` with an ownership filter.

    Receivers go where the flow sinks, senders where it sources; a
    same-pod flow gets both (and never crosses a boundary).  The
    connection pool's state is keyed by ``(src, dst, k)`` with ``k``
    advanced per ``(src, dst)`` — all source-local — so a per-partition
    pool replays exactly the serial pool's decisions for owned flows.
    """
    sender_cls = TRANSPORTS[cfg.transport]
    hpl = cfg.hosts_per_leaf
    senders: List[Any] = []
    pool = (
        ConnectionPool(cfg.connections_per_pair, cfg.max_warm_cwnd)
        if cfg.persistent_connections
        else None
    )
    bdp_pkts = cfg.link_rate_bps * cfg.base_rtt_ns / (8 * MSS * SEC)
    max_cwnd = max(64.0, cfg.max_cwnd_bdp_factor * bdp_pkts)
    base_ns = sim.now
    starts = []
    for flow in flows:
        if flow.dst // hpl == pid:
            Receiver(
                sim, topo.hosts[flow.dst], flow,
                on_complete=collector.on_complete,
            )
        if flow.src // hpl == pid:
            sender = sender_cls(
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
            starts.append((flow.start_ns - base_ns, start_cb))
    sim.schedule_many(starts)
    return senders


class _Partition:
    """One leaf pod's sub-simulator plus its result-collection state.

    With ``spans_on`` the partition carries its own
    :class:`SpanRecorder` (pid label ``p<N>``) and stamps the round's
    merge / compute / serialize phases; its hosting worker adds the
    ``ipc_wait`` phase.  The recorder ships home with :meth:`final`.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        pid: int,
        trace_capacity: Optional[int],
        spans_on: bool = False,
    ) -> None:
        self.pid = pid
        sim = PartitionSimulator(pid, sanitize=cfg.sanitize or None)
        self.sim = sim
        rng = RngFactory(cfg.seed)
        topo = _build_topology(sim, cfg)
        flows = _build_flows(cfg, rng, topo)
        self.collector = FctCollector()
        tagger = _build_tagger(cfg)
        self.senders = _wire_partition_endpoints(
            sim, cfg, topo, flows, self.collector, tagger, pid
        )
        # Rewire this pod's uplinks to boundary muxes: the egress port
        # keeps its rate/pacing (partition-local state), but delivery
        # becomes an outbox handoff captured at schedule_tx.
        delay = topo.fabric_link_delay_ns
        for spine_id, up in enumerate(topo._uplinks[pid]):
            mux = BoundaryMux(spine_id, name=f"{up.name}:boundary")
            up.link = Link(mux, delay)
            sim.register_boundary(mux.receive, mux)
        # Stable bound methods for arrival insertion — one per spine
        # replica, mirroring the `dst.receive` the serial engine would
        # have scheduled.
        self._spine_rx = [spine.receive for spine in topo.spines]
        self.switches = _switches_of(topo)
        self.tracer: Optional[Tracer] = None
        if trace_capacity != 0:
            tracer = Tracer(capacity=trace_capacity)
            for sw in self.switches:
                for port in sw.ports:
                    port.tracer = tracer
            for sender in self.senders:
                sender.tracer = tracer
            self.tracer = tracer
        self.busy_s = 0.0
        self.spans: Optional[SpanRecorder] = (
            SpanRecorder(pid=f"p{pid}") if spans_on else None
        )
        self.rss = RssSampler()
        self._round = 0

    def initial_report(self) -> Report:
        peek = self.sim.peek_time()
        return (INF if peek is None else peek, [], 0, 0)

    def apply_and_run(self, horizon: int, handoffs: Sequence[Handoff]) -> Report:
        sim = self.sim
        spans = self.spans
        rnd = self._round
        self._round = rnd + 1
        spine_rx = self._spine_rx
        t_merge = wall_ns() if spans is not None else 0
        for rx, aseq, spine_id, fields in handoffs:
            sim.insert_arrival(rx, aseq, spine_rx[spine_id], import_packet(fields))
        if spans is not None:
            spans.add(
                "round", "merge", t_merge, wall_ns() - t_merge,
                tid="phases",
                args={"round": rnd, "handoffs": len(handoffs)},
            )
        t_compute = wall_ns() if spans is not None else 0
        # simlint: disable=SIM001 -- busy_s measures host runtime for the profile; it never feeds the simulation
        t0 = time.perf_counter()
        executed = sim.run(until=horizon)
        # simlint: disable=SIM001 -- closes the host-runtime measurement opened above; not simulation state
        self.busy_s += time.perf_counter() - t0
        if spans is not None:
            spans.add(
                "round", "compute", t_compute, wall_ns() - t_compute,
                tid="phases",
                args={
                    "round": rnd,
                    "horizon_ns": horizon,
                    "executed": executed,
                },
            )
        t_serialize = wall_ns() if spans is not None else 0
        peek = sim.peek_time()
        outbox = sim.drain_outbox()
        # round boundary: the only in-run RSS observation point in this
        # (possibly child) process — how short-lived worker peaks reach
        # the merged profile's rss_hwm_bytes
        self.rss.sample()
        if spans is not None:
            spans.add(
                "round", "serialize", t_serialize, wall_ns() - t_serialize,
                tid="phases",
                args={"round": rnd, "handoffs_out": len(outbox)},
            )
        return (
            INF if peek is None else peek,
            outbox,
            self.collector.count,
            executed,
        )

    def final(self) -> Dict[str, Any]:
        registry = MetricsRegistry()
        _register_run_metrics(registry, self.switches, self.collector, self.tracer)
        senders = self.senders
        tracer = self.tracer
        return {
            "fcts": [(f.id, f.fct_ns) for f in self.collector.flows],
            "timeouts": sum(s.stats.timeouts for s in senders),
            "timeouts_small": sum(
                s.stats.timeouts
                for s in senders
                if s.flow.size_bytes <= _SMALL_CUT_BYTES
            ),
            "drops": sum(sw.total_drops() for sw in self.switches),
            "marks": sum(sw.total_marks() for sw in self.switches),
            "metrics": registry.snapshot(),
            "trace": (
                (list(tracer.events), tracer.dropped_events)
                if tracer is not None
                else None
            ),
            "spans": (
                (list(self.spans.spans), self.spans.dropped_spans)
                if self.spans is not None
                else None
            ),
            "profile": {
                "pid": self.pid,
                "events": self.sim.events_executed,
                "heap_hwm": self.sim.heap_hwm,
                "busy_s": self.busy_s,
                # this process's peak: getrusage at completion, floored
                # by the in-run round-boundary samples
                "rss_hwm_bytes": max(_rss_high_water(), self.rss.hwm_bytes),
            },
        }


# -- worker hosting --------------------------------------------------------


class _InProcessWorkers:
    """All partitions in this process — ``workers=1`` and the fallback.

    No pipes, so no ``ipc_wait`` spans: the in-process timeline shows
    merge/compute/serialize only, which is the honest decomposition.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        pids: List[int],
        trace_capacity: Optional[int],
        spans_on: bool = False,
    ) -> None:
        self._parts = {
            pid: _Partition(cfg, pid, trace_capacity, spans_on)
            for pid in pids
        }
        self.stall_s = 0.0

    def initial_reports(self) -> Dict[int, Report]:
        return {pid: p.initial_report() for pid, p in self._parts.items()}

    def run_round(
        self, horizon: int, route: Dict[int, List[Handoff]]
    ) -> Dict[int, Report]:
        return {
            pid: part.apply_and_run(horizon, route.get(pid, ()))
            for pid, part in sorted(self._parts.items())
        }

    def finals(self) -> Dict[int, Dict[str, Any]]:
        return {pid: p.final() for pid, p in self._parts.items()}

    def close(self) -> None:
        pass


def _worker_main(
    conn: Any,
    cfg: ExperimentConfig,
    pids: List[int],
    trace_capacity: Optional[int],
    spans_on: bool = False,
) -> None:
    """Child-process loop: build partitions, then serve barrier rounds.

    Module-level (and fed only picklable arguments) so it bootstraps
    under every ``multiprocessing`` start method, including spawn.
    Replies are ``("ok", payload)`` or ``("error", traceback)``.

    With ``spans_on``, the blocking ``conn.recv()`` before each round is
    stamped as that round's ``ipc_wait`` phase onto every hosted
    partition's recorder — the time this worker's partitions sat idle
    at the barrier while the coordinator collected the other workers
    and computed the next horizon.
    """
    try:
        parts = {
            pid: _Partition(cfg, pid, trace_capacity, spans_on)
            for pid in pids
        }
        conn.send(("ok", {pid: p.initial_report() for pid, p in parts.items()}))
        rnd = 0
        while True:
            t_wait = wall_ns() if spans_on else 0
            msg = conn.recv()
            op = msg[0]
            if op == "run":
                if spans_on:
                    waited = wall_ns() - t_wait
                    for pid in pids:
                        part_spans = parts[pid].spans
                        assert part_spans is not None
                        part_spans.add(
                            "round", "ipc_wait", t_wait, waited,
                            tid="phases", args={"round": rnd},
                        )
                rnd += 1
                _, horizon, route = msg
                conn.send((
                    "ok",
                    {
                        pid: parts[pid].apply_and_run(horizon, route.get(pid, ()))
                        for pid in pids
                    },
                ))
            elif op == "final":
                conn.send(("ok", {pid: parts[pid].final() for pid in pids}))
            else:
                break
    except EOFError:
        pass
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        conn.close()


class _ProcessWorkers:
    """Partitions spread over child processes, rounds over pipes."""

    def __init__(
        self,
        cfg: ExperimentConfig,
        pids: List[int],
        trace_capacity: Optional[int],
        n_workers: int,
        start_method: str,
        spans: Optional[SpanRecorder] = None,
    ) -> None:
        ctx = multiprocessing.get_context(start_method)
        #: round-robin partition placement — any placement yields the
        #: same results (the round protocol is a barrier); round-robin
        #: just balances pod load
        self.pids_by_worker = [pids[w::n_workers] for w in range(n_workers)]
        self._conns = []
        self._procs = []
        self.stall_s = 0.0
        #: coordinator-side recorder: its ipc_wait spans decompose
        #: sync_stall_s per barrier (initial reports, each round, finals)
        self.spans = spans
        self._recv_calls = 0
        spans_on = spans is not None
        for worker_pids in self.pids_by_worker:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, cfg, worker_pids, trace_capacity, spans_on),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _recv_all(self) -> Dict[int, Any]:
        spans = self.spans
        t_wait = wall_ns() if spans is not None else 0
        out: Dict[int, Any] = {}
        for conn in self._conns:
            # simlint: disable=SIM001 -- sync_stall_s measures coordinator blocking (host runtime); never simulation state
            t0 = time.perf_counter()
            try:
                tag, payload = conn.recv()
            except EOFError:
                raise RuntimeError(
                    "parallel worker died without reporting an error "
                    "(see stderr for the child traceback)"
                ) from None
            # simlint: disable=SIM001 -- closes the stall measurement opened above
            self.stall_s += time.perf_counter() - t0
            if tag == "error":
                raise RuntimeError(f"parallel worker failed:\n{payload}")
            out.update(payload)
        if spans is not None:
            barrier = self._recv_calls
            self._recv_calls = barrier + 1
            spans.add(
                "round", "ipc_wait", t_wait, wall_ns() - t_wait,
                tid="coord",
                args={"barrier": barrier, "workers": len(self._conns)},
            )
        return out

    def initial_reports(self) -> Dict[int, Report]:
        return self._recv_all()

    def run_round(
        self, horizon: int, route: Dict[int, List[Handoff]]
    ) -> Dict[int, Report]:
        for conn, worker_pids in zip(self._conns, self.pids_by_worker):
            sub = {pid: route[pid] for pid in worker_pids if pid in route}
            conn.send(("run", horizon, sub))
        return self._recv_all()

    def finals(self) -> Dict[int, Dict[str, Any]]:
        for conn in self._conns:
            conn.send(("final",))
        return self._recv_all()

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (OSError, BrokenPipeError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive teardown
                proc.terminate()
                proc.join(timeout=5)


def _pick_start_method() -> Optional[str]:
    """Fork when the platform has it (cheap, shares the warm import
    state), else the first spawn-safe method — mirroring the sweep's
    preference order."""
    available = multiprocessing.get_all_start_methods()
    for method in ("fork", "forkserver", "spawn"):
        if method in available:
            return method
    return None


# -- the coordinator -------------------------------------------------------


def _digest_reports(
    reports: Dict[int, Report], hosts_per_leaf: int
) -> Tuple[int, int, Dict[int, List[Handoff]]]:
    """Fold a report set into ``(m̂, completed, route)``.

    ``m̂`` is the global minimum over every partition's next pending
    event *and* every undelivered handoff — exactly the set of events
    that can still fire — and the route maps each handoff to the
    partition owning its destination pod.  Pure: calling it twice on the
    same reports (the boundary check does) is safe.
    """
    m_hat = INF
    completed = 0
    route: Dict[int, List[Handoff]] = {}
    for pid in sorted(reports):
        peek, outbox, done, _executed = reports[pid]
        if peek < m_hat:
            m_hat = peek
        completed += done
        for rec in outbox:
            if rec[0] < m_hat:
                m_hat = rec[0]
            # fields[2] is the packet's destination host
            route.setdefault(rec[3][2] // hosts_per_leaf, []).append(rec)
    return m_hat, completed, route


def run_parallel_experiment(
    cfg: ExperimentConfig,
    tracer: Optional[Tracer] = None,
    spans: Optional[SpanRecorder] = None,
) -> ExperimentResult:
    """Run one experiment on the partitioned engine.

    Drop-in for :func:`repro.harness.runner.run_experiment` when
    ``cfg.workers >= 1`` (leafspine only — ``cfg.validate`` enforces).
    The returned result carries the flows with their completion state,
    the merged metrics/trace, the summed event count, and a profile dict
    that is a superset of ``RunProfile.as_dict()`` (extra keys:
    ``workers``, ``start_method``, ``partitions``, ``rounds``,
    ``sync_stall_s``, ``cpu_count``, ``per_partition``, and — when the
    flight recorder is on — ``phase_stats``, the stall-attribution
    table from :func:`repro.obs.spans.stall_table`).

    With a :class:`SpanRecorder`, every partition stamps its round
    phases (merge/compute/serialize, plus ipc_wait from its hosting
    worker), the coordinator stamps per-round ``sync`` spans and its own
    pipe waits, and the per-partition recorders are merged into ``spans``
    in pid order after the coordinator's own spans — a deterministic
    order, so the deterministic JSONL export is byte-identical across
    same-seed runs at any worker count.

    Caveat vs. the serial runner: sender-side ``Flow`` mutations stay in
    the worker partitions — the parent's flow objects carry generator
    state plus ``completed``/``fct_ns``, which is everything the FCT
    summary, digests and sweep payloads consume.
    """
    cfg.validate()
    n_parts = cfg.n_leaf
    requested = max(1, cfg.workers)
    n_workers = min(requested, n_parts)
    # simlint: disable=SIM001 -- wall_s measures host runtime for the profile; it never feeds the simulation
    wall_start = time.time()

    # Parent-side replica of the deterministic inputs: the flow list (for
    # result.flows and the deadline) needs only the host count.
    flows = _build_flows(
        cfg,
        RngFactory(cfg.seed),
        SimpleNamespace(n_hosts=cfg.n_leaf * cfg.hosts_per_leaf),
    )
    deadline = _deadline_ns(cfg, flows)
    lookahead = min_handoff_latency_ns(cfg.link_rate_bps, _FABRIC_DELAY_NS)
    sync = ChunkSync(deadline, lookahead, len(flows), _RUN_CHUNK_NS)

    traced = tracer is not None and tracer.enabled
    trace_capacity: Optional[int] = tracer.capacity if traced else 0
    spans_on = spans is not None and spans.enabled
    coord_spans: Optional[SpanRecorder] = None
    if spans_on:
        assert spans is not None
        # coordinator spans get their own pid track; merged into the
        # caller's recorder (before the partitions) at the end
        coord_spans = SpanRecorder(capacity=spans.capacity, pid="coord")

    pids = list(range(n_parts))
    start_method: Optional[str] = None
    if n_workers >= 2:
        start_method = _pick_start_method()
    backend: Any
    if start_method is None:
        # workers=1, or no multiprocessing start method on this platform
        # (results are identical either way; only wall time differs —
        # the profile records how the run was actually hosted)
        n_workers = 1
        backend = _InProcessWorkers(cfg, pids, trace_capacity, spans_on)
    else:
        backend = _ProcessWorkers(
            cfg, pids, trace_capacity, n_workers, start_method,
            spans=coord_spans,
        )

    rounds = 0
    total_events = 0
    hpl = cfg.hosts_per_leaf
    try:
        reports = backend.initial_reports()
        while True:
            m_hat, _completed, route = _digest_reports(reports, hpl)
            horizon = sync.horizon(m_hat)
            t_round = wall_ns() if coord_spans is not None else 0
            reports = backend.run_round(horizon, route)
            if coord_spans is not None:
                coord_spans.add(
                    "sync", "round", t_round, wall_ns() - t_round,
                    tid="rounds",
                    args={
                        "round": rounds,
                        "horizon_ns": horizon,
                        # INF means "no pending event anywhere" — exported
                        # as -1 to keep the JSON readable
                        "m_hat_ns": -1 if m_hat == INF else m_hat,
                        "handoffs": sum(len(h) for h in route.values()),
                    },
                )
            rounds += 1
            total_events += sum(r[3] for r in reports.values())
            if sync.at_boundary(horizon):
                m_post, completed, _ = _digest_reports(reports, hpl)
                if sync.on_boundary(m_post, completed):
                    break
        finals = backend.finals()
        stall_s = backend.stall_s
    finally:
        backend.close()
    # simlint: disable=SIM001 -- closes the host-runtime measurement opened above; not simulation state
    wall_s = time.time() - wall_start

    return _merge_results(
        cfg=cfg,
        flows=flows,
        finals=finals,
        sync=sync,
        total_events=total_events,
        wall_s=wall_s,
        tracer=tracer if traced else None,
        n_workers=n_workers,
        start_method=start_method,
        rounds=rounds,
        stall_s=stall_s,
        spans=spans if spans_on else None,
        coord_spans=coord_spans,
    )


# -- result merge ----------------------------------------------------------


def _merge_metrics(
    snapshots: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Union per-partition registry snapshots into one.

    Every simulated object is uniquely owned by one partition, so for
    any metric name at most one snapshot carries a non-trivial value and
    the rest report the registered-but-idle replica: plain counters sum
    (idle replicas contribute zero), ``*.max_bytes_seen`` gauges take
    the max (same result, but max is the gauge's own semantic), and
    histograms combine bucket-wise.
    """
    out: Dict[str, Any] = {}
    for snap in snapshots:
        for name, val in snap.items():
            cur = out.get(name)
            if isinstance(val, dict):  # histogram snapshot
                if cur is None:
                    merged = dict(val)
                    merged["buckets"] = dict(val["buckets"])
                    out[name] = merged
                    continue
                cur["count"] += val["count"]
                cur["sum"] += val["sum"]
                for bound in ("min", "max"):
                    a, b = cur[bound], val[bound]
                    if b is not None:
                        pick = min if bound == "min" else max
                        cur[bound] = b if a is None else pick(a, b)
                buckets = cur["buckets"]
                for idx, n in val["buckets"].items():
                    buckets[idx] = buckets.get(idx, 0) + n
            elif cur is None:
                out[name] = val
            elif name.endswith("max_bytes_seen"):
                out[name] = max(cur, val)
            else:
                out[name] = cur + val
    return dict(sorted(out.items()))


def _merge_results(
    cfg: ExperimentConfig,
    flows: List[Any],
    finals: Dict[int, Dict[str, Any]],
    sync: ChunkSync,
    total_events: int,
    wall_s: float,
    tracer: Optional[Tracer],
    n_workers: int,
    start_method: Optional[str],
    rounds: int,
    stall_s: float,
    spans: Optional[SpanRecorder] = None,
    coord_spans: Optional[SpanRecorder] = None,
) -> ExperimentResult:
    order = sorted(finals)
    collector = FctCollector()
    by_id = {f.id: f for f in flows}
    for pid in order:
        for fid, fct in finals[pid]["fcts"]:
            flow = by_id[fid]
            flow.completed = True
            flow.fct_ns = fct
            collector.on_complete(flow)

    metrics = _merge_metrics([finals[pid]["metrics"] for pid in order])

    if tracer is not None:
        merged: List[Tuple[Any, ...]] = []
        dropped = 0
        for pid in order:
            part_trace = finals[pid]["trace"]
            if part_trace is not None:
                merged.extend(part_trace[0])
                dropped += part_trace[1]
        # stable sort by timestamp: same-time events stay grouped by
        # (partition, local order) — deterministic, though not the
        # serial interleaving (compare digests on *sorted* lines)
        merged.sort(key=lambda e: e[1])
        cap = tracer.capacity
        if cap is not None:
            overflow = len(tracer.events) + len(merged) - cap
            if overflow > 0:
                dropped += overflow
        tracer.events.extend(merged)
        tracer.dropped_events += dropped

    if spans is not None:
        # deterministic per-round interleave: collect the coordinator's
        # ring and every partition's ring (they travel home inside the
        # final reports), then sort by (round, pid, phase).  Sorting by
        # round — never wall time — keeps the export order a pure
        # function of the run, and means the caller's bounded ring
        # evicts the *oldest rounds uniformly across partitions* rather
        # than silently discarding whole partitions.
        merged_spans: List[Any] = []
        dropped_spans = 0
        if coord_spans is not None and coord_spans is not spans:
            merged_spans.extend(coord_spans.spans)
            dropped_spans += coord_spans.dropped_spans
        for pid in order:
            shipped = finals[pid].get("spans")
            if shipped is not None:
                merged_spans.extend(shipped[0])
                dropped_spans += shipped[1]
        merged_spans.sort(key=round_merge_key)
        spans.adopt(merged_spans, dropped_spans)

    per_partition = [finals[pid]["profile"] for pid in order]
    part_events = sum(p["events"] for p in per_partition)
    if part_events != total_events:  # pragma: no cover - protocol guard
        raise RuntimeError(
            f"event accounting mismatch: rounds summed {total_events}, "
            f"partitions report {part_events}"
        )
    profile: Dict[str, object] = {
        "events": total_events,
        "heap_hwm": max((p["heap_hwm"] for p in per_partition), default=0),
        "wall_s": wall_s,
        "events_per_sec": total_events / wall_s if wall_s > 0 else 0.0,
        # the parent's own peak, floored by every partition process's
        # peak (getrusage + in-run round-boundary samples) — this is
        # what makes short-lived worker peaks visible
        "rss_hwm_bytes": max(
            _rss_high_water(),
            max(
                (p.get("rss_hwm_bytes", 0) for p in per_partition),
                default=0,
            ),
        ),
        "workers": n_workers,
        "start_method": start_method or "in-process",
        "partitions": cfg.n_leaf,
        "rounds": rounds,
        "sync_stall_s": stall_s,
        "cpu_count": os.cpu_count() or 1,
        "per_partition": per_partition,
    }
    if spans is not None:
        phase_stats = stall_table(spans.iter_dicts())
        if phase_stats is not None:
            profile["phase_stats"] = phase_stats
    return ExperimentResult(
        config=cfg,
        summary=collector.summarize(),
        completed=collector.count,
        total=len(flows),
        timeouts=sum(finals[pid]["timeouts"] for pid in order),
        timeouts_small=sum(finals[pid]["timeouts_small"] for pid in order),
        drops=sum(finals[pid]["drops"] for pid in order),
        marks=sum(finals[pid]["marks"] for pid in order),
        sim_ns=sync.sim_ns,
        wall_s=wall_s,
        events=total_events,
        flows=flows,
        metrics=metrics,
        profile=profile,
    )
