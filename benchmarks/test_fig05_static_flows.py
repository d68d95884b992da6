"""Figure 5: static flows under SP/WFQ — policy preservation and RTT.

Paper setup: SP/WFQ with 3 queues (q1 strict high, q2/q3 equal-weight),
DCTCP; a 500 Mbps app-limited flow in q1, one greedy flow in q2, four in
q3.  Expected goodputs 500/250/250 Mbps under any correct scheme.  Ping
through q3 measures RTT: TCN ~ ideal ECN/RED ~ CoDel, all far below
per-queue ECN/RED with the standard threshold (paper: 415 us vs 1084 us
average — 61.7% lower; 582 vs 1400 us at the 99th — 58.4% lower).
"""

import statistics

from repro.aqm.codel import CoDel
from repro.aqm.perqueue import PerQueueRed
from repro.apps.pinger import Pinger
from repro.core.tcn import Tcn
from repro.metrics.fct import percentile
from repro.metrics.timeseries import GoodputTracker
from repro.sched.base import make_queues
from repro.sched.wfq import WfqScheduler
from repro.sim.engine import Simulator
from repro.topo.star import StarTopology
from repro.transport.dctcp import DctcpSender
from repro.transport.flow import Flow
from repro.transport.receiver import Receiver
from repro.units import GBPS, KB, MB, MBPS, MSEC, SEC, USEC

from benchmarks.benchlib import save_results
from repro.harness.report import format_table

SCHEMES = {
    "tcn": lambda: Tcn(256 * USEC),
    "red_std": lambda: PerQueueRed(32 * KB),
    # the "ideal" oracle: q2/q3 each own 250 Mbps -> K_i = 8 KB
    "ideal": lambda: PerQueueRed([32 * KB, 8 * KB, 8 * KB]),
    "codel": lambda: CoDel(target_ns=51_200, interval_ns=1_024_000),
}

PAPER_RTT_US = {"tcn": (415, 582), "red_std": (1084, 1400)}


def _run(scheme: str):
    sim = Simulator()
    topo = StarTopology(
        sim, 4, GBPS,
        sched_factory=lambda: WfqScheduler(
            make_queues(3, quanta=[1500] * 3), n_high=1
        ),
        aqm_factory=SCHEMES[scheme],
        buffer_bytes=96 * KB,
        link_delay_ns=62_500,
    )
    tracker = GoodputTracker()
    on_bytes = lambda f, b, t: tracker.record(f.service, b, t)  # noqa: E731
    fid = 0
    for src, svc, n, start in ((0, 0, 1, 0), (1, 1, 1, SEC), (2, 2, 4, 2 * SEC)):
        for _ in range(n):
            fid += 1
            f = Flow(fid, src, 3, 2000 * MB, service=svc)
            Receiver(sim, topo.hosts[3], f, on_bytes=on_bytes)
            s = DctcpSender(
                sim, topo.hosts[src], f, init_cwnd=10,
                app_rate_bps=500 * MBPS if svc == 0 else None,
            )
            sim.schedule(start, s.start)
    ping = Pinger(sim, topo.hosts[2], 3, flow_id=9999, dscp=2,
                  interval_ns=1 * MSEC)
    sim.schedule(2 * SEC + 100 * MSEC, ping.start)
    sim.run(until=5 * SEC)
    goodputs = [tracker.goodput_bps(s, 3 * SEC, 5 * SEC) / 1e6 for s in range(3)]
    rtts = ping.rtts_ns
    return goodputs, (
        statistics.mean(rtts) / 1000, percentile(rtts, 99) / 1000
    )


def test_fig05(benchmark):
    out = {}

    def workload():
        for scheme in SCHEMES:
            out[scheme] = _run(scheme)

    benchmark.pedantic(workload, rounds=1, iterations=1)

    rows = []
    for scheme, (g, (avg, p99)) in out.items():
        paper = PAPER_RTT_US.get(scheme)
        rows.append([
            scheme,
            f"{g[0]:.0f}/{g[1]:.0f}/{g[2]:.0f}",
            f"{paper[0]}/{paper[1]}" if paper else "-",
            f"{avg:.0f}/{p99:.0f}",
        ])
    table = format_table(
        ["scheme", "goodputs q1/q2/q3 (Mbps)", "paper RTT avg/p99 (us)",
         "measured RTT avg/p99 (us)"],
        rows,
    )
    save_results("fig05_static_flows", "Figure 5 (SP/WFQ static flows)\n" + table)

    # 5(a): every scheme preserves SP/WFQ's 500/250/250 split
    for scheme, (g, _) in out.items():
        assert abs(g[0] - 500) < 35, (scheme, g)
        assert abs(g[1] - g[2]) < 40, (scheme, g)
    # 5(b): TCN's RTT far below per-queue standard; close to ideal & CoDel
    tcn_avg = out["tcn"][1][0]
    red_avg = out["red_std"][1][0]
    ideal_avg = out["ideal"][1][0]
    assert red_avg > 1.8 * tcn_avg, "TCN must cut RTT vs standard threshold"
    assert tcn_avg < 1.5 * ideal_avg, "TCN should be near the oracle"
    assert out["tcn"][1][1] < out["red_std"][1][1], "99th percentile too"
