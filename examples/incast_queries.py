#!/usr/bin/env python3
"""Partition-aggregate queries under incast — the paper's motivating
workload (§1), comparing burst tolerance across marking schemes.

An aggregator fans each query out to 16 workers; every worker answers with
64 KB simultaneously.  Query completion time (QCT) is bounded by the
slowest response, so a single switch-buffer overflow (and the 10 ms RTO it
causes) ruins the query.  TCN's instantaneous marking reins the responders
in within one RTT; queue-length RED with the standard threshold leaves the
shared buffer near-full and turns bursts into timeouts.

Usage:
    python examples/incast_queries.py [--workers N] [--queries N]
"""

import argparse
import statistics

from repro import (
    CoDel,
    DctcpSender,
    Flow,
    IncastApp,
    PerQueueRed,
    Receiver,
    Simulator,
    StarTopology,
    Tcn,
    percentile,
)
from repro.sched.fifo import FifoScheduler
from repro.units import GBPS, KB, MSEC, SEC, USEC

SCHEMES = {
    "tcn": lambda: Tcn(100 * USEC),
    "codel": lambda: CoDel(target_ns=20 * USEC, interval_ns=1 * MSEC),
    "red_std": lambda: PerQueueRed(125 * KB),
}


def run(scheme: str, n_workers: int, n_queries: int):
    sim = Simulator()
    topo = StarTopology(
        sim, n_workers + 1, 10 * GBPS,
        sched_factory=FifoScheduler,
        aqm_factory=SCHEMES[scheme],
        buffer_bytes=200 * KB,
        link_delay_ns=25_000,
    )
    # background elephants keep the shared buffer under pressure — the
    # regime where the marking scheme decides whether bursts survive
    for i in range(2):
        elephant = Flow(900_000 + i, 1 + i, 0, 4_000_000_000)
        Receiver(sim, topo.hosts[0], elephant)
        s = DctcpSender(sim, topo.hosts[1 + i], elephant,
                        init_cwnd=16, max_cwnd=400)
        sim.schedule(0, s.start)
    app = IncastApp(
        sim, topo.hosts[0], topo.hosts[1:],
        response_bytes=64 * KB,
        interval_ns=5 * MSEC,
        n_queries=n_queries,
        sender_cls=DctcpSender,
        init_cwnd=16,
        min_rto_ns=10 * MSEC,
        max_cwnd=400,
    )
    sim.schedule(1 * MSEC, app.start)
    # the elephants outlive the queries: stop once the last query is
    # answered, checking every 10 ms, within a 60 s cap
    deadline = 60 * SEC
    while app.completed < n_queries and sim.now < deadline:
        sim.run(until=min(sim.now + 10 * MSEC, deadline))
    qcts = sorted(app.qcts_ns())
    port = topo.port_to(0)
    return {
        "done": app.completed,
        "avg_us": statistics.mean(qcts) / 1000,
        "p99_us": percentile(qcts, 99) / 1000,
        "worst_us": qcts[-1] / 1000,
        "drops": port.stats.dropped_pkts,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=16)
    ap.add_argument("--queries", type=int, default=100)
    args = ap.parse_args()

    print(f"{args.workers}-way incast, 64 KB responses, "
          f"{args.queries} queries, 200 KB switch buffer\n")
    print(f"{'scheme':<9} {'avg QCT':>9} {'p99 QCT':>9} {'worst':>9} {'drops':>6}")
    print("-" * 48)
    for scheme in SCHEMES:
        r = run(scheme, args.workers, args.queries)
        print(f"{scheme:<9} {r['avg_us']:>7.0f}us {r['p99_us']:>7.0f}us "
              f"{r['worst_us']:>7.0f}us {r['drops']:>6}")


if __name__ == "__main__":
    main()
