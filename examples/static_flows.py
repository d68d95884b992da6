#!/usr/bin/env python3
"""The static-flow experiment of §6.1.1 / Figure 5, built from the library
primitives directly (no harness) — a tour of the lower-level API.

Topology: 4 hosts on a 1 GbE switch running SP/WFQ with 3 queues.
 * queue 1 (strict high): one 500 Mbps application-limited flow,
 * queue 2: one greedy flow, started at t=1s,
 * queue 3: four greedy flows, started at t=2s,
plus a pinger measuring queue-3 RTT.

SP/WFQ policy says the goodputs must converge to 500 / 250 / 250 Mbps —
and under TCN they do, while RTT stays low.
"""

import statistics

from repro import (
    DctcpSender,
    Flow,
    GoodputTracker,
    Pinger,
    Receiver,
    Simulator,
    StarTopology,
    Tcn,
    WfqScheduler,
    make_queues,
    percentile,
)
from repro.units import GBPS, KB, MB, MBPS, MSEC, SEC, USEC


def main() -> None:
    sim = Simulator()
    topo = StarTopology(
        sim,
        n_hosts=4,
        link_rate_bps=GBPS,
        sched_factory=lambda: WfqScheduler(
            make_queues(3, quanta=[1500] * 3), n_high=1
        ),
        aqm_factory=lambda: Tcn(256 * USEC),   # RTT x lambda for the testbed
        buffer_bytes=96 * KB,
        link_delay_ns=62_500,                  # base RTT 250 us
    )

    tracker = GoodputTracker()

    def on_bytes(flow, nbytes, now):
        tracker.record(flow.service, nbytes, now)

    flow_id = 0
    for src, service, n_flows, start in (
        (0, 0, 1, 0),          # the 500 Mbps high-priority flow
        (1, 1, 1, 1 * SEC),    # one greedy flow in queue 2
        (2, 2, 4, 2 * SEC),    # four greedy flows in queue 3
    ):
        for _ in range(n_flows):
            flow_id += 1
            flow = Flow(flow_id, src, 3, 2000 * MB, service=service)
            Receiver(sim, topo.hosts[3], flow, on_bytes=on_bytes)
            sender = DctcpSender(
                sim,
                topo.hosts[src],
                flow,
                init_cwnd=10,
                app_rate_bps=500 * MBPS if service == 0 else None,
            )
            sim.schedule(start, sender.start)

    ping = Pinger(sim, topo.hosts[2], 3, flow_id=9999, dscp=2,
                  interval_ns=1 * MSEC)
    sim.schedule(2 * SEC + 100 * MSEC, ping.start)

    print("simulating 4 seconds...")
    sim.run(until=4 * SEC)

    print("\nsteady-state goodputs (t in [3s, 4s]):")
    for service in range(3):
        rate = tracker.goodput_bps(service, 3 * SEC, 4 * SEC)
        print(f"  queue {service + 1}: {rate / 1e6:7.1f} Mbps")

    rtts = ping.rtts_ns
    print("\nqueue-3 RTT under TCN:")
    print(f"  average: {statistics.mean(rtts) / 1000:.0f} us")
    print(f"  99th pct: {percentile(rtts, 99) / 1000:.0f} us")
    print("\n(SP/WFQ policy: 500 / 250 / 250 Mbps — preserved by TCN.)")


if __name__ == "__main__":
    main()
