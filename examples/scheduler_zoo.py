#!/usr/bin/env python3
"""One TCN threshold, every scheduler — the paper's central claim.

Runs the same two-service contention pattern (1 flow vs 8 flows) under
five different packet schedulers — DWRR, WRR, WFQ, strict priority, and a
programmable PIFO with an STFQ rank — all with the *identical* TCN
configuration (a single 250 us sojourn threshold).  Per-queue goodputs
show each scheduler's policy enforced exactly; nothing about TCN had to
change between schedulers, which is precisely what queue-length ECN/RED
cannot offer (§3) and what MQ-ECN can only offer for the first two.
"""

from repro import (
    DctcpSender,
    DwrrScheduler,
    Flow,
    GoodputTracker,
    PifoScheduler,
    Receiver,
    Simulator,
    StarTopology,
    Tcn,
    WfqScheduler,
    WrrScheduler,
    make_queues,
)
from repro.sched.pifo import stfq_rank
from repro.units import GBPS, KB, MB, SEC, USEC

SCHEDULERS = {
    "dwrr": lambda: DwrrScheduler(make_queues(2, quanta=[1500, 1500])),
    "wrr": lambda: WrrScheduler(make_queues(2)),
    "wfq": lambda: WfqScheduler(make_queues(2)),
    "sp": lambda: WfqScheduler(make_queues(2), n_high=2),  # all strict
    "pifo-stfq": lambda: PifoScheduler(make_queues(2), rank_fn=stfq_rank),
}

#: what each policy should do with (service0: 1 flow) vs (service1: 8 flows)
EXPECTED = {
    "dwrr": "50% / 50%   (equal quanta)",
    "wrr": "50% / 50%   (equal weights)",
    "wfq": "50% / 50%   (equal weights)",
    "sp": "~100% / ~0%  (service 0 has strict priority)",
    "pifo-stfq": "50% / 50%   (STFQ rank emulates fair queueing)",
}


def run(sched_name: str) -> tuple:
    sim = Simulator()
    topo = StarTopology(
        sim, 3, GBPS,
        sched_factory=SCHEDULERS[sched_name],
        aqm_factory=lambda: Tcn(250 * USEC),  # the SAME config everywhere
        buffer_bytes=192 * KB,
        link_delay_ns=62_500,
    )
    tracker = GoodputTracker()
    on_bytes = lambda f, b, t: tracker.record(f.service, b, t)  # noqa: E731
    flows = [Flow(1, 0, 2, 500 * MB, service=0)]
    flows += [Flow(2 + i, 1, 2, 500 * MB, service=1) for i in range(8)]
    for f in flows:
        Receiver(sim, topo.hosts[2], f, on_bytes=on_bytes)
        s = DctcpSender(sim, topo.hosts[f.src], f, init_cwnd=10)
        sim.schedule(0, s.start)
    sim.run(until=2 * SEC)
    return (
        tracker.goodput_bps(0, 1 * SEC, 2 * SEC) / 1e6,
        tracker.goodput_bps(1, 1 * SEC, 2 * SEC) / 1e6,
    )


def main() -> None:
    print("TCN threshold: 250 us, identical for every scheduler\n")
    print(f"{'scheduler':<10} {'svc1 (1 flow)':>14} {'svc2 (8 flows)':>15}   policy")
    print("-" * 72)
    for name in SCHEDULERS:
        g1, g2 = run(name)
        print(f"{name:<10} {g1:>11.0f} Mbps {g2:>12.0f} Mbps   {EXPECTED[name]}")


if __name__ == "__main__":
    main()
