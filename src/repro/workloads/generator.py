"""Open-loop Poisson flow generation at a target load.

Reproduces the paper's client/server traffic pattern: flow arrivals form a
Poisson process whose rate is chosen so the expected offered traffic equals
``load`` x bottleneck capacity, flow sizes are drawn from an empirical CDF,
and each flow is assigned to a service (switch queue).

Two shapes cover all the experiments:

* :meth:`FlowGenerator.many_to_one` — the testbed pattern (§6.1.2): many
  senders fetch toward one receiver, load defined on the receiver's access
  link.
* :meth:`FlowGenerator.all_to_all` — the leaf-spine pattern (§6.2): every
  host originates flows at ``load`` x its edge rate toward uniformly random
  other hosts; communication pairs are partitioned into services, each
  service optionally drawing sizes from its own workload (Fig. 10's "7
  services with different traffic distributions").
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.sim.rng import RngFactory
from repro.transport.flow import Flow
from repro.units import SEC
from repro.workloads.cdf import EmpiricalCdf


class FlowGenerator:
    """Builds deterministic flow schedules from a seeded RNG factory."""

    def __init__(self, rng: RngFactory) -> None:
        self.rng = rng

    # -- patterns ----------------------------------------------------------

    def many_to_one(
        self,
        senders: Sequence[int],
        receiver: int,
        cdf: EmpiricalCdf,
        load: float,
        link_rate_bps: int,
        n_flows: int,
        n_services: int = 1,
    ) -> List[Flow]:
        """Poisson flows from random senders to one receiver.

        Load is measured on the receiver's access link; each flow is mapped
        to a uniformly random service queue, as in §6.1.2 ("a flow is
        randomly mapped to one of the 4 service queues").
        """
        _check_load(load)
        _check_services(n_services)
        stream = self.rng.stream("flows")
        arrival_gap_ns = _mean_gap_ns(cdf, load, link_rate_bps)
        flows: List[Flow] = []
        t = 0
        for i in range(n_flows):
            t += _exp_ns(stream, arrival_gap_ns)
            src = senders[stream.randrange(len(senders))]
            service = stream.randrange(n_services)
            flows.append(
                Flow(
                    i,
                    src,
                    receiver,
                    cdf.sample(stream),
                    start_ns=t,
                    service=service,
                )
            )
        return flows

    def all_to_all(
        self,
        hosts: Sequence[int],
        cdfs: Sequence[EmpiricalCdf],
        load: float,
        edge_rate_bps: int,
        n_flows: int,
    ) -> List[Flow]:
        """Poisson flows between uniformly random host pairs.

        The service of a flow is derived from its (src, dst) pair —
        ``(src + dst) % n_services`` — which evenly partitions the
        ``n x (n-1)`` communication pairs into services exactly as §6.2
        prescribes, and each service samples its own workload CDF.

        The aggregate arrival rate equals ``n_hosts x load x edge_rate /
        (8 x mean_size)`` with the mean averaged over the per-service
        workloads, so every host's expected egress load is ``load``.
        """
        _check_load(load)
        if len(hosts) < 2:
            raise ValueError("all_to_all needs at least two hosts")
        n_services = len(cdfs)
        _check_services(n_services)
        stream = self.rng.stream("flows")
        mean_size = sum(c.mean() for c in cdfs) / n_services
        per_host_gap_ns = mean_size * 8 * SEC / (load * edge_rate_bps)
        aggregate_gap_ns = per_host_gap_ns / len(hosts)
        flows: List[Flow] = []
        t = 0
        for i in range(n_flows):
            t += _exp_ns(stream, aggregate_gap_ns)
            src = hosts[stream.randrange(len(hosts))]
            dst = src
            while dst == src:
                dst = hosts[stream.randrange(len(hosts))]
            service = (src + dst) % n_services
            flows.append(
                Flow(
                    i,
                    src,
                    dst,
                    cdfs[service].sample(stream),
                    start_ns=t,
                    service=service,
                )
            )
        return flows


def _check_load(load: float) -> None:
    if not 0.0 < load < 1.0:
        raise ValueError(f"load must be in (0, 1), got {load}")


def _check_services(n_services: int) -> None:
    if n_services < 1:
        raise ValueError(f"n_services must be >= 1, got {n_services}")


def _mean_gap_ns(cdf: EmpiricalCdf, load: float, rate_bps: int) -> float:
    """Mean Poisson inter-arrival so offered bytes match load x rate."""
    return cdf.mean() * 8 * SEC / (load * rate_bps)


def _exp_ns(stream: random.Random, mean_ns: float) -> int:
    return max(1, int(stream.expovariate(1.0 / mean_ns)))
