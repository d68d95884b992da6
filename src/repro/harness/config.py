"""Declarative experiment configuration.

One :class:`ExperimentConfig` captures everything that varies across the
paper's figures: marking scheme, scheduler, transport, topology, workload,
load, and the threshold constants.  Thresholds left at ``None`` are derived
from Equations 1/3 (``C x RTT x lambda`` and ``RTT x lambda``); every bench
either relies on that derivation or pins the exact values the paper quotes
(30 KB for Fig. 1, 125 KB / 100 us for Fig. 3, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.thresholds import (
    standard_red_threshold_bytes,
    standard_tcn_threshold_ns,
)
from repro.harness.schemes import REGISTRIES
from repro.units import GBPS, HEADER, KB, MSEC, MSS, USEC
from repro.workloads.distributions import ALL_WORKLOADS, workload_by_name

@dataclass
class ExperimentConfig:
    """Full description of one simulation run."""

    # scheme under test
    scheme: str = "tcn"            # key into harness.schemes.SCHEMES
    scheduler: str = "dwrr"        # key into harness.schemes.SCHEDULERS
    transport: str = "dctcp"       # key into harness.schemes.TRANSPORTS

    # topology
    topology: str = "star"         # "star" | "leafspine"
    n_hosts: int = 9               # star only
    n_leaf: int = 4                # leafspine only
    n_spine: int = 4
    hosts_per_leaf: int = 4
    link_rate_bps: int = GBPS
    buffer_bytes: int = 96 * KB
    link_delay_ns: Optional[int] = None   # default: base_rtt / 4 (star)
    base_rtt_ns: int = 250 * USEC

    # queues
    n_queues: int = 4              # total queues per port
    n_high: int = 1                # strict-priority queues (sp_* schedulers)

    # thresholds (None -> Equations 1 and 3)
    lam: float = 1.0
    red_threshold_bytes: Optional[int] = None
    tcn_threshold_ns: Optional[int] = None
    codel_target_ns: Optional[int] = None      # default rtt/5 (testbed-style tuning)
    codel_interval_ns: Optional[int] = None    # default 4 x rtt
    dq_thresh_bytes: int = 10 * KB             # Algorithm 1 (ideal scheme)

    # workload
    workload: str = "websearch"    # a workload name, or "mixed" (leafspine)
    # optional tail clip (bytes): bounds the cost of simulating the extreme
    # tail of the data-mining/Hadoop distributions at benchmark scale; the
    # clipped mass collapses onto the clip point (EmpiricalCdf.truncated)
    workload_clip_bytes: Optional[int] = None
    load: float = 0.6
    n_flows: int = 200
    pias: bool = False

    # transport tuning
    init_cwnd: float = 16.0
    min_rto_ns: int = 10 * MSEC
    # The paper's testbed client multiplexes messages over 5 persistent
    # TCP connections per host pair (§5, harness.runner.ConnectionPool):
    # a new flow on a warm connection starts from the connection's
    # converged window instead of slow starting from scratch.  Enable for
    # testbed-style experiments.
    persistent_connections: bool = False
    max_warm_cwnd: float = 64.0
    # Socket-buffer / TSQ equivalent: real stacks bound a flow's window to
    # a small multiple of its path BDP (receive-window autotuning, TCP
    # Small Queues), which keeps an unmarked flow from bloating its own
    # NIC FIFO by tens of milliseconds.  cwnd <= max(64, factor x BDP).
    max_cwnd_bdp_factor: float = 4.0

    # Simulation mode (repro.sim.fluid): "packet" simulates every flow
    # packet-by-packet (the default — the engine every digest pins);
    # "hybrid" promotes flows of at least `fluid_size_bytes` to
    # piecewise-constant fluid rates solved at epochs while short flows
    # stay packet-exact, with two-way coupling (fluid load sets
    # standing-queue delay and marking at the ports; measured packet
    # throughput feeds back into the solver).  `fluid_size_bytes=1`
    # promotes every flow.  This is NOT a result-neutral knob — fluid
    # results are an approximation — so the sweep cache fingerprint
    # includes both fields.  See docs/FLUID.md.
    mode: str = "packet"
    fluid_size_bytes: int = 1_000_000

    # bookkeeping
    seed: int = 1
    max_sim_ns: int = 0            # 0 -> auto (generous multiple of last arrival)

    def validate(self) -> None:
        """Fail fast on what no single component can check.

        Only rules that span fields, and rules on fields no constructor
        reads, live here; a field's own check is its constructor's, which
        :func:`repro.harness.runner.preflight` runs.  Loads no simulator.
        """
        for name, registry in REGISTRIES.items():
            value = getattr(self, name)
            if value not in registry:
                hint = "; mode='hybrid' with fluid_size_bytes=1 promotes every flow"
                raise ValueError(
                    f"unknown {name} {value!r}: expected one of "
                    f"{', '.join(sorted(registry))}{hint if name == 'mode' else ''}"
                )
        for name in ("link_rate_bps", "base_rtt_ns", "lam"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.max_sim_ns < 0:
            raise ValueError(
                f"max_sim_ns must be >= 0 (0 = auto), got {self.max_sim_ns}"
            )
        if self.n_flows < 1:
            raise ValueError(f"n_flows must be >= 1, got {self.n_flows}")
        if self.fluid_size_bytes < 1:
            raise ValueError(
                f"fluid_size_bytes must be >= 1, got {self.fluid_size_bytes}"
            )
        if self.buffer_bytes < MSS + HEADER:
            raise ValueError(
                f"buffer_bytes must hold one full frame ({MSS + HEADER} B), "
                f"got {self.buffer_bytes}"
            )
        if self.workload == "mixed":
            if self.topology != "leafspine":
                raise ValueError("workload 'mixed' needs the leafspine topology")
        else:
            try:
                workload_by_name(self.workload)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
        if (
            self.scheduler.startswith("sp_") or self.pias
        ) and not 0 < self.n_high < self.n_queues:
            raise ValueError(
                f"sp_* schedulers and PIAS need 0 < n_high < n_queues "
                f"(got n_high={self.n_high}, n_queues={self.n_queues})"
            )
        if self.pias and not self.scheduler.startswith("sp"):
            raise ValueError("PIAS tagging needs a strict-priority high queue")
        clip = self.workload_clip_bytes
        if clip is not None:
            cdfs = (
                ALL_WORKLOADS[: self.n_services] if self.workload == "mixed"
                else [workload_by_name(self.workload)]
            )
            smallest = max((cdf.sizes[0] for cdf in cdfs), default=0)
            if clip <= smallest:
                raise ValueError(
                    "workload_clip_bytes must exceed the smallest flow size "
                    f"({smallest:g} B), got {clip}"
                )

    # -- derived constants -----------------------------------------------

    @property
    def effective_red_threshold_bytes(self) -> int:
        """Equation 1 unless pinned."""
        if self.red_threshold_bytes is not None:
            return self.red_threshold_bytes
        return standard_red_threshold_bytes(
            self.link_rate_bps, self.base_rtt_ns, self.lam
        )

    @property
    def effective_tcn_threshold_ns(self) -> int:
        """Equation 3 unless pinned."""
        if self.tcn_threshold_ns is not None:
            return self.tcn_threshold_ns
        return standard_tcn_threshold_ns(self.base_rtt_ns, self.lam)

    @property
    def effective_codel_target_ns(self) -> int:
        """Paper's testbed tuning: target ~= RTT x lambda / 5."""
        if self.codel_target_ns is not None:
            return self.codel_target_ns
        return max(1, self.effective_tcn_threshold_ns // 5)

    @property
    def effective_codel_interval_ns(self) -> int:
        """Paper's testbed tuning: interval ~= 4 x RTT."""
        if self.codel_interval_ns is not None:
            return self.codel_interval_ns
        return 4 * self.base_rtt_ns

    @property
    def effective_link_delay_ns(self) -> int:
        """Star links: a quarter of the base RTT unless pinned."""
        if self.link_delay_ns is not None:
            return self.link_delay_ns
        return self.base_rtt_ns // 4

    @property
    def host_link_delay_ns(self) -> int:
        """Leaf-spine host links: all of the base RTT but the eight 650 ns
        fabric hops (§6.2: 80 of 85.2 us sit at the hosts)."""
        return max(1, (self.base_rtt_ns - 8 * 650) // 4)

    @property
    def n_low(self) -> int:
        """Low-priority (fair-queued) queues under sp_* schedulers."""
        return self.n_queues - self.n_high

    @property
    def n_services(self) -> int:
        """Service queues available to workloads (low band under sp_*)."""
        if self.scheduler.startswith("sp_") or self.pias:
            return self.n_low
        return self.n_queues
