"""Named registries: every name an :class:`ExperimentConfig` selects.

Each maps a name to a factory of the config that imports its class when
called, so this module loads no simulator code and a run imports only
what its config names (:func:`resolve`).  A factory returns the maker of
the instances: a fresh scheme/scheduler per switch port (exactly like
per-port qdisc instances), a sender per flow, the topology.
"""

from __future__ import annotations

import sys
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.harness.config import ExperimentConfig

Factory = Callable[["ExperimentConfig"], Callable[..., Any]]


def _load(where: str) -> Any:
    """Import ``module`` or ``module:name`` and return it."""
    module, _, name = where.partition(":")
    __import__(module)  # the statement's entry point: `-X importtime` logs it
    loaded = sys.modules[module]
    return getattr(loaded, name) if name else loaded


def _made(where: str, **fields: str) -> Factory:
    """Factory of ``where`` with each keyword read from the config field
    it names: ``_made("m:C", x="y")(cfg)`` makes ``C(x=cfg.y)``.

    A constructor checks its own arguments, so a bad field surfaces as
    its ``ValueError``; one whose message starts with ``x`` (or with the
    tail of ``x``'s name, as ``delay_ns`` for ``link_delay_ns``) is
    re-raised under the field's name, ``y``.
    """

    def factory(cfg: ExperimentConfig) -> Callable[..., Any]:
        kwargs = {arg: getattr(cfg, field) for arg, field in fields.items()}
        make = partial(_load(where), **kwargs)

        def checked(*args: Any, **more: Any) -> Any:
            try:
                return make(*args, **more)
            except ValueError as exc:
                word, _, rest = str(exc).partition(" ")
                for arg, field in fields.items():
                    if arg == word or arg.endswith("_" + word):
                        name = field.replace("effective_", "")
                        raise ValueError(f"{name} {rest}") from exc
                raise

        return checked

    return factory


def _queued(where: str, **fields: str) -> Factory:
    """Like :func:`_made`, over ``cfg.n_queues`` fresh queues per port
    (each with the default 1500-byte quantum)."""

    def factory(cfg: ExperimentConfig) -> Callable[[], Any]:
        make = _made(where, **fields)(cfg)
        make_queues = _load("repro.sched.base:make_queues")
        n = cfg.n_queues
        return lambda: make(make_queues(n))

    return factory


_RED_THRESHOLD = {"threshold_bytes": "effective_red_threshold_bytes"}

#: scheme name -> AQM factory.  Names follow the paper's terminology.
SCHEMES: Dict[str, Factory] = {
    # the contribution (§4)
    "tcn": _made("repro.core.tcn:Tcn", threshold_ns="effective_tcn_threshold_ns"),
    # sojourn-time competitor (§4.3)
    "codel": _made(
        "repro.aqm.codel:CoDel",
        target_ns="effective_codel_target_ns",
        interval_ns="effective_codel_interval_ns",
    ),
    # round-robin-only dynamic RED (the default beta, 0.75)
    "mqecn": _made("repro.aqm.mqecn:MqEcn", rtt_ns="base_rtt_ns", lam="lam"),
    # per-queue ECN/RED, standard threshold
    "red_std": _made("repro.aqm.perqueue:PerQueueRed", **_RED_THRESHOLD),
    # Wu et al. dequeue marking
    "dequeue_red": _made("repro.aqm.dequeue_red:DequeueRed", **_RED_THRESHOLD),
    # policy-violating per-port RED (§3.2.2)
    "perport_red": _made("repro.aqm.perport:PerPortRed", **_RED_THRESHOLD),
    # Equation 2 via Algorithm 1
    "ideal": _made(
        "repro.aqm.ideal:IdealRed",
        rtt_ns="base_rtt_ns", lam="lam", dq_thresh_bytes="dq_thresh_bytes",
    ),
}

#: scheduler name -> factory
SCHEDULERS: Dict[str, Factory] = {
    "fifo": _made("repro.sched.fifo:FifoScheduler"),
    # strict priority: every queue in WFQ's strict band
    "sp": _queued("repro.sched.wfq:WfqScheduler", n_high="n_queues"),
    "wrr": _queued("repro.sched.wrr:WrrScheduler"),
    "dwrr": _queued("repro.sched.dwrr:DwrrScheduler"),
    "wfq": _queued("repro.sched.wfq:WfqScheduler"),
    "sp_dwrr": _queued("repro.sched.dwrr:DwrrScheduler", n_high="n_high"),
    "sp_wfq": _queued("repro.sched.wfq:WfqScheduler", n_high="n_high"),
    "pifo": _queued("repro.sched.pifo:PifoScheduler"),  # STFQ ranks
}

#: transport name -> factory of the sender
TRANSPORTS: Dict[str, Factory] = {
    "dctcp": _made("repro.transport.dctcp:DctcpSender"),
    "ecnstar": _made("repro.transport.tcp:EcnStarSender"),
    "reno": _made("repro.transport.tcp:RenoSender"),
}

#: topology name -> factory of the fabric, given the simulator and the
#: per-port scheduler and AQM factories
TOPOLOGIES: Dict[str, Factory] = {
    "star": _made(
        "repro.topo.star:StarTopology",
        n_hosts="n_hosts",
        link_rate_bps="link_rate_bps",
        buffer_bytes="buffer_bytes",
        link_delay_ns="effective_link_delay_ns",
    ),
    "leafspine": _made(
        "repro.topo.leafspine:LeafSpineTopology",
        n_leaf="n_leaf",
        n_spine="n_spine",
        hosts_per_leaf="hosts_per_leaf",
        edge_rate_bps="link_rate_bps",
        buffer_bytes="buffer_bytes",
        host_link_delay_ns="host_link_delay_ns",
        ecmp_salt="seed",
    ),
}

#: mode name -> factory of the fluid builder module (None: packet-exact)
MODES: Dict[str, Callable[[ExperimentConfig], Any]] = {
    "packet": lambda cfg: None,
    "hybrid": lambda cfg: _load("repro.sim.fluid.build"),
}


#: the config field each registry keys
REGISTRIES: Dict[str, Dict[str, Any]] = {
    "scheme": SCHEMES,
    "scheduler": SCHEDULERS,
    "transport": TRANSPORTS,
    "topology": TOPOLOGIES,
    "mode": MODES,
}


class Parts(NamedTuple):
    """What one config's names resolve to: ``topology(sim)`` builds the
    fabric, ``sender(sim, host, flow, ...)`` one flow's sender, and
    ``fluid`` is :mod:`repro.sim.fluid.build` in hybrid mode, else None."""

    topology: Callable[..., Any]
    sender: Callable[..., Any]
    fluid: Optional[Any]


def resolve(cfg: ExperimentConfig) -> Parts:
    """Import every class ``cfg`` names and bind it to the config.

    The build calls this before its first event, so nothing is imported
    while the simulation runs; a sweep's preflight calls it for every
    config to run before any job starts, so workers import nothing.
    """
    return Parts(
        topology=partial(
            TOPOLOGIES[cfg.topology](cfg),
            sched_factory=SCHEDULERS[cfg.scheduler](cfg),
            aqm_factory=SCHEMES[cfg.scheme](cfg),
        ),
        sender=TRANSPORTS[cfg.transport](cfg),
        fluid=MODES[cfg.mode](cfg),
    )
