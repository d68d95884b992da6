"""repro — a full reproduction of *Enabling ECN over Generic Packet
Scheduling* (TCN, CoNEXT 2016) on a pure-Python packet-level datacenter
network simulator.

Quick start::

    from repro import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(scheme="tcn", scheduler="dwrr",
                           workload="websearch", load=0.6, n_flows=200)
    result = run_experiment(cfg)
    print(result.summary)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

import sys
from typing import Any, Callable, Dict, List, Tuple


def _lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """PEP 562 ``__getattr__``/``__dir__`` and ``__all__`` of a package.

    ``exports`` maps every public name of ``package`` to the module that
    defines it, and is the one place a package spells its surface:
    ``__all__`` is its keys.  The first access imports that module and
    stores the object in the package's namespace, so every later access
    is a plain attribute read that never reaches ``__getattr__``: a
    process pays for the modules it uses, not for everything the package
    can name.  A type checker sees a name served this way as ``Any``;
    code under ``src/repro`` imports from the home module instead.

    The helper lives here, not in a module of its own, because every file
    under ``src/repro`` must map to a ledger layer
    (``benchmarks/ledger/layers.py``) and a new file directly under
    ``src/repro/`` has none.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        home = exports.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        # the import statement's own entry point, not importlib's: only
        # this one shows up in a `python -X importtime` log
        __import__(home)
        value = namespace[name] = getattr(sys.modules[home], name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace).union(exports))

    return __getattr__, __dir__, list(exports)


__version__ = "1.0.0"

_EXPORTS = {
    # core
    "Tcn": "repro.core.tcn",
    "ProbabilisticTcn": "repro.core.tcn",
    "standard_red_threshold_bytes": "repro.core.thresholds",
    "standard_tcn_threshold_ns": "repro.core.thresholds",
    "ideal_red_threshold_bytes": "repro.core.thresholds",
    # aqm
    "Aqm": "repro.aqm",
    "CoDel": "repro.aqm",
    "MqEcn": "repro.aqm",
    "PerQueueRed": "repro.aqm",
    "PerPortRed": "repro.aqm",
    "PerPoolRed": "repro.aqm",
    "BufferPool": "repro.aqm",
    "DequeueRed": "repro.aqm",
    "IdealRed": "repro.aqm",
    "RateMeter": "repro.aqm",
    # schedulers
    "Scheduler": "repro.sched",
    "FifoScheduler": "repro.sched",
    "WrrScheduler": "repro.sched",
    "DwrrScheduler": "repro.sched",
    "WfqScheduler": "repro.sched",
    "PifoScheduler": "repro.sched",
    "make_queues": "repro.sched.base",
    # sim + net
    "Simulator": "repro.sim",
    "RngFactory": "repro.sim",
    "Packet": "repro.net",
    "PacketKind": "repro.net",
    "PacketQueue": "repro.net",
    "Link": "repro.net",
    "EgressPort": "repro.net",
    "Switch": "repro.net",
    "Host": "repro.net",
    "DscpClassifier": "repro.net",
    "make_nic": "repro.net",
    # transport
    "Flow": "repro.transport",
    "SenderBase": "repro.transport",
    "DctcpSender": "repro.transport",
    "DcqcnSender": "repro.transport",
    "EcnStarSender": "repro.transport",
    "RenoSender": "repro.transport",
    "Receiver": "repro.transport",
    # workloads
    "EmpiricalCdf": "repro.workloads",
    "WEB_SEARCH": "repro.workloads",
    "DATA_MINING": "repro.workloads",
    "HADOOP": "repro.workloads",
    "CACHE": "repro.workloads",
    "ALL_WORKLOADS": "repro.workloads",
    "workload_by_name": "repro.workloads",
    "FlowGenerator": "repro.workloads",
    # apps / pias
    "PiasTagger": "repro.pias",
    "Pinger": "repro.apps",
    "IncastApp": "repro.apps",
    "IncastQuery": "repro.apps",
    # topologies
    "StarTopology": "repro.topo",
    "LeafSpineTopology": "repro.topo",
    # metrics
    "FctCollector": "repro.metrics",
    "FctSummary": "repro.metrics",
    "percentile": "repro.metrics",
    "GoodputTracker": "repro.metrics",
    "OccupancySampler": "repro.metrics",
    # harness
    "ExperimentConfig": "repro.harness",
    "ExperimentResult": "repro.harness",
    "run_experiment": "repro.harness",
    "run_sweep": "repro.harness",
    "ResultCache": "repro.harness",
    "SweepError": "repro.harness",
    "SweepOutcome": "repro.harness",
    "SweepResult": "repro.harness",
    "SweepStats": "repro.harness",
    "SCHEMES": "repro.harness",
    "SCHEDULERS": "repro.harness",
    "TRANSPORTS": "repro.harness",
    "format_table": "repro.harness",
    "format_fct_rows": "repro.harness",
    "format_port_breakdown": "repro.harness",
    # observability
    "Tracer": "repro.obs",
    "Histogram": "repro.obs",
    "RunProfile": "repro.obs",
    "TraceSummary": "repro.obs",
    "summarize_events": "repro.obs",
    "format_trace_summary": "repro.obs",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
