"""Named registries: marking schemes, schedulers, transports.

Every figure's bench selects by name; the factories close over an
:class:`~repro.harness.config.ExperimentConfig` so a fresh scheduler/AQM
instance is minted per switch port (exactly like per-port qdisc instances).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.aqm.base import Aqm, NoopAqm
from repro.aqm.codel import CoDel
from repro.aqm.dequeue_red import DequeueRed
from repro.aqm.ideal import IdealRed
from repro.aqm.mqecn import MqEcn
from repro.aqm.perport import PerPortRed
from repro.aqm.perqueue import PerQueueRed
from repro.aqm.pie import Pie
from repro.core.tcn import Tcn
from repro.harness.config import ExperimentConfig
from repro.sched.base import Scheduler, make_queues
from repro.sched.dwrr import DwrrScheduler
from repro.sched.fifo import FifoScheduler
from repro.sched.pifo import PifoScheduler, stfq_rank
from repro.sched.sp import StrictPriorityScheduler
from repro.sched.wfq import WfqScheduler
from repro.sched.wrr import WrrScheduler
from repro.transport.dctcp import DctcpSender
from repro.transport.tcp import EcnStarSender, RenoSender

AqmFactory = Callable[[ExperimentConfig], Optional[Aqm]]
SchedulerFactory = Callable[[ExperimentConfig], Scheduler]


# -- marking schemes ----------------------------------------------------------

def _tcn(cfg: ExperimentConfig) -> Aqm:
    return Tcn(cfg.effective_tcn_threshold_ns)


def _codel(cfg: ExperimentConfig) -> Aqm:
    return CoDel(
        target_ns=cfg.effective_codel_target_ns,
        interval_ns=cfg.effective_codel_interval_ns,
    )


def _red_std(cfg: ExperimentConfig) -> Aqm:
    return PerQueueRed(cfg.effective_red_threshold_bytes)


def _dequeue_red(cfg: ExperimentConfig) -> Aqm:
    return DequeueRed(cfg.effective_red_threshold_bytes)


def _perport_red(cfg: ExperimentConfig) -> Aqm:
    return PerPortRed(cfg.effective_red_threshold_bytes)


def _mqecn(cfg: ExperimentConfig) -> Aqm:
    return MqEcn(cfg.base_rtt_ns, lam=cfg.lam, beta=cfg.mqecn_beta)


def _ideal(cfg: ExperimentConfig) -> Aqm:
    return IdealRed(
        cfg.base_rtt_ns, lam=cfg.lam, dq_thresh_bytes=cfg.dq_thresh_bytes
    )


def _pie(cfg: ExperimentConfig) -> Aqm:
    return Pie(
        target_delay_ns=cfg.effective_tcn_threshold_ns,
        update_interval_ns=cfg.base_rtt_ns,
        dq_thresh_bytes=cfg.dq_thresh_bytes,
    )


def _none(cfg: ExperimentConfig) -> Aqm:
    return NoopAqm()


#: scheme name -> AQM factory.  Names follow the paper's terminology.
SCHEMES: Dict[str, AqmFactory] = {
    "tcn": _tcn,                    # the contribution (§4)
    "codel": _codel,                # sojourn-time competitor (§4.3)
    "mqecn": _mqecn,                # round-robin-only dynamic RED
    "red_std": _red_std,            # per-queue ECN/RED, standard threshold
    "dequeue_red": _dequeue_red,    # Wu et al. dequeue marking
    "perport_red": _perport_red,    # policy-violating per-port RED (§3.2.2)
    "ideal": _ideal,                # Equation 2 via Algorithm 1
    "pie": _pie,                    # extension
    "droptail": _none,              # no ECN at all
}


# -- schedulers -----------------------------------------------------------

def _queues(cfg: ExperimentConfig, n: int, priorities=None):
    return make_queues(
        n, quanta=[cfg.quantum_bytes] * n, priorities=priorities
    )


def _fifo(cfg: ExperimentConfig) -> Scheduler:
    return FifoScheduler()


def _sp(cfg: ExperimentConfig) -> Scheduler:
    return StrictPriorityScheduler(_queues(cfg, cfg.n_queues))


def _wrr(cfg: ExperimentConfig) -> Scheduler:
    return WrrScheduler(_queues(cfg, cfg.n_queues))


def _dwrr(cfg: ExperimentConfig) -> Scheduler:
    return DwrrScheduler(_queues(cfg, cfg.n_queues))


def _wfq(cfg: ExperimentConfig) -> Scheduler:
    return WfqScheduler(_queues(cfg, cfg.n_queues))


def _sp_dwrr(cfg: ExperimentConfig) -> Scheduler:
    return DwrrScheduler(_queues(cfg, cfg.n_queues), n_high=cfg.n_high)


def _sp_wfq(cfg: ExperimentConfig) -> Scheduler:
    return WfqScheduler(_queues(cfg, cfg.n_queues), n_high=cfg.n_high)


def _pifo(cfg: ExperimentConfig) -> Scheduler:
    return PifoScheduler(_queues(cfg, cfg.n_queues), rank_fn=stfq_rank)


#: scheduler name -> factory
SCHEDULERS: Dict[str, SchedulerFactory] = {
    "fifo": _fifo,
    "sp": _sp,
    "wrr": _wrr,
    "dwrr": _dwrr,
    "wfq": _wfq,
    "sp_dwrr": _sp_dwrr,
    "sp_wfq": _sp_wfq,
    "pifo": _pifo,
}

#: transport name -> sender class
TRANSPORTS = {
    "dctcp": DctcpSender,
    "ecnstar": EcnStarSender,
    "reno": RenoSender,
}
