"""Experiment harness: declarative configs -> built topology -> results."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.harness.config import ExperimentConfig
    from repro.harness.runner import ExperimentResult, run_experiment
    from repro.harness.schemes import SCHEMES, SCHEDULERS, TRANSPORTS
    from repro.harness.report import (
        format_table,
        format_fct_rows,
        format_port_breakdown,
    )
    from repro.harness.sweep import (
        ResultCache,
        SweepError,
        SweepOutcome,
        SweepResult,
        SweepStats,
        config_key,
        run_sweep,
    )

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "run_sweep",
    "ResultCache",
    "SweepError",
    "SweepOutcome",
    "SweepResult",
    "SweepStats",
    "config_key",
    "SCHEMES",
    "SCHEDULERS",
    "TRANSPORTS",
    "format_table",
    "format_fct_rows",
    "format_port_breakdown",
]

_EXPORTS = {
    "ExperimentConfig": "repro.harness.config",
    "ExperimentResult": "repro.harness.runner",
    "run_experiment": "repro.harness.runner",
    "SCHEMES": "repro.harness.schemes",
    "SCHEDULERS": "repro.harness.schemes",
    "TRANSPORTS": "repro.harness.schemes",
    "format_table": "repro.harness.report",
    "format_fct_rows": "repro.harness.report",
    "format_port_breakdown": "repro.harness.report",
    "ResultCache": "repro.harness.sweep",
    "SweepError": "repro.harness.sweep",
    "SweepOutcome": "repro.harness.sweep",
    "SweepResult": "repro.harness.sweep",
    "SweepStats": "repro.harness.sweep",
    "config_key": "repro.harness.sweep",
    "run_sweep": "repro.harness.sweep",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
