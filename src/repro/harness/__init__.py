"""Experiment harness: declarative configs -> built topology -> results."""

from repro import _lazy_exports

_EXPORTS = {
    "ExperimentConfig": "repro.harness.config",
    "ExperimentResult": "repro.harness.config",
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
    "SweepStats": "repro.harness.sweep",
    "config_key": "repro.harness.sweep",
    "run_sweep": "repro.harness.sweep",
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
