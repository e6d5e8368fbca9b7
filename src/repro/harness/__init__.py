"""Experiment harness: machine configurations matching the paper's
evaluation (section 6), the workload runner, the parallel experiment
engine (:mod:`repro.harness.jobs`), and the drivers that regenerate
every figure and table.
"""

from repro.harness.configs import build_machine, machine_params, CONFIG_NAMES
from repro.harness.jobs import Engine, EngineStats, JobResult, JobSpec
from repro.harness.runner import run_workload, RunResult

__all__ = [
    "build_machine",
    "machine_params",
    "CONFIG_NAMES",
    "run_workload",
    "RunResult",
    "Engine",
    "EngineStats",
    "JobResult",
    "JobSpec",
]
