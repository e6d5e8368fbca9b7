"""Experiment harness: machine configurations matching the paper's
evaluation (section 6), the workload runner, the parallel experiment
engine (:mod:`repro.harness.jobs`), and the drivers that regenerate
every figure and table.

The names below resolve on first access, so importing one submodule
(the engine, say) does not load the others.
"""

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    "build_machine": "configs",
    "machine_params": "configs",
    "CONFIG_NAMES": "configs",
    "run_workload": "runner",
    "RunResult": "runner",
    "Engine": "jobs",
    "EngineStats": "jobs",
    "JobResult": "jobs",
    "JobSpec": "jobs",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
