"""Crash-safety and self-healing for the experiment harness.

MiSAR's thesis is that a minimal accelerator plus explicit *overflow
management* beats both extremes; this package applies the same stance
to the harness that reproduces it.  The sweep engine is treated as a
long-running shared service whose resources (workers, disk, wall clock)
overflow and fail, and every failure mode gets an explicit manager:

* :mod:`~repro.resilience.store` -- durable SQLite job ledger: each
  grid point is a row claimed through expiring leases, so any number of
  workers (or hosts sharing a cache directory) can pull work safely and
  a SIGKILLed worker's points are reclaimed automatically.
* :mod:`~repro.resilience.supervise` -- worker supervision: heartbeats,
  deterministic seeded exponential backoff, poison-job quarantine with
  captured tracebacks, bounded worker restarts, and the chaos hooks.
* :mod:`~repro.resilience.watchdog` -- per-run escalation ladder
  (warn -> snapshot -> abort) over wall-clock and event budgets, plus
  the :func:`~repro.resilience.watchdog.triage_dump` shared with
  deadlock diagnostics.
* :mod:`~repro.resilience.fsck` -- storage self-healing for cache
  entries and the job store (corrupt = miss, never crash;
  ``python -m repro fsck``).
* :mod:`~repro.resilience.chaos` -- the harness-level chaos gauntlet
  (``python -m repro chaos-harness``): kill workers, corrupt entries,
  fake disk-full, then assert byte-identical convergence.

See docs/HARNESS.md ("Crash safety and self-healing") for the operator
view.
"""

# ``fsck`` is bound here, not on first access: the name is also a
# submodule's, and importing that submodule after the package would
# otherwise leave ``repro.resilience.fsck`` naming the module.
from repro.resilience.fsck import FsckIssue, FsckReport, fsck

#: Re-exported name -> the submodule that defines it, imported on first
#: access (the supervisor pulls in ``multiprocessing``, which a process
#: that only opens a job store never needs).
_EXPORTS = {
    "ChaosHarnessResult": "chaos",
    "chaos_harness": "chaos",
    "default_chaos_specs": "chaos",
    "Claim": "store",
    "JobRow": "store",
    "JobStore": "store",
    "default_store_path": "store",
    "ChaosPlan": "supervise",
    "WorkerLoop": "supervise",
    "WorkerPool": "supervise",
    "backoff_delay": "supervise",
    "Watchdog": "watchdog",
    "WatchdogWarning": "watchdog",
    "format_triage": "watchdog",
    "triage_dump": "watchdog",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


def resilience_registry(counters, registry=None):
    """Export harness resilience counters (:meth:`JobStore.counters`,
    :meth:`FsckReport.counters`, :meth:`repro.harness.jobs.Engine.
    resilience_counters`) into a :class:`repro.obs.MetricsRegistry`
    under the ``harness.`` prefix."""
    from repro.obs.registry import MetricsRegistry

    reg = registry if registry is not None else MetricsRegistry()
    reg.add_counters(dict(counters), prefix="harness.")
    return reg


__all__ = [
    "ChaosHarnessResult",
    "ChaosPlan",
    "Claim",
    "FsckIssue",
    "FsckReport",
    "JobRow",
    "JobStore",
    "Watchdog",
    "WatchdogWarning",
    "WorkerLoop",
    "WorkerPool",
    "backoff_delay",
    "chaos_harness",
    "default_chaos_specs",
    "default_store_path",
    "format_triage",
    "fsck",
    "resilience_registry",
    "triage_dump",
]
