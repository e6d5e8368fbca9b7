"""MiSAR reproduction: minimalistic synchronization accelerator (MSA) with
resource overflow management (OMU) on a simulated tiled many-core.

The package reproduces the system from Liang & Prvulovic, "MiSAR:
Minimalistic Synchronization Accelerator with Resource Overflow
Management" (ISCA 2015).  It provides:

* a discrete-event, cycle-approximate simulator of a tiled many-core chip
  (:mod:`repro.sim`, :mod:`repro.noc`, :mod:`repro.mem`),
* the paper's core contribution -- the MSA accelerator slices and the
  Overflow Management Unit (:mod:`repro.msa`),
* a thread runtime with the hybrid hardware/software synchronization
  algorithms of the paper (:mod:`repro.runtime`),
* workloads and the experiment harness that regenerate every figure and
  table of the paper's evaluation (:mod:`repro.workloads`,
  :mod:`repro.harness`).

Quickstart (the :mod:`repro.api` facade is the front door)::

    import repro

    machine = repro.build("msa-omu-2", cores=16)
    result = repro.run("msa-omu-2", "streamcluster", cores=16, scale=0.5)
    points = repro.sweep(
        configs=("pthread", "msa-omu-2"),
        workloads=("canneal", "swaptions"),
        workers=4,
    )
    print(result.cycles, result.msa_coverage)
"""

from repro.common.types import SyncResult, SyncType
from repro.common.params import MachineParams, MSAParams, OMUParams

__all__ = [
    "SyncResult",
    "SyncType",
    "MachineParams",
    "MSAParams",
    "OMUParams",
    "api",
    "build",
    "run",
    "sweep",
    "observe",
    "report",
    "fsck",
    "chaos_harness",
    "submit",
    "status",
    "wait",
    "fetch",
    "RunResult",
    "__version__",
]

__version__ = "1.3.0"

#: Facade names resolved lazily so ``import repro`` stays light (the
#: harness pulls in the whole machine model) and free of import cycles.
# ("serve" and "traffic" are deliberately absent: ``repro.serve`` and
# ``repro.traffic`` are subpackages; the corresponding verbs live at
# ``repro.api.serve`` / ``repro.api.traffic``.)
_API_NAMES = (
    "build", "run", "sweep", "observe", "report",
    "fsck", "chaos_harness", "submit", "status", "wait",
    "fetch", "RunResult", "Engine", "JobSpec",
)


def __getattr__(name):
    if name == "api":
        import repro.api as api

        return api
    if name in _API_NAMES:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | {"api"} | set(_API_NAMES))
