"""Named machine configurations from the paper's evaluation.

==================  =====================================================
name                meaning (paper section 6)
==================  =====================================================
pthread             software baseline: futex mutex/barrier/condvar
spinlock            TTAS spinlock library (Figure 5)
mcs-tour            MCS lock + tournament barrier (advanced software)
msa0                MSA-0: sync ISA present, always FAILs locally
msa-omu-N           N-entry MSA per tile + 4-counter OMU (N in 1,2,4...)
msa-omu-N-noopt     same, HWSync-bit optimization disabled (Figure 8)
msa-omu-N-bloom     same, counting-Bloom OMU variant (extension)
msa-N-no-omu        N-entry MSA, OMU disabled: entries never reclaimed
                    (the "Without OMU" bars of Figure 7)
msa-lockonly-N      MSA accepts only locks (Figure 9)
msa-barrieronly-N   MSA accepts only barriers (Figure 9)
msa-inf             unbounded MSA entries (no overflow possible)
ideal               zero-latency oracle synchronization
==================  =====================================================
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import TYPE_CHECKING, Tuple

from repro.common.errors import ConfigError
from repro.common.params import MachineParams, MSAParams, OMUParams

if TYPE_CHECKING:
    from repro.machine import Machine

CONFIG_NAMES = (
    "pthread",
    "spinlock",
    "mcs-tour",
    "msa0",
    "msa-omu-1",
    "msa-omu-2",
    "msa-omu-4",
    "msa-omu-2-noopt",
    "msa-omu-2-bloom",
    "msa-1-no-omu",
    "msa-2-no-omu",
    "msa-lockonly-2",
    "msa-barrieronly-2",
    "msa-inf",
    "ideal",
)

_MSA_OMU = re.compile(r"^msa-omu-(\d+)(-noopt)?(-bloom)?$")
_MSA_NO_OMU = re.compile(r"^msa-(\d+)-no-omu$")
_MSA_ONLY = re.compile(r"^msa-(lockonly|barrieronly)-(\d+)$")


def machine_params(config: str, n_cores: int = 16, seed: int = 2015) -> Tuple[MachineParams, str]:
    """Resolve a configuration name to (MachineParams, library name)."""
    base = MachineParams(n_cores=n_cores, seed=seed)

    if config in ("pthread", "spinlock", "mcs-tour", "ticket"):
        return base.with_(msa=None), {"pthread": "pthread"}.get(config, config)
    if config == "msa0":
        return base.with_(msa=None), "hybrid"
    if config == "ideal":
        return base.with_(msa=None, ideal_sync=True), "hybrid"
    if config == "msa-inf":
        return base.with_(msa=MSAParams(entries_per_tile=None)), "hybrid"

    match = _MSA_OMU.match(config)
    if match:
        entries = int(match.group(1))
        msa = MSAParams(
            entries_per_tile=entries, hwsync_opt=match.group(2) is None
        )
        omu = OMUParams(use_bloom=match.group(3) is not None)
        return base.with_(msa=msa, omu=omu), "hybrid"

    match = _MSA_NO_OMU.match(config)
    if match:
        msa = MSAParams(entries_per_tile=int(match.group(1)))
        return base.with_(msa=msa, omu=OMUParams(enabled=False)), "hybrid"

    match = _MSA_ONLY.match(config)
    if match:
        only, entries = match.group(1), int(match.group(2))
        msa = MSAParams(
            entries_per_tile=entries,
            lock_support=only == "lockonly",
            barrier_support=only == "barrieronly",
            condvar_support=False,
        )
        return base.with_(msa=msa), "hybrid"

    raise ConfigError(f"unknown configuration {config!r}; see CONFIG_NAMES")


def build_machine(
    config: str,
    n_cores: int = 16,
    seed: int = 2015,
    fault_plan=None,
    **overrides,
) -> Machine:
    """Build a ready-to-use machine for a named configuration.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) arms the fault
    injector, reliable transport, and degradation plane; it requires an
    MSA-bearing configuration.  Extra keyword arguments replace
    top-level :class:`MachineParams` fields after the configuration is
    resolved (e.g. ``core=CoreParams(hw_threads=2)``)."""
    from repro.machine import Machine

    params, library = machine_params(config, n_cores=n_cores, seed=seed)
    if overrides:
        params = params.with_(**overrides)
    return Machine(params, library=library, fault_plan=fault_plan)
