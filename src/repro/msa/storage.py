"""Storage-bit cost of the accelerator: the paper's minimalism argument.

The MSA does not beat lock-cache style accelerators by being faster but
by being much smaller (section 4, Table 1).  :func:`storage_bits`
prices a :class:`~repro.common.params.MachineParams` in bits:

* one **MSA entry** holds an address tag, the FSM state of the
  synchronization variable, the HWQueue bit-vector (one bit per
  hardware thread in the machine, the term that grows with the core
  count) and a few auxiliary bits (head pointer, waiter count);
* one **OMU slice** holds ``n_counters`` counters of ``counter_bits``
  each.  The counting-Bloom variant hashes every address into that same
  array, so it costs the same bits as the simple OMU.

Software-only configurations cost 0.  The numbers are relative units
for comparing design points, not area.
"""

from __future__ import annotations

from typing import Dict

from repro.common.params import MachineParams

ENTRY_TAG_BITS = 46
"""Synchronization-address tag per MSA entry (the paper's 46-bit tag)."""

ENTRY_STATE_BITS = 4
"""FSM state of the entry (free/lock/barrier/condvar sub-states)."""

ENTRY_AUX_BITS = 8
"""Head pointer, waiter count and bookkeeping bits per entry."""

INF_ENTRIES = 64
"""Entries per tile charged for MSA-inf: enough never to overflow any
evaluated workload, the upper bound the paper argues against building."""


def storage_bits(params: MachineParams) -> Dict[str, int]:
    """Bits of one MSA entry, of all MSA entries and of all OMU
    counters in the machine, plus their ``total``."""
    entry = (
        ENTRY_TAG_BITS
        + ENTRY_STATE_BITS
        + params.n_cores * params.core.hw_threads
        + ENTRY_AUX_BITS
    )
    msa = omu = 0
    if params.msa is not None:
        entries = params.msa.entries_per_tile
        if entries is None:
            entries = INF_ENTRIES
        msa = params.n_cores * entries * entry
        if params.omu.enabled:
            omu = params.n_cores * params.omu.n_counters * params.omu.counter_bits
    return {
        "entry_bits": entry,
        "msa_bits": msa,
        "omu_bits": omu,
        "total": msa + omu,
    }
