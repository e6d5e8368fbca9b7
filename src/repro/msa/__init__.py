"""The paper's core contribution: the Minimalistic Synchronization
Accelerator (MSA) and its Overflow Management Unit (OMU).

Each tile hosts one :class:`~repro.msa.slice.MSASlice` holding a (very)
small number of :class:`~repro.msa.entry.MSAEntry` records -- one per
currently-active synchronization address homed at that tile -- plus an
:class:`~repro.msa.omu.OverflowManagementUnit` of untagged counters that
track software-side synchronization activity and arbitrate safe
transitions between hardware and software implementations.

Cores talk to the accelerator through the per-core
:class:`~repro.msa.isa.SyncUnit`, which implements the paper's ISA
extension (LOCK/UNLOCK/BARRIER/COND_WAIT/COND_SIGNAL/COND_BCAST plus
FINISH and SUSPEND) with SUCCESS/FAIL/ABORT results, the MSA-0
always-fail mode, and the HWSync-bit silent re-acquire optimization.

The package re-exports nothing: import from the submodule that defines
a name, so loading one part of the model does not load the rest (the
ideal-synchronization oracle, say).
"""
