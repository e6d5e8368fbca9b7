"""Coherent memory hierarchy: private L1s and a distributed shared LLC
whose slices are the coherence homes (directory-based MESI).

Data values live in a single global backing store (word granularity);
the coherence protocol moves *permissions*, and a memory operation's
value takes effect at the operation's completion time.  Because MESI
serializes conflicting accesses, this is observationally equivalent to
moving data and far cheaper to simulate (see DESIGN.md).
"""

from repro.mem.address import AddressMap, AddressAllocator
from repro.mem.memsys import MemoryFabric

__all__ = ["AddressMap", "AddressAllocator", "MemoryFabric"]
