"""Side-state allocation for software synchronization objects.

Software implementations need memory beyond the synchronization word
itself: MCS queue nodes, tournament flag arrays, per-object auxiliary
words.  The registry allocates them deterministically and memoizes, so
the same (object, role) pair always maps to the same simulated address.

Auxiliary words that belong to the same object share its cache line
(offset slots), mirroring how pthread objects lay out their fields;
per-thread structures (MCS nodes, tournament flags) get private lines,
mirroring how scalable-lock implementations pad to avoid false sharing.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.types import Address
from repro.mem.address import AddressAllocator

#: Byte offsets of auxiliary word slots within an object's line.
WORD_SIZE = 8


class SwStateRegistry:
    def __init__(self, allocator: AddressAllocator):
        self._allocator = allocator
        self._lines: Dict[Tuple, Address] = {}

    @staticmethod
    def word(addr: Address, slot: int) -> Address:
        """Auxiliary word ``slot`` on the same line as ``addr``."""
        return addr + slot * WORD_SIZE

    def private_line(self, *key) -> Address:
        """A dedicated line for ``key`` (e.g. an MCS node for
        ``("mcs", lock_addr, tid)``); stable across calls."""
        if key not in self._lines:
            self._lines[key] = self._allocator.line()
        return self._lines[key]
