"""Core enumerations and small value types shared by the whole system.

These mirror the paper's ISA-level vocabulary: the six synchronization
instructions plus FINISH/SUSPEND, and their three possible results
(SUCCESS / FAIL / ABORT).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

# The enums below key hot-path dicts (per-op and per-result counter
# handles).  ``Enum.__hash__`` hashes the member name in a Python frame;
# members are singletons compared by identity, so each class takes the
# C-level identity hash, which agrees with ``==``.


class SyncResult(enum.Enum):
    """Result of a hardware synchronization instruction (paper section 3).

    * ``SUCCESS`` -- the operation completed in hardware.
    * ``FAIL`` -- the operation cannot be performed in hardware; the
      runtime must fall back to the software implementation.
    * ``ABORT`` -- the operation was terminated by the MSA because of OS
      thread scheduling (suspension/migration) or a forced hand-off to
      software; the fallback differs per primitive (section 4).
    """

    __hash__ = object.__hash__

    SUCCESS = "success"
    FAIL = "fail"
    ABORT = "abort"
    BUSY = "busy"
    """TRYLOCK extension only: the lock is hardware-managed and
    currently owned -- the trylock completed (in hardware) without
    acquiring."""


class SyncType(enum.Enum):
    """The synchronization primitive an MSA entry is currently used for
    (the 2-bit ``Type`` field of an MSA entry, Figure 1)."""

    __hash__ = object.__hash__

    LOCK = "lock"
    BARRIER = "barrier"
    CONDVAR = "condvar"


class SyncOp(enum.Enum):
    """The synchronization operations software can request from the MSA.

    The first six are the paper's ISA instructions; ``FINISH`` notifies
    the OMU that a software barrier/condition wait completed, and
    ``SUSPEND`` is issued by a core when a waiting sync instruction is
    interrupted (context switch / migration).
    """

    __hash__ = object.__hash__

    LOCK = "lock"
    TRYLOCK = "trylock"
    """Extension beyond the paper's six instructions: a non-blocking
    LOCK that returns BUSY instead of waiting (the capability the
    paper's Table 1 credits SSB [26] with)."""

    UNLOCK = "unlock"
    BARRIER = "barrier"
    COND_WAIT = "cond_wait"
    COND_SIGNAL = "cond_signal"
    COND_BCAST = "cond_bcast"
    FINISH = "finish"
    SUSPEND = "suspend"


class CacheState(enum.Enum):
    """MESI stable states for an L1 line."""

    __hash__ = object.__hash__

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def can_read(self) -> bool:
        return self is not CacheState.INVALID

    @property
    def can_write(self) -> bool:
        return self in (CacheState.MODIFIED, CacheState.EXCLUSIVE)


@dataclass(frozen=True)
class TileCoord:
    """Position of a tile in the 2D mesh."""

    x: int
    y: int

    def hops_to(self, other: "TileCoord") -> int:
        """Manhattan distance (XY routing hop count)."""
        return abs(self.x - other.x) + abs(self.y - other.y)


Address = int
CoreId = int
TileId = int
ThreadId = int
Cycles = int
