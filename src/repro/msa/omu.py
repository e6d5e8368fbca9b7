"""Overflow Management Unit (paper section 3.2).

The OMU is a small set of saturating counters, indexed by the
synchronization address *without tagging*, that track how many threads
are currently active (waiting or lock-owning) in the *software*
implementation of each address.  A new MSA entry may only be allocated
when the address's counter reads zero; otherwise the request is steered
to software, preventing hardware and software from simultaneously
implementing the same synchronization object.

Aliasing (distinct addresses sharing a counter) can only steer an
operation to software -- a performance effect, never a correctness one.
A counting-Bloom-filter variant reduces aliasing with the same safety
property (no false "inactive" reports).

Saturation is the one place an untagged saturating counter could lie
dangerously: once a counter pins at ``counter_max``, further increments
are lost, so letting later decrements walk it back down would reach
zero while software activity is still live -- a false "inactive" that
lets the MSA allocate an entry *over* a live software lock.  The unit
therefore makes saturation *sticky*: a counter that ever saturates
holds at ``counter_max`` (decrements are absorbed and counted) until
:meth:`reset` explicitly drains the unit.  Sticky saturation is purely
conservative -- aliased addresses are steered to software forever after,
a performance cost, never a safety one.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

from repro.common.params import OMUParams
from repro.common.stats import StatSet
from repro.common.types import Address


class OverflowManagementUnit:
    """Simple indexed-counter OMU (the paper's evaluated design:
    four counters per slice)."""

    def __init__(self, params: OMUParams, stats: StatSet, line_shift: int = 6):
        self.params = params
        self.stats = stats
        self._counters: List[int] = [0] * params.n_counters
        self._saturated: List[bool] = [False] * params.n_counters
        self._line_shift = line_shift
        self._n_counters = params.n_counters
        # Bound on first update so an idle OMU registers no counter.
        self._increments = None
        self._decrements = None

    def _indices(self, addr: Address) -> Tuple[int, ...]:
        return ((addr >> self._line_shift) % self._n_counters,)

    def is_active(self, addr: Address) -> bool:
        """True when software-side synchronization may be active on this
        address (counter non-zero): the MSA must steer to software."""
        index = (addr >> self._line_shift) % self._n_counters
        return self._counters[index] > 0

    def increment(self, addr: Address, amount: int = 1) -> None:
        """A thread's operation on ``addr`` fell back to software."""
        increments = self._increments
        if increments is None:
            increments = self._increments = self.stats.counter(
                "omu_increments"
            )
        increments.value += amount
        for i in self._indices(addr):
            if self._counters[i] + amount > self.params.counter_max:
                # Increments are being lost: the counter can no longer
                # account for every live software thread, so it must
                # never read zero again until an explicit drain.
                if not self._saturated[i]:
                    self._saturated[i] = True
                    self.stats.counter("omu_saturations").inc()
                self._counters[i] = self.params.counter_max
            else:
                self._counters[i] += amount

    def decrement(self, addr: Address, amount: int = 1) -> None:
        """A software-side operation on ``addr`` completed."""
        decrements = self._decrements
        if decrements is None:
            decrements = self._decrements = self.stats.counter(
                "omu_decrements"
            )
        decrements.value += amount
        for i in self._indices(addr):
            if self._saturated[i]:
                # Sticky: this counter under-counted at least once, so a
                # decrement cannot prove anything -- hold at the ceiling.
                self.stats.counter("omu_sticky_holds").inc()
                continue
            if self._counters[i] < amount:
                # Legal programs never underflow; tolerate (and count)
                # misuse the way saturating hardware would.
                self.stats.counter("omu_underflows").inc()
                self._counters[i] = 0
            else:
                self._counters[i] -= amount

    def reset(self) -> None:
        """Explicit drain (object-destroy / quiescence): clears every
        counter *and* every sticky-saturation flag -- the only legal way
        a saturated counter returns to service."""
        self.stats.counter("omu_resets").inc()
        self._counters = [0] * self.params.n_counters
        self._saturated = [False] * self.params.n_counters

    @property
    def total(self) -> int:
        return sum(self._counters)

    def saturated_counters(self) -> int:
        """How many counters are currently sticky-saturated."""
        return sum(self._saturated)

    def snapshot(self) -> List[int]:
        return list(self._counters)


class CountingBloomOmu(OverflowManagementUnit):
    """Counting-Bloom-filter OMU: ``k`` hashed positions per address.

    ``is_active`` is true iff *all* k positions are non-zero, so an
    address with software activity always reads active (no false
    negatives), while aliasing-induced false positives drop roughly
    exponentially with k.
    """

    def _indices(self, addr: Address) -> List[int]:
        line = addr >> self._line_shift
        out = []
        for k in range(self.params.bloom_hashes):
            digest = hashlib.blake2b(
                line.to_bytes(8, "little"), digest_size=4, salt=bytes([k])
            ).digest()
            out.append(int.from_bytes(digest, "little") % self.params.n_counters)
        return out

    def is_active(self, addr: Address) -> bool:
        return all(self._counters[i] > 0 for i in self._indices(addr))


def make_omu(params: OMUParams, stats: StatSet, line_shift: int = 6):
    """Build the OMU variant selected by the configuration."""
    cls = CountingBloomOmu if params.use_bloom else OverflowManagementUnit
    return cls(params, stats, line_shift)
