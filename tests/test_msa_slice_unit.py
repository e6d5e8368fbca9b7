"""Fine-grained unit tests for MSA slice internals: NBTC selection,
entry lifecycle predicates, type checking, and the stats surface."""

import pytest

from repro.common.errors import ProtocolError
from repro.common.params import MSAParams, OMUParams
from repro.common.stats import StatSet
from repro.common.types import SyncOp, SyncResult, SyncType
from repro.harness.configs import build_machine
from repro.msa.entry import MSAEntry
from tests.conftest import run_threads


class TestEntryPredicates:
    def test_fresh_lock_entry_evictable(self):
        entry = MSAEntry(addr=0x100, sync_type=SyncType.LOCK)
        assert entry.hwqueue_empty()
        assert entry.evictable()
        assert not entry.idle_cached()

    def test_owner_blocks_eviction(self):
        entry = MSAEntry(addr=0x100, sync_type=SyncType.LOCK, owner=3)
        assert not entry.hwqueue_empty()
        assert not entry.evictable()

    def test_waiters_block_eviction(self):
        entry = MSAEntry(addr=0x100, sync_type=SyncType.LOCK)
        entry.waiters[5] = 17
        assert not entry.evictable()

    def test_pin_blocks_eviction(self):
        entry = MSAEntry(addr=0x100, sync_type=SyncType.LOCK, pin_count=1)
        assert not entry.evictable()

    def test_hwsync_makes_idle_cached(self):
        entry = MSAEntry(addr=0x100, sync_type=SyncType.LOCK, hwsync_core=2)
        assert not entry.evictable()
        assert entry.idle_cached()

    def test_revoking_blocks_both(self):
        entry = MSAEntry(
            addr=0x100, sync_type=SyncType.LOCK, hwsync_core=2, revoking=True
        )
        assert not entry.evictable()
        assert not entry.idle_cached()

    def test_reserved_blocks_eviction(self):
        entry = MSAEntry(addr=0x100, sync_type=SyncType.CONDVAR, reserved=True)
        assert not entry.evictable()

    def test_repr_is_informative(self):
        entry = MSAEntry(addr=0x200, sync_type=SyncType.BARRIER)
        assert "barrier" in repr(entry)
        assert "0x200" in repr(entry)


class TestNBTCSelection:
    def _slice(self, machine):
        return machine.msa_slice(0)

    def test_round_robin_advances(self, machine16):
        s = self._slice(machine16)
        entry = MSAEntry(addr=0x100, sync_type=SyncType.LOCK)
        entry.waiters = {3: 1, 7: 2, 12: 3}
        s.nbtc = 0
        assert s._select_waiter(entry) == 3
        assert s.nbtc == 4
        assert s._select_waiter(entry) == 7
        assert s.nbtc == 8
        assert s._select_waiter(entry) == 12
        assert s.nbtc == 13

    def test_wraps_around(self, machine16):
        s = self._slice(machine16)
        entry = MSAEntry(addr=0x100, sync_type=SyncType.LOCK)
        entry.waiters = {2: 1}
        s.nbtc = 10
        assert s._select_waiter(entry) == 2
        assert s.nbtc == 3

    def test_empty_queue_raises(self, machine16):
        s = self._slice(machine16)
        entry = MSAEntry(addr=0x100, sync_type=SyncType.LOCK)
        with pytest.raises(ProtocolError):
            s._select_waiter(entry)

    def test_nbtc_shared_across_entries(self, machine16):
        """One NBTC register per slice, not per entry (paper 4.1)."""
        s = self._slice(machine16)
        a = MSAEntry(addr=0x100, sync_type=SyncType.LOCK)
        a.waiters = {1: 1, 9: 2}
        b = MSAEntry(addr=0x200, sync_type=SyncType.LOCK)
        b.waiters = {1: 3, 9: 4}
        s.nbtc = 0
        assert s._select_waiter(a) == 1  # nbtc -> 2
        assert s._select_waiter(b) == 9  # continues from 2

    @pytest.mark.parametrize("hw_threads", [1, 2])
    def test_matches_position_scan(self, machine16, hw_threads):
        """The min over the waiters picks the requester the hardware's
        position-by-position scan from NBTC would, and leaves NBTC in the
        same state, over random waiter sets and NBTC values."""
        import random

        s = self._slice(machine16)
        s.hw_threads = hw_threads
        n = 16 * hw_threads

        def scan(waiters, nbtc):
            for offset in range(n):
                candidate = (nbtc + offset) % n
                if candidate in waiters:
                    return candidate, (candidate + 1) % n
            raise AssertionError("empty")

        rng = random.Random(hw_threads)
        for _ in range(500):
            entry = MSAEntry(addr=0x100, sync_type=SyncType.LOCK)
            for requester in rng.sample(range(n), rng.randint(1, n)):
                entry.waiters[requester] = 0
            s.nbtc = rng.randrange(n)
            expected = scan(entry.waiters, s.nbtc)
            assert (s._select_waiter(entry), s.nbtc) == expected


class TestTypeChecking:
    def test_mixed_type_use_raises(self, machine16):
        m = machine16
        addr = m.allocator.sync_var()

        def body(th):
            yield from th.sync(SyncOp.LOCK, addr)
            yield from th.sync(SyncOp.BARRIER, addr, aux=2)

        m.scheduler.spawn(body)
        with pytest.raises(ProtocolError):
            m.run(max_events=500_000)

    def test_capacity_invariant_checked(self):
        m = build_machine("msa-omu-1", n_cores=4)
        slice_ = m.msa_slice(0)
        slice_.entries[0x1] = MSAEntry(addr=0x1, sync_type=SyncType.LOCK)
        slice_.entries[0x2] = MSAEntry(addr=0x2, sync_type=SyncType.LOCK)
        with pytest.raises(ProtocolError):
            slice_.check_invariants()


class TestSliceStats:
    def test_coverage_counters_balance(self, machine16):
        m = machine16
        addr = m.allocator.sync_var()

        def body(th):
            for _ in range(3):
                yield from th.lock(addr)
                yield from th.unlock(addr)
                yield from th.compute(60)

        run_threads(m, [body] * 4)
        counters = m.msa_counters()
        issued = m.sync_unit_counters()
        total_hw_sw = (
            counters.get("ops_hw", 0)
            + counters.get("ops_sw", 0)
            + counters.get("ops_aborted", 0)
        )
        total_issued = (
            issued.get("issued.lock", 0) + issued.get("issued.unlock", 0)
        )
        # Every issued op is accounted once (silent ops count at the
        # slice when the notification arrives).
        assert total_hw_sw == total_issued

    def test_ops_by_kind_recorded(self, machine16):
        m = machine16
        lock = m.allocator.sync_var()
        barrier = m.allocator.sync_var()

        def body(th):
            yield from th.lock(lock)
            yield from th.unlock(lock)
            yield from th.barrier(barrier, 2)

        run_threads(m, [body] * 2)
        counters = m.msa_counters()
        assert counters.get("req.lock", 0) >= 1
        assert counters.get("req.barrier", 0) == 2


class TestLazyCounters:
    """A slice binds its counter handles on first use, so its counter
    *set* (part of the determinism contract) only names what ran."""

    LAZY = (
        "omu_steered_sw", "alloc_full", "entries_allocated",
        "alloc_deferred", "reclaims_started", "revokes_sent",
        "entries_freed", "entries_evicted", "cond_reserve_failures",
        "silent_acquires", "ops_hw", "barrier_releases",
        "omu_increments", "omu_decrements",
    )

    def test_idle_slice_registers_no_counters(self, machine16):
        for tile in range(16):
            counters = machine16.msa_slice(tile).stats.counters
            assert not set(self.LAZY) & set(counters)

    def test_one_allocation_registers_only_entries_allocated(self, machine16):
        s = machine16.msa_slice(0)
        entry = s._try_allocate(0x1000, SyncType.LOCK)
        assert entry is s.entries[0x1000]
        assert s.stats.counters == {"entries_allocated": 1}

