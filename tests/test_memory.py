"""Unit and property tests for the coherent memory hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import MachineParams
from repro.common.types import CacheState
from repro.machine import Machine
from repro.mem.address import AddressAllocator, AddressMap


def make_machine(n_cores=4, **kwargs):
    return Machine(MachineParams(n_cores=n_cores, **kwargs), library="pthread")


class TestAddressMap:
    def test_line_arithmetic(self):
        amap = AddressMap(16, line_size=64)
        assert amap.line_of(0) == 0
        assert amap.line_of(63) == 0
        assert amap.line_of(64) == 1
        assert amap.line_base(130) == 128

    def test_home_interleaving(self):
        amap = AddressMap(16, line_size=64)
        homes = [amap.home_of(line * 64) for line in range(32)]
        assert homes == list(range(16)) * 2

    def test_addr_with_home_round_trips(self):
        amap = AddressMap(16)
        for home in range(16):
            for index in (0, 1, 7):
                addr = amap.addr_with_home(home, index)
                assert amap.home_of(addr) == home

    def test_allocator_sync_vars_distinct_lines(self):
        amap = AddressMap(16)
        alloc = AddressAllocator(amap)
        addrs = [alloc.sync_var() for _ in range(100)]
        lines = {amap.line_of(a) for a in addrs}
        assert len(lines) == 100

    def test_allocator_homed_sync_vars(self):
        amap = AddressMap(16)
        alloc = AddressAllocator(amap)
        for home in (0, 7, 15):
            for _ in range(3):
                assert amap.home_of(alloc.sync_var(home=home)) == home

    def test_allocator_never_reuses(self):
        amap = AddressMap(4)
        alloc = AddressAllocator(amap)
        seen = set()
        for _ in range(50):
            a = alloc.line()
            assert a not in seen
            seen.add(a)
        for home in range(4):
            for _ in range(10):
                a = alloc.sync_var(home=home)
                assert a not in seen
                seen.add(a)


class TestBasicAccess:
    def test_load_of_untouched_address_is_zero(self):
        m = make_machine()
        got = []
        m.memory.l1s[0].load(1 << 20).add_callback(got.append)
        m.sim.run()
        assert got == [0]

    def test_store_then_load_same_core(self):
        m = make_machine()
        got = []

        def body(th):
            yield from th.store(4096, 77)
            value = yield from th.load(4096)
            got.append(value)

        m.scheduler.spawn(body)
        m.run()
        assert got == [77]

    def test_store_visible_to_other_core(self):
        m = make_machine()
        got = []

        def writer(th):
            yield from th.store(8192, 5)

        def reader(th):
            yield from th.compute(500)
            value = yield from th.load(8192)
            got.append(value)

        m.scheduler.spawn(writer, core=0)
        m.scheduler.spawn(reader, core=1)
        m.run()
        assert got == [5]

    def test_rmw_returns_old_value(self):
        m = make_machine()
        got = []

        def body(th):
            old0 = yield from th.fetch_add(4096, 10)
            old1 = yield from th.fetch_add(4096, 1)
            got.extend([old0, old1])

        m.scheduler.spawn(body)
        m.run()
        assert got == [0, 10]

    def test_hit_faster_than_miss(self):
        m = make_machine()
        times = []

        def body(th):
            t0 = th.sim.now
            yield from th.load(1 << 22)
            t1 = th.sim.now
            yield from th.load(1 << 22)
            t2 = th.sim.now
            times.extend([t1 - t0, t2 - t1])

        m.scheduler.spawn(body)
        m.run()
        miss, hit = times
        assert hit < miss
        assert hit == m.params.l1.hit_latency


class TestMESIProtocol:
    def _line_state(self, m, core, addr):
        return m.memory.l1s[core].state_of(addr >> 6)

    def test_first_reader_gets_exclusive(self):
        m = make_machine()
        addr = 1 << 22

        def body(th):
            yield from th.load(addr)

        m.scheduler.spawn(body, core=0)
        m.run()
        assert self._line_state(m, 0, addr) is CacheState.EXCLUSIVE

    def test_second_reader_downgrades_to_shared(self):
        m = make_machine()
        addr = 1 << 22

        def reader(th):
            yield from th.load(addr)

        m.scheduler.spawn(reader, core=0)
        m.scheduler.spawn(
            lambda th: (yield from th.compute(300)) or (yield from th.load(addr)),
            core=1,
        )
        m.run()
        assert self._line_state(m, 0, addr) is CacheState.SHARED
        assert self._line_state(m, 1, addr) is CacheState.SHARED

    def test_writer_invalidates_readers(self):
        m = make_machine()
        addr = 1 << 22
        done = []

        def reader(th):
            yield from th.load(addr)

        def writer(th):
            yield from th.compute(400)
            yield from th.store(addr, 9)
            done.append(th.sim.now)

        m.scheduler.spawn(reader, core=0)
        m.scheduler.spawn(reader, core=1)
        m.scheduler.spawn(writer, core=2)
        m.run()
        assert self._line_state(m, 0, addr) is CacheState.INVALID
        assert self._line_state(m, 1, addr) is CacheState.INVALID
        assert self._line_state(m, 2, addr) is CacheState.MODIFIED

    def test_store_upgrades_exclusive_to_modified_silently(self):
        m = make_machine()
        addr = 1 << 22
        counts = {}

        def body(th):
            yield from th.load(addr)
            counts["after_load"] = m.network.stats.counter("messages_sent").value
            yield from th.store(addr, 1)
            counts["after_store"] = m.network.stats.counter("messages_sent").value

        m.scheduler.spawn(body, core=0)
        m.run()
        assert self._line_state(m, 0, addr) is CacheState.MODIFIED
        assert counts["after_store"] == counts["after_load"]

    def test_concurrent_rmw_serialize(self):
        m = make_machine()
        addr = 1 << 22
        olds = []

        def body(th):
            old = yield from th.test_and_set(addr)
            olds.append(old)

        for core in range(4):
            m.scheduler.spawn(body, core=core)
        m.run()
        m.check_invariants()
        # Exactly one winner saw 0; the rest saw 1.
        assert sorted(olds) == [0, 1, 1, 1]

    def test_invariants_after_heavy_sharing(self):
        m = make_machine()
        addr = 1 << 22

        def body(th):
            for i in range(20):
                yield from th.fetch_add(addr, 1)
                yield from th.load(addr + 64)
                yield from th.compute(7)

        for core in range(4):
            m.scheduler.spawn(body, core=core)
        m.run()
        m.check_invariants()
        assert m.memory.peek(addr) == 80


class TestEviction:
    def test_capacity_eviction_writes_back(self):
        m = make_machine()
        # Fill one set past associativity with modified lines.
        amap = m.memory.amap
        n_sets = m.params.l1.n_sets
        assoc = m.params.l1.associativity
        base = 1 << 22
        addrs = [base + i * n_sets * 64 for i in range(assoc + 2)]

        def body(th):
            for a in addrs:
                yield from th.store(a, 1)
            # The first address was evicted; reading it again must still
            # see the written value (writeback correctness).
            value = yield from th.load(addrs[0])
            assert value == 1

        m.scheduler.spawn(body, core=0)
        m.run()
        m.check_invariants()
        assert m.memory.l1s[0].stats.counter("evictions").value >= 2

    def test_evicted_line_readable_by_other_core(self):
        m = make_machine()
        n_sets = m.params.l1.n_sets
        assoc = m.params.l1.associativity
        base = 1 << 22
        addrs = [base + i * n_sets * 64 for i in range(assoc + 1)]
        got = []

        def writer(th):
            for a in addrs:
                yield from th.store(a, 42)

        def reader(th):
            yield from th.compute(3000)
            value = yield from th.load(addrs[0])
            got.append(value)

        m.scheduler.spawn(writer, core=0)
        m.scheduler.spawn(reader, core=1)
        m.run()
        m.check_invariants()
        assert got == [42]


class TestLazyCounters:
    """Counter *sets* are part of the determinism contract: a directory
    slice's cached counter handles are bound lazily, so it registers a
    per-request counter only once a request touches it."""

    def test_idle_directory_has_no_counters(self):
        m = make_machine()
        assert all(d.stats.counters == {} for d in m.memory.directories)

    def test_one_gets_registers_exactly_its_counters(self):
        m = make_machine()
        addr = 1 << 22
        home = m.memory.amap.home_of(addr)

        def body(th):
            yield from th.load(addr)

        m.scheduler.spawn(body, core=0)
        m.run()
        for tile, directory in enumerate(m.memory.directories):
            expected = {"gets": 1, "cold_misses": 1} if tile == home else {}
            assert directory.stats.counters == expected


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 3),  # core
            st.sampled_from(["load", "store", "rmw"]),
            st.integers(0, 5),  # which line
        ),
        min_size=1,
        max_size=60,
    )
)
def test_property_mesi_safety_and_linearizable_counters(ops):
    """Random mixes of loads/stores/RMWs across cores preserve MESI
    invariants, and per-line RMW counts equal the number of RMWs."""
    m = make_machine()
    base = 1 << 22
    rmw_counts = {}
    per_core_ops = {0: [], 1: [], 2: [], 3: []}
    for core, kind, line in ops:
        per_core_ops[core].append((kind, base + line * 64))
        if kind == "rmw":
            rmw_counts[line] = rmw_counts.get(line, 0) + 1

    def make_body(oplist):
        def body(th):
            for kind, addr in oplist:
                if kind == "load":
                    yield from th.load(addr)
                elif kind == "store":
                    # Stores write a sentinel to a *different* word of the
                    # line so they don't clobber the RMW counter word.
                    yield from th.store(addr + 8, 1)
                else:
                    yield from th.fetch_add(addr, 1)
        return body

    for core, oplist in per_core_ops.items():
        if oplist:
            m.scheduler.spawn(make_body(oplist), core=core)
    m.run()
    m.check_invariants()
    for line, count in rmw_counts.items():
        assert m.memory.peek(base + line * 64) == count
