"""Tests for the thread runtime: ThreadCtx primitives, spin helper,
and the interaction between memory ops and suspension checkpoints."""

import pytest

from repro.common.errors import SimulationError
from repro.common.types import SyncOp, SyncResult
from repro.harness.configs import build_machine
from tests.conftest import run_threads


class TestPrimitives:
    def test_compute_advances_clock(self):
        m = build_machine("pthread", n_cores=4)
        marks = []

        def body(th):
            t0 = th.sim.now
            yield from th.compute(123)
            marks.append(th.sim.now - t0)

        run_threads(m, [body])
        assert marks == [123]

    def test_compute_zero_is_free(self):
        m = build_machine("pthread", n_cores=4)
        marks = []

        def body(th):
            t0 = th.sim.now
            yield from th.compute(0)
            marks.append(th.sim.now - t0)

        run_threads(m, [body])
        assert marks == [0]

    def test_rmw_helpers(self):
        m = build_machine("pthread", n_cores=4)
        got = []

        def body(th):
            addr = 1 << 22
            got.append((yield from th.fetch_add(addr, 5)))
            got.append((yield from th.swap(addr, 100)))
            got.append((yield from th.compare_and_swap(addr, 100, 7)))
            got.append((yield from th.compare_and_swap(addr, 999, 0)))
            got.append((yield from th.load(addr)))
            got.append((yield from th.test_and_set(addr + 64)))

        run_threads(m, [body])
        assert got == [0, 5, 100, 7, 7, 0]

    def test_spin_until_returns_matching_value(self):
        m = build_machine("pthread", n_cores=4)
        results = []

        def setter(th):
            yield from th.compute(900)
            yield from th.store(1 << 22, 42)

        def spinner(th):
            value = yield from th.spin_until(1 << 22, lambda v: v == 42)
            results.append((value, th.sim.now))

        run_threads(m, [setter, spinner])
        assert results[0][0] == 42
        assert results[0][1] >= 900

    def test_spin_backoff_bounds_poll_count(self):
        m = build_machine("pthread", n_cores=4)

        def setter(th):
            yield from th.compute(5000)
            yield from th.store(1 << 22, 1)

        def spinner(th):
            yield from th.spin_until(1 << 22, lambda v: v == 1, max_backoff=64)

        m.scheduler.spawn(setter, core=0)
        m.scheduler.spawn(spinner, core=1)
        m.run()
        ctx = m.scheduler.contexts[1]
        # 5000 cycles at >= 64-cycle cap: well under 120 polls.
        assert ctx.stats.counter("spin_polls").value < 120

    def test_core_property_requires_scheduling(self):
        m = build_machine("pthread", n_cores=4)
        from repro.runtime.thread import SimThread, ThreadCtx

        ctx = ThreadCtx(m, SimThread(99))
        with pytest.raises(SimulationError):
            _ = ctx.core


class TestSyncStatsAndResults:
    def test_plain_thread_registers_no_spin_or_sync_counters(self):
        """Spin and sync counter handles are bound on first use: a
        thread that only loads, stores and computes reports none."""
        m = build_machine("msa-omu-2", n_cores=16)
        addr = m.allocator.line()

        def body(th):
            yield from th.store(addr, 1)
            yield from th.load(addr)
            yield from th.compute(10)

        m.scheduler.spawn(body)
        m.run()
        names = m.scheduler.contexts[0].stats.counters
        assert "spin_polls" not in names
        assert not [name for name in names if name.startswith("sync.")]

    def test_sync_stats_recorded(self):
        m = build_machine("msa-omu-2", n_cores=16)
        addr = m.allocator.sync_var()

        def body(th):
            yield from th.sync(SyncOp.LOCK, addr)
            yield from th.sync(SyncOp.UNLOCK, addr)

        m.scheduler.spawn(body)
        m.run()
        ctx = m.scheduler.contexts[0]
        assert ctx.stats.counter("sync.lock.success").value == 1

    def test_msa0_sync_returns_fail_fast(self):
        m = build_machine("msa0", n_cores=16)
        addr = m.allocator.sync_var()
        spans = []

        def body(th):
            t0 = th.sim.now
            result = yield from th.sync(SyncOp.LOCK, addr)
            spans.append((result, th.sim.now - t0))
            yield from th.sync(SyncOp.UNLOCK, addr)

        run_threads(m, [body])
        result, span = spans[0]
        assert result is SyncResult.FAIL
        # Locally failed: no NoC round trip.
        assert span <= 2 * m.params.core.sync_fence_latency

    def test_finish_completes_quickly(self):
        m = build_machine("msa-omu-2", n_cores=16)
        addr = m.allocator.sync_var()
        spans = []

        def body(th):
            t0 = th.sim.now
            yield from th.sync(SyncOp.FINISH, addr)
            spans.append(th.sim.now - t0)

        run_threads(m, [body])
        # Fire-and-forget: completes at injection, no round trip.
        assert spans[0] <= m.params.core.sync_fence_latency + 2


class TestHighLevelApi:
    def test_ctx_lock_unlock_roundtrip(self):
        m = build_machine("msa-omu-2", n_cores=16)
        addr = m.allocator.sync_var()
        order = []

        def body(th):
            yield from th.lock(addr)
            order.append(("locked", th.tid))
            yield from th.unlock(addr)
            order.append(("unlocked", th.tid))

        run_threads(m, [body])
        assert order == [("locked", 0), ("unlocked", 0)]

    def test_barrier_api(self):
        m = build_machine("msa-omu-2", n_cores=16)
        addr = m.allocator.sync_var()
        done = []

        def body(th):
            yield from th.barrier(addr, 3)
            done.append(th.tid)

        run_threads(m, [body] * 3)
        assert sorted(done) == [0, 1, 2]
