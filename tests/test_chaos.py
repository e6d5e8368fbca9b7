"""Chaos testing: random scheduler interference (suspensions, delayed
resumptions, migrations) and NoC fault plans (dropped, duplicated,
delayed accelerator messages) injected into synchronization-heavy
workloads.  Whatever the interleaving or the message losses, the
runtime must preserve mutual exclusion, barrier episode integrity, OMU
balance, and MESI safety, and every thread must terminate.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults import FaultPlan, MessageFault, SliceFault, FLAKY_DROP
from repro.harness.configs import build_machine


def run_chaos_locks(config, n_threads, iters, interruptions, seed):
    """Lock workload with scripted suspend/resume interference.

    ``interruptions``: list of (victim, suspend_at, resume_delay,
    migrate_to_offset) tuples.
    """
    m = build_machine(config, n_cores=16, seed=seed)
    lock = m.allocator.sync_var()
    counter = m.allocator.line()
    threads = []

    def body(th):
        for _ in range(iters):
            yield from th.lock(lock)
            value = yield from th.load(counter)
            yield from th.compute(9)
            yield from th.store(counter, value + 1)
            yield from th.unlock(lock)
            yield from th.compute(20)

    for _ in range(n_threads):
        threads.append(m.scheduler.spawn(body))

    # Spare cores for migrations (threads occupy 0..n_threads-1).
    spare = list(range(n_threads, 16))
    busy_spares = set()

    def schedule_interruption(victim_idx, at, resume_delay, migrate):
        victim = threads[victim_idx % n_threads]

        def suspend():
            if victim.finished or victim.suspended:
                return
            m.scheduler.suspend(victim)
            target = None
            if migrate and spare:
                candidate = spare[victim_idx % len(spare)]
                if candidate not in busy_spares:
                    target = candidate
                    busy_spares.add(candidate)

            def resume():
                if victim.suspended:
                    m.scheduler.resume(victim, core=target)

            m.sim.schedule(resume_delay, resume)

        m.sim.schedule(at, suspend)

    for victim_idx, at, resume_delay, migrate in interruptions:
        schedule_interruption(victim_idx, at, resume_delay, migrate)

    m.run(max_events=10_000_000)
    m.check_invariants()
    assert m.memory.peek(counter) == n_threads * iters
    assert m.omu_totals() == 0


@settings(max_examples=15, deadline=None)
@given(
    config=st.sampled_from(["msa-omu-2", "msa-omu-1", "msa-inf"]),
    n_threads=st.integers(2, 6),
    iters=st.integers(2, 5),
    interruptions=st.lists(
        st.tuples(
            st.integers(0, 5),        # victim
            st.integers(50, 4000),    # suspend time
            st.integers(300, 3000),   # resume delay
            st.booleans(),            # migrate
        ),
        max_size=4,
    ),
    seed=st.integers(0, 1000),
)
# A LOCK squashed by a suspension whose ABORT (a migrated owner's
# UNLOCK handed the waiters to software) was already in flight: the
# home charged the OMU for a fallback the thread never runs.
@example(
    config="msa-omu-2",
    n_threads=3,
    iters=5,
    interruptions=[
        (3, 3668, 2813, False),
        (3, 2120, 910, True),
        (2, 612, 2802, True),
        (1, 3683, 2159, False),
    ],
    seed=159,
)
def test_property_lock_chaos(config, n_threads, iters, interruptions, seed):
    run_chaos_locks(config, n_threads, iters, interruptions, seed)


@settings(max_examples=10, deadline=None)
@given(
    n_threads=st.integers(2, 6),
    episodes=st.integers(1, 4),
    interruptions=st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(50, 3000),
            st.integers(300, 2500),
        ),
        max_size=3,
    ),
    seed=st.integers(0, 1000),
)
def test_property_barrier_chaos(n_threads, episodes, interruptions, seed):
    """Random suspensions of barrier participants: every episode still
    releases every thread exactly once (ABORT -> software fallback)."""
    m = build_machine("msa-omu-2", n_cores=16, seed=seed)
    barrier = m.allocator.sync_var()
    releases = {i: 0 for i in range(n_threads)}
    threads = []

    def make_body(i):
        def body(th):
            for _ in range(episodes):
                yield from th.compute(20 * (i + 1))
                yield from th.barrier(barrier, n_threads)
                releases[i] += 1
        return body

    for i in range(n_threads):
        threads.append(m.scheduler.spawn(make_body(i)))

    for victim_idx, at, resume_delay in interruptions:
        victim = threads[victim_idx % n_threads]

        def suspend(v=victim, delay=resume_delay):
            if v.finished or v.suspended:
                return
            m.scheduler.suspend(v)
            m.sim.schedule(
                delay, lambda: m.scheduler.resume(v) if v.suspended else None
            )

        m.sim.schedule(at, suspend)

    m.run(max_events=10_000_000)
    m.check_invariants()
    assert all(count == episodes for count in releases.values())
    assert m.omu_totals() == 0


@settings(max_examples=8, deadline=None)
@given(
    n_waiters=st.integers(1, 4),
    suspend_at=st.integers(100, 2500),
    resume_delay=st.integers(300, 2000),
    seed=st.integers(0, 1000),
)
def test_property_condvar_chaos(n_waiters, suspend_at, resume_delay, seed):
    """A condvar waiter suspended at a random moment: the broadcast
    still wakes everyone, no spurious-wakeup loop hangs, the lock's pin
    count drains to zero."""
    m = build_machine("msa-omu-2", n_cores=16, seed=seed)
    lock = m.allocator.sync_var()
    cond = m.allocator.sync_var()
    flag = m.allocator.line()
    woke = []
    threads = []

    def waiter(th):
        yield from th.lock(lock)
        while True:
            value = yield from th.load(flag)
            if value:
                break
            yield from th.cond_wait(cond, lock)
        woke.append(th.tid)
        yield from th.unlock(lock)

    def caster(th):
        yield from th.compute(4000)
        yield from th.lock(lock)
        yield from th.store(flag, 1)
        yield from th.cond_broadcast(cond)
        yield from th.unlock(lock)

    for _ in range(n_waiters):
        threads.append(m.scheduler.spawn(waiter))
    m.scheduler.spawn(caster)

    victim = threads[0]

    def suspend():
        if not victim.finished and not victim.suspended:
            m.scheduler.suspend(victim)
            m.sim.schedule(
                resume_delay,
                lambda: m.scheduler.resume(victim) if victim.suspended else None,
            )

    m.sim.schedule(suspend_at, suspend)
    m.run(max_events=10_000_000)
    m.check_invariants()
    assert sorted(woke) == list(range(n_waiters))
    home = m.memory.amap.home_of(lock)
    entry = m.msa_slice(home).entry_for(lock)
    assert entry is None or entry.pin_count == 0
    assert m.omu_totals() == 0


# ---------------------------------------------------------------------------
# NoC fault plans: dropped / duplicated / delayed accelerator messages
# ---------------------------------------------------------------------------
message_fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 1000),
    messages=st.lists(
        st.builds(
            MessageFault,
            kind_prefix=st.sampled_from(["msa", "msa.req", "msa_cpu"]),
            drop_prob=st.floats(0.0, 0.25),
            dup_prob=st.floats(0.0, 0.25),
            dup_delay=st.integers(1, 60),
            delay_prob=st.floats(0.0, 0.25),
            delay_cycles=st.integers(1, 120),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
)


@pytest.mark.chaos
@settings(max_examples=12, deadline=None)
@given(
    plan=message_fault_plans,
    n_threads=st.integers(2, 6),
    iters=st.integers(2, 5),
    seed=st.integers(0, 1000),
)
def test_property_noc_fault_locks(plan, n_threads, iters, seed):
    """Under arbitrary drop/dup/delay plans, the lock workload keeps
    mutual exclusion (the shared counter is exact), every thread
    terminates, and the OMU drains back to zero."""
    m = build_machine("msa-omu-2", n_cores=16, seed=seed, fault_plan=plan)
    lock = m.allocator.sync_var()
    counter = m.allocator.line()

    def body(th):
        for _ in range(iters):
            yield from th.lock(lock)
            value = yield from th.load(counter)
            yield from th.compute(9)
            yield from th.store(counter, value + 1)
            yield from th.unlock(lock)
            yield from th.compute(20)

    for _ in range(n_threads):
        m.scheduler.spawn(body)
    m.run(max_events=10_000_000)
    m.check_invariants()
    assert m.memory.peek(counter) == n_threads * iters
    assert m.omu_totals() == 0
    assert not m.degraded_tiles()


@pytest.mark.chaos
@settings(max_examples=10, deadline=None)
@given(
    plan=message_fault_plans,
    n_threads=st.integers(2, 6),
    episodes=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_property_noc_fault_barriers(plan, n_threads, episodes, seed):
    """Barrier episodes stay atomic under message faults: every thread
    is released exactly once per episode, in lockstep."""
    m = build_machine("msa-omu-2", n_cores=16, seed=seed, fault_plan=plan)
    barrier = m.allocator.sync_var()
    releases = {i: 0 for i in range(n_threads)}

    def make_body(i):
        def body(th):
            for episode in range(episodes):
                yield from th.compute(15 * (i + 1))
                yield from th.barrier(barrier, n_threads)
                releases[i] += 1
                # Lockstep check: nobody may be a full episode ahead.
                assert all(
                    abs(releases[j] - releases[i]) <= 1
                    for j in range(n_threads)
                )
        return body

    for i in range(n_threads):
        m.scheduler.spawn(make_body(i))
    m.run(max_events=10_000_000)
    m.check_invariants()
    assert all(count == episodes for count in releases.values())
    assert m.omu_totals() == 0
    assert not m.degraded_tiles()


def test_drop_plan_forces_retransmissions():
    """A heavy drop plan must visibly exercise the reliable transport
    (retransmits > 0) while the workload still completes correctly."""
    plan = FaultPlan(
        seed=9, messages=(MessageFault(kind_prefix="msa", drop_prob=0.15),)
    )
    m = build_machine("msa-omu-2", n_cores=16, seed=21, fault_plan=plan)
    lock = m.allocator.sync_var()
    counter = m.allocator.line()

    def body(th):
        for _ in range(12):
            yield from th.lock(lock)
            value = yield from th.load(counter)
            yield from th.store(counter, value + 1)
            yield from th.unlock(lock)

    for _ in range(8):
        m.scheduler.spawn(body)
    m.run(max_events=10_000_000)
    counters = m.fault_counters()
    assert counters["msgs_dropped"] > 0
    assert counters["retransmits"] > 0
    assert m.memory.peek(counter) == 8 * 12
    assert m.omu_totals() == 0


def test_flaky_slice_forces_unit_retries():
    """A slice silently ignoring requests (below the wire, so the
    transport cannot see it) must be recovered by the sync units'
    end-to-end retry machinery."""
    plan = FaultPlan(
        seed=4,
        slices=(
            SliceFault(tile=0, at=0, mode=FLAKY_DROP, until=None, prob=0.4),
        ),
    )
    m = build_machine("msa-omu-2", n_cores=16, seed=33, fault_plan=plan)
    lock = m.allocator.sync_var(home=0)
    counter = m.allocator.line()

    def body(th):
        for _ in range(10):
            yield from th.lock(lock)
            value = yield from th.load(counter)
            yield from th.store(counter, value + 1)
            yield from th.unlock(lock)

    for _ in range(6):
        m.scheduler.spawn(body)
    m.run(max_events=10_000_000)
    counters = m.fault_counters()
    assert counters["flaky_drops"] > 0
    assert counters["retries"] > 0
    assert not m.degraded_tiles()
    assert m.memory.peek(counter) == 6 * 10
    assert m.omu_totals() == 0
