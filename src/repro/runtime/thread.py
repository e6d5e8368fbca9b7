"""Simulated threads.

A thread body is a generator function taking a :class:`ThreadCtx` and
composing the context's operation helpers with ``yield from``::

    def body(th):
        yield from th.compute(100)
        value = yield from th.load(addr)
        result = yield from th.sync(SyncOp.LOCK, lock_addr)

The context routes memory operations to the thread's *current* core
(migration changes the core), implements the suspend/squash/re-execute
protocol for synchronization instructions, and records per-thread stats.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.common.errors import SimulationError
from repro.common.stats import StatSet
from repro.common.types import Address, SyncOp, SyncResult, ThreadId
from repro.msa.isa import SQUASHED
from repro.sim.kernel import Future, Simulator


class SimThread:
    """Bookkeeping for one software thread."""

    def __init__(self, tid: ThreadId, name: str = ""):
        self.tid = tid
        self.name = name or f"thread{tid}"
        self.core: Optional[int] = None
        self.slot: int = 0
        """Hardware thread context on the core (SMT slot)."""

        self.suspended = False
        self.finished = False
        self.resume_count = 0
        """Incremented on every resume: lets services detect that a
        suspension interleaved with a multi-step operation (e.g. the
        futex check-and-sleep, which must be atomic)."""

        self._resume_future: Optional[Future] = None

    def __repr__(self) -> str:
        return f"SimThread({self.name}, core={self.core})"


class ThreadCtx:
    """The execution context handed to a thread body.

    Wired up by the scheduler: ``machine`` must expose ``sim``,
    ``memory.l1s`` and ``sync_units`` (both indexed by core), and
    ``sync_library``.  Memory and sync operations go straight to the
    thread's current core's L1 and sync unit.
    """

    def __init__(self, machine, thread: SimThread):
        self.machine = machine
        self.sim: Simulator = machine.sim
        self.thread = thread
        self._l1s = machine.memory.l1s
        self._sync_units = machine.sync_units
        self.stats = StatSet(f"thread.{thread.tid}")
        self._probe = getattr(machine, "probe", None)
        """Checker event bus; ``None`` (the common case) keeps every
        operation on the original no-probe path."""

        self._sync_depth = 0
        """Nesting depth inside sync-library calls: memory operations
        performed by lock/barrier/condvar *internals* (futexes, MCS
        queues) are implementation detail, not workload shared state,
        and must not feed the race detector."""

        # Hot-path stat handles, registered lazily so a thread that
        # never spins or syncs keeps its pre-existing counter set.
        self._sync_counters: dict = {}
        self._spin_polls = None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def tid(self) -> ThreadId:
        return self.thread.tid

    @property
    def core(self) -> int:
        if self.thread.core is None:
            raise SimulationError(f"{self.thread} is not scheduled on a core")
        return self.thread.core

    # ------------------------------------------------------------------
    # Primitive operations (all used with ``yield from``)
    # ------------------------------------------------------------------
    def compute(self, cycles: int) -> Generator:
        """Spend ``cycles`` of local computation."""
        if cycles > 0:
            yield cycles
        return None

    def load(self, addr: Address) -> Generator:
        thread = self.thread
        value = yield self._l1s[thread.core].load(addr)
        if thread.suspended:
            yield from self._absorb_suspension()
        probe = self._probe
        if probe is not None and probe.mem_active and not self._sync_depth:
            probe.emit("mem_read", tid=thread.tid, addr=addr)
        return value

    def store(self, addr: Address, value: int) -> Generator:
        thread = self.thread
        yield self._l1s[thread.core].store(addr, value)
        if thread.suspended:
            yield from self._absorb_suspension()
        probe = self._probe
        if probe is not None and probe.mem_active and not self._sync_depth:
            probe.emit("mem_write", tid=thread.tid, addr=addr)
        return None

    def rmw(self, addr: Address, fn) -> Generator:
        """Atomic read-modify-write; returns the old value."""
        thread = self.thread
        old = yield self._l1s[thread.core].rmw(addr, fn)
        if thread.suspended:
            yield from self._absorb_suspension()
        probe = self._probe
        if probe is not None and probe.mem_active and not self._sync_depth:
            probe.emit("mem_atomic", tid=thread.tid, addr=addr)
        return old

    # The atomics below return the rmw generator itself rather than
    # wrapping it (``yield from th.fetch_add(...)`` works the same),
    # which saves a generator frame on every resume of the access.
    def fetch_add(self, addr: Address, delta: int = 1) -> Generator:
        return self.rmw(addr, lambda v: v + delta)

    def test_and_set(self, addr: Address) -> Generator:
        return self.rmw(addr, lambda v: 1)

    def swap(self, addr: Address, new: int) -> Generator:
        return self.rmw(addr, lambda v: new)

    def compare_and_swap(self, addr: Address, expect: int, new: int) -> Generator:
        return self.rmw(addr, lambda v: new if v == expect else v)

    def sync(self, op: SyncOp, addr: Address, aux: int = 0) -> Generator:
        """Execute a hardware synchronization instruction (section 3's
        ISA); returns a :class:`SyncResult`.

        Handles the suspension protocol: a squashed LOCK re-executes
        after resume (possibly on a different core), and any result that
        lands while the thread is suspended is consumed only after
        resume (paper sections 4.1.2 / 4.3.2).
        """
        thread = self.thread
        while True:
            result = yield self._sync_units[thread.core].issue(
                op, addr, aux, thread.slot
            )
            if result is SQUASHED:
                self.stats.counter("sync_squashed").inc()
                yield from self._absorb_suspension()
                continue
            if thread.suspended:
                yield from self._absorb_suspension()
            counter = self._sync_counters.get((op, result))
            if counter is None:
                counter = self._sync_counters[(op, result)] = self.stats.counter(
                    f"sync.{op.value}.{result.value}"
                )
            counter.value += 1
            return result

    def spin_until(self, addr: Address, predicate, max_backoff: int = 64) -> Generator:
        """Software spin-wait: poll ``addr`` through the cache until
        ``predicate(value)`` holds, with capped exponential backoff
        between polls (bounds simulation event count the same way real
        spin loops insert pause instructions)."""
        backoff = 4
        while True:
            value = yield from self.load(addr)
            if predicate(value):
                return value
            polls = self._spin_polls
            if polls is None:
                polls = self._spin_polls = self.stats.counter("spin_polls")
            polls.value += 1
            yield backoff
            backoff = min(max_backoff, backoff * 2)

    # ------------------------------------------------------------------
    # Suspension plumbing
    # ------------------------------------------------------------------
    def _absorb_suspension(self) -> Generator:
        """If the scheduler suspended this thread, park until resumed."""
        while self.thread.suspended:
            future = self.thread._resume_future
            if future is None:
                raise SimulationError(f"{self.thread} suspended without resume token")
            yield future
        return None

    # ------------------------------------------------------------------
    # High-level synchronization API (delegates to the machine's library)
    # ------------------------------------------------------------------
    # These wrappers are the checker probe's thread-level vantage point:
    # one call site per operation covers the hardware fast path, the
    # software fallback, and every recovery/retry flavor in between.
    # With no probe attached each returns the library's generator
    # itself, so resuming the operation passes through no wrapper frame.
    def _observed(self, op, addr, aux, before, after=None) -> Generator:
        """Run the library generator ``op`` between the ``before`` and
        ``after`` probe events, marked as sync-library internals."""
        probe = self._probe
        probe.emit(before, tid=self.tid, addr=addr, aux=aux)
        self._sync_depth += 1
        try:
            yield from op
        finally:
            self._sync_depth -= 1
        if after is not None:
            probe.emit(after, tid=self.tid, addr=addr, aux=aux)

    def lock(self, addr: Address) -> Generator:
        op = self.machine.sync_library.lock(self, addr)
        if self._probe is None:
            return op
        return self._observed(op, addr, None, "lock_req", "lock_acq")

    def unlock(self, addr: Address) -> Generator:
        op = self.machine.sync_library.unlock(self, addr)
        if self._probe is None:
            return op
        return self._observed(op, addr, None, "lock_rel")

    def barrier(self, addr: Address, goal: int) -> Generator:
        op = self.machine.sync_library.barrier(self, addr, goal)
        if self._probe is None:
            return op
        return self._observed(op, addr, goal, "barrier_enter", "barrier_exit")

    def cond_wait(self, cond: Address, lock: Address) -> Generator:
        op = self.machine.sync_library.cond_wait(self, cond, lock)
        if self._probe is None:
            return op
        return self._observed(op, cond, lock, "cond_wait_begin", "cond_wait_end")

    def cond_signal(self, cond: Address) -> Generator:
        op = self.machine.sync_library.cond_signal(self, cond)
        if self._probe is None:
            return op
        return self._observed(op, cond, 0, "cond_signal")

    def cond_broadcast(self, cond: Address) -> Generator:
        op = self.machine.sync_library.cond_broadcast(self, cond)
        if self._probe is None:
            return op
        return self._observed(op, cond, 1, "cond_signal")
