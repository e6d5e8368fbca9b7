"""Synchronization libraries: the paper's hybrid algorithms and the
pure-software baselines.

:class:`HybridLibrary` is the runtime from paper section 4: every
operation first executes the hardware instruction and falls back to the
software implementation on FAIL (or ABORT, per primitive), including
the FINISH notifications that keep the OMU counters balanced
(Algorithms 1, 2, 3).  Running it on an MSA-0 machine (instructions
always FAIL locally) measures the pure ISA/library overhead; running it
with the ideal oracle gives the zero-latency upper bound.

:class:`SoftwareLibrary` composes a lock, a barrier, and a condvar
implementation into the pthread / spinlock / MCS-Tour baselines.
"""

from __future__ import annotations

from typing import Generator

from repro.common.errors import ConfigError
from repro.common.types import Address, SyncOp, SyncResult
from repro.runtime.swsync.barrier import FutexBarrier, SpinBarrier
from repro.runtime.swsync.condvar import FutexCondVar
from repro.runtime.swsync.mcs import MCSLock
from repro.runtime.swsync.mutex import FutexMutex
from repro.runtime.swsync.spinlock import SpinLock
from repro.runtime.swsync.ticket import TicketLock

# Enum members as module globals: on Python 3.11 reading a member through
# its class costs about four plain attribute reads (``EnumType`` defines
# ``__getattr__``), and the sync path reads several per operation.
_LOCK = SyncOp.LOCK
_TRYLOCK = SyncOp.TRYLOCK
_UNLOCK = SyncOp.UNLOCK
_BARRIER = SyncOp.BARRIER
_COND_WAIT = SyncOp.COND_WAIT
_COND_SIGNAL = SyncOp.COND_SIGNAL
_COND_BCAST = SyncOp.COND_BCAST
_FINISH = SyncOp.FINISH
_SUCCESS = SyncResult.SUCCESS
_FAIL = SyncResult.FAIL
_ABORT = SyncResult.ABORT
_BUSY = SyncResult.BUSY


class SyncLibrary:
    """Interface both library families implement."""

    name = "abstract"

    def lock(self, th, addr: Address) -> Generator:
        raise NotImplementedError

    def unlock(self, th, addr: Address) -> Generator:
        raise NotImplementedError

    def barrier(self, th, addr: Address, goal: int) -> Generator:
        raise NotImplementedError

    def cond_wait(self, th, cond: Address, lock: Address) -> Generator:
        raise NotImplementedError

    def cond_signal(self, th, cond: Address) -> Generator:
        raise NotImplementedError

    def cond_broadcast(self, th, cond: Address) -> Generator:
        raise NotImplementedError


class SoftwareLibrary(SyncLibrary):
    """A pure-software library (never touches the sync ISA)."""

    def __init__(self, name, lock_impl, barrier_impl, condvar_impl):
        self.name = name
        self._lock = lock_impl
        self._barrier = barrier_impl
        self._condvar = condvar_impl

    # Each returns the implementation's generator itself (no wrapping
    # frame for every resume of the operation to pass through).
    def lock(self, th, addr: Address) -> Generator:
        return self._lock.lock(th, addr)

    def unlock(self, th, addr: Address) -> Generator:
        return self._lock.unlock(th, addr)

    def barrier(self, th, addr: Address, goal: int) -> Generator:
        return self._barrier.wait(th, addr, goal)

    def cond_wait(self, th, cond: Address, lock: Address) -> Generator:
        return self._condvar.wait(
            th, cond, lock, self._lock.lock, self._lock.unlock
        )

    def cond_signal(self, th, cond: Address) -> Generator:
        return self._condvar.signal(th, cond)

    def cond_broadcast(self, th, cond: Address) -> Generator:
        return self._condvar.broadcast(th, cond)


class HybridLibrary(SyncLibrary):
    """Hardware-first with software fallback (paper Algorithms 1-3)."""

    def __init__(self, fallback: SoftwareLibrary, condvar_impl):
        self.name = f"hybrid({fallback.name})"
        self.fallback = fallback
        # sw_cond_wait must use *these* hybrid lock functions internally
        # (section 4.3.3), not the fallback's raw lock.
        self._condvar = condvar_impl
        self.plane = None
        """Optional :class:`repro.faults.FaultPlane`: when a home tile
        is degraded mid-run, locks that died hardware-owned must not be
        software-acquired until the orphaned owner's UNLOCK transfers
        the release through the plane (the lock word in memory was
        never written by the hardware episode)."""

    def _recovery_gate(self, th, addr: Address) -> Generator:
        """Block until no orphaned hardware owner holds ``addr``."""
        if self.plane is None:
            return
        while True:
            gate = self.plane.gate_future(addr)
            if gate is None:
                return
            th.stats.counter("gate_waits").inc()
            yield gate

    # -- Algorithm 1 ----------------------------------------------------
    def lock(self, th, addr: Address) -> Generator:
        result = yield from th.sync(_LOCK, addr)
        if result is _FAIL or result is _ABORT:
            yield from self._recovery_gate(th, addr)
            yield from self.fallback.lock(th, addr)

    def unlock(self, th, addr: Address) -> Generator:
        result = yield from th.sync(_UNLOCK, addr)
        if result is _FAIL:
            if self.plane is not None and self.plane.transfer_release(addr):
                # We held the lock in (now-dead) hardware; the release
                # completes through the plane, not the lock word.
                return
            yield from self.fallback.unlock(th, addr)

    def trylock(self, th, addr: Address) -> Generator:
        """TRYLOCK extension: non-blocking acquire.  Returns True when
        the lock was taken (in hardware or software), False when busy.
        Release with the regular :meth:`unlock` either way."""
        result = yield from th.sync(_TRYLOCK, addr)
        if result is _SUCCESS:
            return True
        if result is _BUSY:
            return False
        if self.plane is not None and self.plane.recovery_held(addr):
            # Orphaned hardware owner: busy, and the lock word is not
            # authoritative -- do not even attempt the CAS.
            yield from th.sync(_FINISH, addr)
            return False
        # FAIL (or flaky-window ABORT): software trylock (one CAS
        # attempt).  The failed-FAIL case must notify the OMU (no
        # UNLOCK will follow), mirroring how FINISH balances
        # barrier/condvar fallbacks.
        old = yield from th.compare_and_swap(addr, 0, 1)
        if old == 0:
            return True
        yield from th.sync(_FINISH, addr)
        return False

    # -- Algorithm 2 ----------------------------------------------------
    def barrier(self, th, addr: Address, goal: int) -> Generator:
        result = yield from th.sync(_BARRIER, addr, aux=goal)
        if result is _FAIL or result is _ABORT:
            yield from self.fallback.barrier(th, addr, goal)
            yield from th.sync(_FINISH, addr)

    # -- Algorithm 3 ----------------------------------------------------
    def cond_wait(self, th, cond: Address, lock: Address) -> Generator:
        result = yield from th.sync(_COND_WAIT, cond, aux=lock)
        if result is _FAIL:
            yield from self._sw_cond_wait(th, cond, lock)
            yield from th.sync(_FINISH, cond)
        elif result is _ABORT:
            # Suspension fallback: re-acquire the lock (a spurious
            # wakeup, allowed by POSIX) and tell the OMU we left.
            yield from self.lock(th, lock)
            yield from th.sync(_FINISH, cond)

    def _sw_cond_wait(self, th, cond: Address, lock: Address) -> Generator:
        def hybrid_lock(inner_th, addr):
            yield from self.lock(inner_th, addr)

        def hybrid_unlock(inner_th, addr):
            yield from self.unlock(inner_th, addr)

        yield from self._condvar.wait(th, cond, lock, hybrid_lock, hybrid_unlock)

    def cond_signal(self, th, cond: Address) -> Generator:
        result = yield from th.sync(_COND_SIGNAL, cond)
        if result is _FAIL:
            yield from self._condvar.signal(th, cond)

    def cond_broadcast(self, th, cond: Address) -> Generator:
        result = yield from th.sync(_COND_BCAST, cond)
        if result is _FAIL:
            yield from self._condvar.broadcast(th, cond)

    # -- No-spurious-wakeup variant (paper section 4.3.2) ---------------
    #
    # The paper sketches how COND_WAIT can serve condvar semantics with
    # no spurious wakeups: software keeps a wake timestamp; a waiter
    # reads it before waiting, and on ABORT (after re-acquiring the
    # lock) re-checks it -- if no signal/broadcast happened since, it
    # goes back to waiting instead of returning spuriously.  Signalers
    # bump the timestamp under the lock.  The caller may then use a
    # plain ``if`` around the wait instead of POSIX's mandatory
    # ``while`` loop.

    _WAKE_SEQ_SLOT = 0  # shared with the software condvar's seq word

    def _wake_seq_addr(self, cond: Address) -> Address:
        from repro.runtime.swsync.registry import SwStateRegistry

        return SwStateRegistry.word(cond, self._WAKE_SEQ_SLOT)

    def cond_wait_no_spurious(self, th, cond: Address, lock: Address) -> Generator:
        """COND_WAIT that never returns without an intervening
        signal/broadcast.  Must be called holding ``lock``; returns
        holding it.  Pair with the ``*_no_spurious`` notify calls."""
        seq0 = yield from th.load(self._wake_seq_addr(cond))
        while True:
            result = yield from th.sync(_COND_WAIT, cond, aux=lock)
            if result is _SUCCESS:
                return
            if result is _FAIL:
                # The software fallback already has no-spurious
                # semantics (futex waiters re-check the seq word).
                yield from self._sw_cond_wait(th, cond, lock)
                yield from th.sync(_FINISH, cond)
                return
            # ABORT: re-acquire the lock, then consult the timestamp.
            yield from self.lock(th, lock)
            yield from th.sync(_FINISH, cond)
            seq = yield from th.load(self._wake_seq_addr(cond))
            if seq != seq0:
                return  # a wake-up did occur since we began waiting
            # Spurious (suspension-induced): go back to waiting.  The
            # next COND_WAIT releases the lock again.
            th.stats.counter("nospurious_rewaits").inc()

    def cond_signal_no_spurious(self, th, cond: Address) -> Generator:
        """Signal + timestamp bump (call while holding the lock)."""
        yield from th.fetch_add(self._wake_seq_addr(cond), 1)
        yield from self.cond_signal(th, cond)

    def cond_broadcast_no_spurious(self, th, cond: Address) -> Generator:
        yield from th.fetch_add(self._wake_seq_addr(cond), 1)
        yield from self.cond_broadcast(th, cond)


LIBRARY_NAMES = ("pthread", "spinlock", "ticket", "mcs-tour", "hybrid")


def make_library(name: str, machine) -> SyncLibrary:
    """Build a library wired to the machine's futex service and
    software-state registry."""
    futex = machine.futex
    registry = machine.sw_state
    if name == "pthread":
        return SoftwareLibrary(
            "pthread", FutexMutex(futex), FutexBarrier(futex), FutexCondVar(futex)
        )
    if name == "spinlock":
        return SoftwareLibrary(
            "spinlock", SpinLock(), SpinBarrier(), FutexCondVar(futex)
        )
    if name == "ticket":
        return SoftwareLibrary(
            "ticket", TicketLock(), SpinBarrier(), FutexCondVar(futex)
        )
    if name == "mcs-tour":
        from repro.runtime.swsync.tournament import TournamentBarrier

        return SoftwareLibrary(
            "mcs-tour",
            MCSLock(registry),
            TournamentBarrier(registry),
            FutexCondVar(futex),
        )
    if name == "hybrid":
        fallback = SoftwareLibrary(
            "pthread", FutexMutex(futex), FutexBarrier(futex), FutexCondVar(futex)
        )
        lib = HybridLibrary(fallback, FutexCondVar(futex))
        lib.plane = getattr(machine, "fault_plane", None)
        return lib
    raise ConfigError(f"unknown sync library {name!r}; options: {LIBRARY_NAMES}")
