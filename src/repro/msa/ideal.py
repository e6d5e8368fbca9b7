"""Zero-latency oracle synchronization (the paper's "Ideal"
configuration).

Every synchronization operation resolves in zero cycles with global
knowledge: lock handoff, barrier release, and condvar wake-up all happen
in the same cycle as the triggering operation.  The oracle exists to
measure how much performance a real implementation leaves on the table
(Figure 6's upper bound), and to expose the paper's "better is worse"
effect -- all threads leaving a barrier in the exact same cycle makes
cache misses burstier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.common.stats import StatSet
from repro.common.types import Address, CoreId, SyncOp, SyncResult
from repro.sim.kernel import Future, Simulator

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
_BUSY = SyncResult.BUSY


@dataclass
class _LockState:
    owner: Optional[CoreId] = None
    waiters: Deque[Tuple[CoreId, Future]] = field(default_factory=deque)


@dataclass
class _BarrierState:
    arrived: Deque[Future] = field(default_factory=deque)


@dataclass
class _CondState:
    waiters: Deque[Tuple[CoreId, Future, Address]] = field(default_factory=deque)


class IdealSyncOracle:
    """Instant global synchronization arbiter."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.stats = StatSet("ideal_oracle")
        self._locks: Dict[Address, _LockState] = {}
        self._barriers: Dict[Address, _BarrierState] = {}
        self._conds: Dict[Address, _CondState] = {}

    def handle(
        self, op: SyncOp, addr: Address, aux: int, core: CoreId, future: Future
    ) -> None:
        self.stats.counter(f"op.{op.value}").inc()
        if op is _LOCK:
            self._lock(addr, core, future)
        elif op is _TRYLOCK:
            self._trylock(addr, core, future)
        elif op is _UNLOCK:
            self._unlock(addr, core, future)
        elif op is _BARRIER:
            self._barrier(addr, aux, future)
        elif op is _COND_WAIT:
            self._cond_wait(addr, aux, core, future)
        elif op is _COND_SIGNAL:
            self._cond_signal(addr, future, broadcast=False)
        elif op is _COND_BCAST:
            self._cond_signal(addr, future, broadcast=True)
        elif op is _FINISH:
            future.complete(_SUCCESS)
        else:
            raise ProtocolError(f"ideal oracle: unexpected op {op}")

    # ------------------------------------------------------------------
    def _lock(self, addr: Address, core: CoreId, future: Future) -> None:
        state = self._locks.setdefault(addr, _LockState())
        if state.owner is None:
            state.owner = core
            future.complete(_SUCCESS)
        else:
            state.waiters.append((core, future))

    def _trylock(self, addr: Address, core: CoreId, future: Future) -> None:
        state = self._locks.setdefault(addr, _LockState())
        if state.owner is None:
            state.owner = core
            future.complete(_SUCCESS)
        else:
            future.complete(_BUSY)

    def _unlock(self, addr: Address, core: CoreId, future: Future) -> None:
        state = self._locks.get(addr)
        if state is None or state.owner is None:
            raise ProtocolError(f"ideal: unlock of free lock {addr:#x}")
        future.complete(_SUCCESS)
        if state.waiters:
            next_core, next_future = state.waiters.popleft()
            state.owner = next_core
            next_future.complete(_SUCCESS)
        else:
            state.owner = None

    def _barrier(self, addr: Address, goal: int, future: Future) -> None:
        state = self._barriers.setdefault(addr, _BarrierState())
        state.arrived.append(future)
        if len(state.arrived) >= goal:
            arrived, state.arrived = state.arrived, deque()
            for f in arrived:
                f.complete(_SUCCESS)

    def _cond_wait(
        self, cond: Address, lock: Address, core: CoreId, future: Future
    ) -> None:
        state = self._conds.setdefault(cond, _CondState())
        state.waiters.append((core, future, lock))
        # Release the associated lock instantly (POSIX wait semantics).
        release = self.sim.future()
        release.add_callback(lambda _value: None)
        self._unlock(lock, core, release)

    def _cond_signal(self, cond: Address, future: Future, broadcast: bool) -> None:
        future.complete(_SUCCESS)
        state = self._conds.get(cond)
        if state is None or not state.waiters:
            return
        to_wake = list(state.waiters) if broadcast else [state.waiters[0]]
        for _ in to_wake:
            state.waiters.popleft()
        for core, wait_future, lock in to_wake:
            # Re-acquire the lock on the waiter's behalf; its COND_WAIT
            # completes when the lock is granted.
            self._lock(lock, core, wait_future)
