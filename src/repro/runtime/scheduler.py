"""OS-like thread scheduler: spawn, suspend, resume, migrate.

The paper assumes one thread per core; the scheduler enforces that and
provides the thread-management events (suspension, migration) whose
interaction with the MSA the paper's sections 4.1.2/4.2.2/4.3.2 define.
Suspension takes effect at the thread's next instruction boundary
unless the thread is blocked on a synchronization instruction, in which
case the sync unit's SUSPEND protocol interrupts it immediately.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.common.errors import DeadlockError, SimulationError
from repro.runtime.thread import SimThread, ThreadCtx
from repro.sim.kernel import Process


class Scheduler:
    def __init__(self, machine):
        self.machine = machine
        self.sim = machine.sim
        self.threads: List[SimThread] = []
        self.contexts: Dict[int, ThreadCtx] = {}
        self._core_owner: Dict[int, SimThread] = {}
        self._tids = itertools.count()
        self._procs: Dict[int, Process] = {}

    # ------------------------------------------------------------------
    def spawn(
        self,
        body: Callable[[ThreadCtx], "Generator"],
        core: Optional[int] = None,
        name: str = "",
        start_delay: int = 0,
        slot: Optional[int] = None,
    ) -> SimThread:
        """Start a thread running ``body(ctx)``.

        Default placement fills cores round-robin, then SMT slots:
        thread ``tid`` lands on core ``tid % n_cores``, slot
        ``tid // n_cores`` (with hw_threads == 1 this is core == tid,
        the paper's one-thread-per-core setup)."""
        n_cores = self.machine.params.n_cores
        hw_threads = self.machine.params.core.hw_threads
        tid = next(self._tids)
        thread = SimThread(tid, name=name or f"thread{tid}")
        target = (tid % n_cores) if core is None else core
        target_slot = (tid // n_cores) if core is None and slot is None else (slot or 0)
        if target >= n_cores:
            raise SimulationError(
                f"core {target} out of range for {n_cores}-core machine"
            )
        if target_slot >= hw_threads:
            raise SimulationError(
                f"slot {target_slot} out of range: core has {hw_threads} "
                f"hardware thread(s)"
            )
        key = (target, target_slot)
        if key in self._core_owner:
            raise SimulationError(
                f"core {target} slot {target_slot} already runs "
                f"{self._core_owner[key]}"
            )
        thread.core = target
        thread.slot = target_slot
        self._core_owner[key] = thread
        ctx = ThreadCtx(self.machine, thread)
        self.threads.append(thread)
        self.contexts[tid] = ctx

        # The body runs as the process itself (no wrapping generator,
        # whose frame every resume would pass through); the finish
        # bookkeeping rides on the process's exit future instead.
        proc = self.sim.process(body(ctx), name=thread.name, delay=start_delay)
        proc.on_exit.add_callback(lambda _result: self._finish(thread))
        self._procs[tid] = proc
        return thread

    def _finish(self, thread: SimThread) -> None:
        thread.finished = True
        self._core_owner.pop((thread.core, thread.slot), None)

    # ------------------------------------------------------------------
    def suspend(self, thread: SimThread) -> None:
        """Context-switch the thread off its core (interrupt, OS tick,
        ...).  If it is blocked on a sync instruction, the MSA SUSPEND
        protocol kicks in (squash or ABORT, per primitive)."""
        if thread.suspended or thread.finished:
            return
        thread.suspended = True
        thread._resume_future = self.sim.future()
        self._core_owner.pop((thread.core, thread.slot), None)
        probe = self.machine.probe
        if probe is not None and probe.trace_active:
            probe.emit(
                "sched", tid=thread.tid, aux=("suspend", {"core": thread.core})
            )
        self.machine.sync_unit(thread.core).suspend_current(thread.slot)

    def resume(
        self,
        thread: SimThread,
        core: Optional[int] = None,
        slot: Optional[int] = None,
    ) -> None:
        """Resume a suspended thread, optionally migrating it."""
        if not thread.suspended:
            raise SimulationError(f"{thread} is not suspended")
        target = thread.core if core is None else core
        target_slot = thread.slot if slot is None else slot
        if (target, target_slot) in self._core_owner:
            raise SimulationError(
                f"cannot resume {thread} on busy core {target} "
                f"slot {target_slot}"
            )
        self._core_owner[(target, target_slot)] = thread
        migrated = target != thread.core
        thread.core = target
        thread.slot = target_slot
        probe = self.machine.probe
        if probe is not None and probe.trace_active:
            probe.emit(
                "sched",
                tid=thread.tid,
                aux=("migrate" if migrated else "resume", {"core": target}),
            )
        latency = self.machine.params.core.context_switch_latency
        resume_future = thread._resume_future

        def do_resume():
            thread.suspended = False
            thread.resume_count += 1
            thread._resume_future = None
            resume_future.complete(None)

        self.sim.schedule(latency, do_resume)

    # ------------------------------------------------------------------
    def check_for_deadlock(self) -> None:
        """Called when the event queue drains: any unfinished thread is
        deadlocked (blocked on a future nothing will complete).  The
        error message describes *what* each thread is blocked on, and
        the raised :class:`DeadlockError` carries the watchdog's full
        triage dump (runnable/suspended thread sets, in-flight NoC
        messages, MSA entry occupancy) for post-mortem analysis."""
        stuck = [t for t in self.threads if not t.finished]
        if not stuck:
            return
        details = []
        for thread in stuck[:8]:
            proc = self._procs.get(thread.tid)
            waiting = proc.blocked_on if proc is not None else None
            if thread.suspended:
                state = "suspended, never resumed"
            elif waiting is None:
                state = "not blocked on any future (starved?)"
            elif waiting.done:
                state = "blocked on an already-completed future (lost step?)"
            else:
                state = "blocked on an incomplete future (lost wakeup)"
            details.append(f"{thread.name}@core{thread.core}: {state}")
        from repro.resilience.watchdog import format_triage, triage_dump

        try:
            triage = triage_dump(self.machine)
            summary = f" [triage: {format_triage(triage)}]"
        except Exception:  # diagnostics must never mask the deadlock
            triage, summary = {}, ""
        raise DeadlockError(
            f"{len(stuck)} thread(s) never finished: "
            + "; ".join(details)
            + summary,
            blocked=stuck,
            triage=triage,
        )
