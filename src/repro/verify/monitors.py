"""Pluggable invariant monitors.

Each monitor subscribes to the kinds it needs on the machine's
:class:`~repro.verify.events.Probe` and reports
:class:`~repro.verify.report.Violation` objects through the owning
:class:`~repro.verify.CheckerSuite`.  Monitors are pure observers: they
never mutate machine state and never schedule simulator events, so an
attached suite changes wall-clock time but not a single cycle count.

Writing a custom monitor (see docs/CHECKING.md):

* subclass :class:`Monitor`, set ``name``;
* in :meth:`on_attach`, subscribe handlers with
  ``self.probe.subscribe(kind, handler)``;
* report problems with :meth:`Monitor.violation`;
* optionally override :meth:`finalize` for end-of-run conservation
  checks and :meth:`stats` for informational counters.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.verify.events import Probe, SyncEvent
from repro.verify.report import Violation


class Monitor:
    """Base class: attachment plumbing and violation construction."""

    name = "monitor"

    def attach(self, machine, probe: Probe, suite) -> None:
        self.machine = machine
        self.probe = probe
        self.suite = suite
        self.on_attach()

    def on_attach(self) -> None:
        raise NotImplementedError

    def finalize(self) -> None:
        """End-of-run checks (conservation, emptiness); default none."""

    def stats(self) -> Dict[str, int]:
        """Informational counters for the report's ``notes``."""
        return {}

    def violation(
        self,
        message: str,
        addr: Optional[int] = None,
        threads: Tuple[int, ...] = (),
        invariant: Optional[str] = None,
    ) -> None:
        trace = [repr(e) for e in self.probe.recent(addr=addr)]
        cycle = self.probe.sim.now
        first = self.probe.recent(addr=addr)
        window = (first[0].t if first else cycle, cycle)
        self.suite.report_violation(
            Violation(
                invariant=invariant or self.name,
                message=message,
                addr=addr,
                threads=tuple(threads),
                cycle=cycle,
                window=window,
                trace=trace,
            )
        )


# ---------------------------------------------------------------------------
# Mutual exclusion
# ---------------------------------------------------------------------------
class MutualExclusionMonitor(Monitor):
    """Per-address mutual exclusion over the thread-level lock API.

    Tracks the holder of every lock address from ``lock_acq`` /
    ``lock_rel`` (and the condvar wait protocol, which releases and
    re-acquires the associated lock).  Two concurrent holders, or a
    release by a non-holder, is a violation.
    """

    name = "mutual-exclusion"

    def on_attach(self) -> None:
        self.holder: Dict[int, int] = {}
        self.acquires = 0
        probe = self.probe
        probe.subscribe("lock_acq", self._acquire)
        probe.subscribe("lock_rel", self._release)
        probe.subscribe("cond_wait_begin", self._wait_begin)
        probe.subscribe("cond_wait_end", self._wait_end)

    def _take(self, lock: int, tid: int) -> None:
        self.acquires += 1
        held_by = self.holder.get(lock)
        if held_by is not None and held_by != tid:
            self.violation(
                f"lock {lock:#x} granted to thread {tid} while held by "
                f"thread {held_by}",
                addr=lock,
                threads=(held_by, tid),
            )
        self.holder[lock] = tid

    def _drop(self, lock: int, tid: int) -> None:
        held_by = self.holder.pop(lock, None)
        if held_by is not None and held_by != tid:
            self.violation(
                f"lock {lock:#x} released by thread {tid} but held by "
                f"thread {held_by}",
                addr=lock,
                threads=(held_by, tid),
            )

    def _acquire(self, e: SyncEvent) -> None:
        self._take(e.addr, e.tid)

    def _release(self, e: SyncEvent) -> None:
        self._drop(e.addr, e.tid)

    def _wait_begin(self, e: SyncEvent) -> None:
        # cond_wait releases the associated lock (e.aux) atomically.
        self._drop(e.aux, e.tid)

    def _wait_end(self, e: SyncEvent) -> None:
        # cond_wait returns holding the lock again.
        self._take(e.aux, e.tid)

    def finalize(self) -> None:
        for lock, tid in sorted(self.holder.items()):
            self.violation(
                f"lock {lock:#x} still held by thread {tid} at end of run",
                addr=lock,
                threads=(tid,),
            )

    def stats(self) -> Dict[str, int]:
        return {"acquires": self.acquires}


# ---------------------------------------------------------------------------
# Barrier epoch / arrival conservation
# ---------------------------------------------------------------------------
class BarrierMonitor(Monitor):
    """No thread passes a barrier before its episode completes, and no
    thread is left behind.

    For each barrier address, with episode goal ``g``: after ``k``
    completed episodes exactly ``k*g`` entries have been absorbed, so an
    exit numbered ``e`` (1-based) is legal only when at least
    ``ceil(e/g)*g`` entries have happened.  At end of run every entry
    must be matched by an exit and episodes must be whole.
    """

    name = "barrier-epoch"

    def on_attach(self) -> None:
        self.entered: Dict[int, int] = {}
        self.exited: Dict[int, int] = {}
        self.goal: Dict[int, int] = {}
        self.episodes = 0
        self.probe.subscribe("barrier_enter", self._enter)
        self.probe.subscribe("barrier_exit", self._exit)

    def _enter(self, e: SyncEvent) -> None:
        addr, goal = e.addr, e.aux
        known = self.goal.get(addr)
        if known is None:
            self.goal[addr] = goal
        elif known != goal:
            self.violation(
                f"barrier {addr:#x} used with goal {goal} after goal {known}",
                addr=addr,
                threads=(e.tid,),
            )
        self.entered[addr] = self.entered.get(addr, 0) + 1
        if self.entered[addr] % goal == 0:
            self.episodes += 1

    def _exit(self, e: SyncEvent) -> None:
        addr, goal = e.addr, e.aux
        exits = self.exited.get(addr, 0) + 1
        self.exited[addr] = exits
        # Smallest whole number of episodes covering this exit.
        needed = ((exits + goal - 1) // goal) * goal
        if self.entered.get(addr, 0) < needed:
            self.violation(
                f"thread {e.tid} passed barrier {addr:#x} after only "
                f"{self.entered.get(addr, 0)} arrivals "
                f"(exit #{exits} needs {needed} with goal {goal})",
                addr=addr,
                threads=(e.tid,),
            )

    def finalize(self) -> None:
        for addr, entered in sorted(self.entered.items()):
            goal = self.goal.get(addr, 1)
            exited = self.exited.get(addr, 0)
            if entered != exited:
                self.violation(
                    f"barrier {addr:#x}: {entered} arrivals but {exited} "
                    f"exits -- {entered - exited} thread(s) left behind",
                    addr=addr,
                )
            elif goal and entered % goal:
                self.violation(
                    f"barrier {addr:#x}: {entered} arrivals is not a whole "
                    f"number of episodes of {goal}",
                    addr=addr,
                )

    def stats(self) -> Dict[str, int]:
        return {"episodes": self.episodes, "barriers": len(self.goal)}


# ---------------------------------------------------------------------------
# Condition variables: no lost wakeups
# ---------------------------------------------------------------------------
class CondvarMonitor(Monitor):
    """Every ``cond_wait`` eventually returns.

    A wait that never ends while the run completes is a lost wakeup
    (the chaos runs exercise exactly this: a dropped wake-up message
    must be recovered by the retry plane, never silently lost).
    """

    name = "condvar-wakeup"

    def on_attach(self) -> None:
        self.waiting: Dict[int, Set[int]] = {}
        self.signals: Dict[int, int] = {}
        self.waits = 0
        self.probe.subscribe("cond_wait_begin", self._begin)
        self.probe.subscribe("cond_wait_end", self._end)
        self.probe.subscribe("cond_signal", self._signal)

    def _begin(self, e: SyncEvent) -> None:
        self.waits += 1
        self.waiting.setdefault(e.addr, set()).add(e.tid)

    def _end(self, e: SyncEvent) -> None:
        waiters = self.waiting.get(e.addr)
        if waiters is None or e.tid not in waiters:
            self.violation(
                f"thread {e.tid} returned from cond_wait on {e.addr:#x} "
                f"without a matching wait",
                addr=e.addr,
                threads=(e.tid,),
            )
            return
        waiters.discard(e.tid)

    def _signal(self, e: SyncEvent) -> None:
        self.signals[e.addr] = self.signals.get(e.addr, 0) + 1

    def finalize(self) -> None:
        for cond, waiters in sorted(self.waiting.items()):
            if waiters:
                self.violation(
                    f"cond {cond:#x}: thread(s) {sorted(waiters)} never "
                    f"woke from cond_wait (lost wakeup)",
                    addr=cond,
                    threads=tuple(sorted(waiters)),
                )

    def stats(self) -> Dict[str, int]:
        return {"waits": self.waits, "signals": sum(self.signals.values())}


# ---------------------------------------------------------------------------
# OMU safety
# ---------------------------------------------------------------------------
class OmuSafetyMonitor(Monitor):
    """The paper's core safety claim (section 3.2): the MSA never
    allocates an entry for an address while *software* activity on that
    address is outstanding at the same home tile.

    The monitor maintains an exact per-(tile, address) reference count
    mirroring every OMU charge/discharge; an ``msa_alloc`` while the
    reference count is non-zero means the real OMU under-reported
    (saturation losing counts, or an aliasing scheme with false
    negatives) -- the hazard class the sticky-saturation fix closes.
    """

    name = "omu-safety"

    def on_attach(self) -> None:
        self.ref: Dict[Tuple[int, int], int] = {}
        self.charges = 0
        self.probe.subscribe("omu_inc", self._inc)
        self.probe.subscribe("omu_dec", self._dec)
        self.probe.subscribe("msa_alloc", self._alloc)
        self.probe.subscribe("msa_kill", self._kill)

    def _inc(self, e: SyncEvent) -> None:
        self.charges += 1
        key = (e.tile, e.addr)
        self.ref[key] = self.ref.get(key, 0) + e.aux

    def _dec(self, e: SyncEvent) -> None:
        key = (e.tile, e.addr)
        self.ref[key] = max(0, self.ref.get(key, 0) - e.aux)

    def _alloc(self, e: SyncEvent) -> None:
        live = self.ref.get((e.tile, e.addr), 0)
        if live:
            self.violation(
                f"tile {e.tile} allocated an MSA entry for {e.addr:#x} "
                f"while {live} software-side operation(s) are outstanding "
                f"(OMU false 'inactive')",
                addr=e.addr,
            )

    def _kill(self, e: SyncEvent) -> None:
        # A killed slice loses all OMU state and never allocates again;
        # drop its reference counts so post-mortem FINISHes (which the
        # dead slice ignores, emitting nothing) cannot skew them.
        for key in [k for k in self.ref if k[0] == e.tile]:
            del self.ref[key]

    def stats(self) -> Dict[str, int]:
        return {"charges": self.charges}


# ---------------------------------------------------------------------------
# MSA entry conservation
# ---------------------------------------------------------------------------
class EntryConservationMonitor(Monitor):
    """Entry allocations minus frees equals live entries per tile, and
    a slice never holds more entries than its capacity."""

    name = "entry-conservation"

    def on_attach(self) -> None:
        self.allocated: Dict[int, int] = {}
        self.freed: Dict[int, int] = {}
        self.dead: Set[int] = set()
        self.probe.subscribe("msa_alloc", self._alloc)
        self.probe.subscribe("msa_free", self._free)
        self.probe.subscribe("msa_kill", self._kill)

    def _capacity(self) -> Optional[int]:
        msa = self.machine.params.msa
        if msa is None or msa.is_infinite:
            return None
        return msa.entries_per_tile

    def _alloc(self, e: SyncEvent) -> None:
        self.allocated[e.tile] = self.allocated.get(e.tile, 0) + 1
        capacity = self._capacity()
        live = e.aux[1]
        if capacity is not None and live > capacity:
            self.violation(
                f"tile {e.tile} holds {live} entries after allocating "
                f"{e.addr:#x} (capacity {capacity})",
                addr=e.addr,
            )

    def _free(self, e: SyncEvent) -> None:
        self.freed[e.tile] = self.freed.get(e.tile, 0) + 1

    def _kill(self, e: SyncEvent) -> None:
        self.dead.add(e.tile)

    def finalize(self) -> None:
        for sl in self.machine.msa_slices:
            if sl.tile in self.dead or sl.dead:
                continue
            expected = self.allocated.get(sl.tile, 0) - self.freed.get(
                sl.tile, 0
            )
            if expected != len(sl.entries):
                self.violation(
                    f"tile {sl.tile}: {self.allocated.get(sl.tile, 0)} "
                    f"allocations - {self.freed.get(sl.tile, 0)} frees = "
                    f"{expected}, but {len(sl.entries)} entries live",
                )

    def stats(self) -> Dict[str, int]:
        return {
            "allocated": sum(self.allocated.values()),
            "freed": sum(self.freed.values()),
        }


# ---------------------------------------------------------------------------
# NoC message conservation
# ---------------------------------------------------------------------------
class NocConservationMonitor(Monitor):
    """No message is dropped or duplicated beyond what the fault plan
    authorized.

    Online, reliably-carried traffic must dispatch with strictly
    contiguous per-channel sequence numbers (the transport's
    exactly-once, in-order contract).  At end of run, every wire copy
    must be accounted for: :meth:`Machine.noc_ledger
    <repro.machine.Machine.noc_ledger>` leaves nothing in flight once
    drops and duplicates the plan authorized, duplicates the transport
    suppressed, and messages stuck behind an abandoned sequence number
    (an authorized give-up, visible in the transport's ``abandoned``
    counter) are counted.
    """

    name = "noc-conservation"

    def on_attach(self) -> None:
        self.delivered_seq: Dict[Tuple[int, int], int] = {}
        self.dispatches = 0
        self.probe.subscribe("noc_deliver", self._deliver)

    def _deliver(self, e: SyncEvent) -> None:
        self.dispatches += 1
        kind, rel_seq = e.aux
        if rel_seq is None:
            return
        chan = (e.tid, e.tile)
        expected = self.delivered_seq.get(chan, 0) + 1
        if rel_seq != expected:
            self.violation(
                f"channel {chan} dispatched {kind} with seq {rel_seq}, "
                f"expected {expected} (transport ordering broken)",
            )
        self.delivered_seq[chan] = rel_seq

    def finalize(self) -> None:
        n = self.machine.noc_ledger()
        if n["in_flight"] != 0:
            self.violation(
                f"message conservation broken: sent={n['sent']} + "
                f"dups={n['duplicated']} != delivered={n['delivered']} + "
                f"dropped={n['dropped']} + suppressed={n['suppressed']} + "
                f"stuck={n['stuck']} (unauthorized loss or duplication)",
            )

    def stats(self) -> Dict[str, int]:
        return {"dispatches": self.dispatches}
