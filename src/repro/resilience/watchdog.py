"""Per-run watchdog: escalate (warn -> snapshot -> abort) on runaway runs.

A simulation that exceeds its wall-clock or event budget is the harness
equivalent of MiSAR's resource overflow: the run must be *managed*, not
allowed to wedge a worker forever.  :class:`Watchdog` drives a machine's
event loop in chunks (:meth:`repro.sim.kernel.Simulator.run_chunk`, so
the event order -- and therefore every simulated result -- is
bit-identical to an unwatched run) and walks an escalation ladder as
either budget is consumed:

* **warn** (80% of a budget by default) -- a :class:`WatchdogWarning`;
* **snapshot** (95%) -- a :func:`triage_dump` of scheduler/MSA/NoC
  state is captured on ``watchdog.snapshot``;
* **abort** (100%) -- :class:`~repro.common.errors.WatchdogTimeout`
  with the final triage dump attached.

:func:`triage_dump` is shared with deadlock diagnostics: the scheduler
attaches the same dump to every
:class:`~repro.common.errors.DeadlockError`, so a hang and a timeout
produce the same evidence (runnable/suspended thread sets, in-flight
NoC messages, MSA entry occupancy).
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Dict, Optional

from repro.common.errors import WatchdogTimeout

#: Default escalation thresholds, as fractions of a budget.
WARN_FRACTION = 0.80
SNAPSHOT_FRACTION = 0.95

#: Events drained per chunk between watchdog checks.  Large enough that
#: the per-chunk bookkeeping is invisible next to the event loop itself.
DEFAULT_CHUNK_EVENTS = 65536


class WatchdogWarning(RuntimeWarning):
    """A run crossed a watchdog's warn threshold (still running)."""


def triage_dump(machine) -> Dict[str, Any]:
    """Snapshot the run state that explains a hang or a runaway run.

    Pure introspection (no simulation side effects): thread sets split
    runnable/suspended with what each blocked thread waits on, NoC
    in-flight message accounting, and per-tile MSA entry occupancy.
    Everything is plain data, safe to JSON-serialize into error
    reports and quarantine artifacts.
    """
    sim = machine.sim
    scheduler = machine.scheduler
    runnable, suspended, finished = [], [], 0
    for thread in scheduler.threads:
        if thread.finished:
            finished += 1
            continue
        proc = scheduler._procs.get(thread.tid)
        waiting = proc.blocked_on if proc is not None else None
        info = {
            "name": thread.name,
            "tid": thread.tid,
            "core": thread.core,
            "blocked": (
                "none"
                if waiting is None
                else ("completed-future" if waiting.done else "future")
            ),
        }
        (suspended if thread.suspended else runnable).append(info)
    noc = machine.network.stats.counters
    sent = noc.get("messages_sent", 0)
    delivered = noc.get("messages_delivered", 0)
    msa = []
    for sl in machine.msa_slices:
        if sl.dead or not sl.entries:
            continue
        msa.append(
            {
                "tile": sl.tile,
                "entries": len(sl.entries),
                "capacity": sl.params.entries_per_tile,
                "occupancy": [
                    {
                        "addr": addr,
                        "type": entry.sync_type.value,
                        "owner": entry.owner,
                        "waiters": len(entry.waiters),
                    }
                    for addr, entry in sorted(sl.entries.items())
                ],
            }
        )
    return {
        "cycle": sim.now,
        "pending_events": sim.pending_events,
        "events_processed": sim.events_processed,
        "threads": {
            "total": len(scheduler.threads),
            "finished": finished,
            "runnable": runnable,
            "suspended": suspended,
        },
        "noc": {
            "messages_sent": sent,
            "messages_delivered": delivered,
            "in_flight": sent - delivered,
        },
        "msa": msa,
        "degraded_tiles": sorted(machine.degraded_tiles()),
    }


def format_triage(triage: Dict[str, Any], limit: int = 4) -> str:
    """One-paragraph human summary of a :func:`triage_dump`."""
    threads = triage.get("threads", {})
    noc = triage.get("noc", {})
    parts = [
        f"cycle {triage.get('cycle', '?')}",
        f"{triage.get('pending_events', 0)} pending events",
        (
            f"threads {threads.get('finished', 0)}/{threads.get('total', 0)}"
            f" finished, {len(threads.get('runnable', ()))} runnable,"
            f" {len(threads.get('suspended', ()))} suspended"
        ),
        f"NoC in-flight {noc.get('in_flight', 0)}",
    ]
    occupancy = [
        f"tile{slice_info['tile']}:{slice_info['entries']}"
        f"/{slice_info['capacity']}"
        for slice_info in triage.get("msa", ())[:limit]
    ]
    if occupancy:
        parts.append("MSA occupancy " + " ".join(occupancy))
    blocked = [
        f"{t['name']}@core{t['core']}<{t['blocked']}>"
        for t in list(threads.get("runnable", ()))[:limit]
    ]
    if blocked:
        parts.append("blocked: " + ", ".join(blocked))
    return "; ".join(parts)


class Watchdog:
    """Escalating budget enforcement for one simulation run.

    ``wall_clock_s`` bounds real time, ``max_events`` bounds simulation
    work; either (or both) may be ``None``.  The escalation ladder is
    per-watchdog, not per-budget: whichever budget crosses a threshold
    first triggers that stage.  ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        wall_clock_s: Optional[float] = None,
        max_events: Optional[int] = None,
        warn_fraction: float = WARN_FRACTION,
        snapshot_fraction: float = SNAPSHOT_FRACTION,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        clock=time.monotonic,
        on_stage=None,
    ):
        self.wall_clock_s = wall_clock_s
        self.max_events = max_events
        self.warn_fraction = warn_fraction
        self.snapshot_fraction = snapshot_fraction
        self.chunk_events = max(1, int(chunk_events))
        self.clock = clock
        self.on_stage = on_stage
        self.stage = "ok"
        self.snapshot: Optional[Dict[str, Any]] = None
        self.events = 0
        self.started_at: Optional[float] = None

    # -- escalation ----------------------------------------------------
    _STAGES = ("ok", "warned", "snapshotted", "aborted")

    def _escalate(self, stage: str, machine, reason: str) -> None:
        if self._STAGES.index(stage) <= self._STAGES.index(self.stage):
            return
        self.stage = stage
        if self.on_stage is not None:
            self.on_stage(stage, reason)
        if stage == "warned":
            warnings.warn(
                f"watchdog: {reason} (run continues)", WatchdogWarning,
                stacklevel=3,
            )
        elif stage == "snapshotted":
            self.snapshot = triage_dump(machine)
        elif stage == "aborted":
            triage = triage_dump(machine)
            self.snapshot = triage
            raise WatchdogTimeout(
                f"watchdog: {reason}; triage: {format_triage(triage)}",
                triage=triage,
            )

    def _consumed(self) -> float:
        """Largest budget fraction consumed so far (0..inf)."""
        fractions = [0.0]
        if self.max_events:
            fractions.append(self.events / self.max_events)
        if self.wall_clock_s and self.started_at is not None:
            fractions.append(
                (self.clock() - self.started_at) / self.wall_clock_s
            )
        return max(fractions)

    def _check(self, machine) -> None:
        consumed = self._consumed()
        if consumed >= 1.0:
            over = (
                f"exceeded max_events={self.max_events} "
                f"at cycle {machine.sim.now}"
                if self.max_events and self.events >= self.max_events
                else f"exceeded wall clock budget {self.wall_clock_s}s "
                f"at cycle {machine.sim.now}"
            )
            self._escalate("aborted", machine, over)
        elif consumed >= self.snapshot_fraction:
            self._escalate(
                "snapshotted", machine,
                f"{consumed:.0%} of budget consumed",
            )
        elif consumed >= self.warn_fraction:
            self._escalate(
                "warned", machine,
                f"{consumed:.0%} of budget consumed "
                f"(events={self.events}, cycle={machine.sim.now})",
            )

    # -- the run loop --------------------------------------------------
    def run(self, machine) -> int:
        """Drain the machine's event calendar under this watchdog.

        Event order is identical to ``machine.run(max_events=...)`` --
        the calendar is drained in fixed-size chunks with only bookkeeping
        in between -- so a run that finishes within budget returns
        bit-identical results.  On exhaustion, raises
        :class:`~repro.common.errors.WatchdogTimeout` (a
        ``SimulationError``) with the triage dump attached.  Deadlock
        detection matches :meth:`repro.machine.Machine.run`.
        """
        sim = machine.sim
        self.started_at = self.clock()
        while sim.pending_events:
            chunk = self.chunk_events
            if self.max_events is not None:
                chunk = min(chunk, self.max_events - self.events)
                if chunk <= 0:
                    self._check(machine)
                    break
            self.events += sim.run_chunk(chunk)
            self._check(machine)
        machine.scheduler.check_for_deadlock()
        return sim.now
