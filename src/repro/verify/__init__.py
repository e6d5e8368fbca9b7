"""repro.verify -- online invariant checking for simulation runs.

Attach a checker suite to any machine before running a workload::

    from repro import api
    from repro.verify import attach_checkers

    machine = api.build("msa-omu-2", cores=16)
    suite = attach_checkers(machine)            # all monitors
    result = api.run(machine, "streamcluster", scale=0.5)
    report = suite.finalize()                   # raises on violations

or let the harness do the wiring (one keyword everywhere)::

    result = api.run("msa-omu-2", "streamcluster", checkers=True)
    print(result.check_report["ok"])

Monitors (registry names):

* ``mutex`` -- per-address mutual exclusion;
* ``barrier`` -- barrier epoch/arrival conservation;
* ``condvar`` -- no lost wakeups;
* ``omu-safety`` -- the MSA never allocates an entry while the exact
  software-activity reference count for the address is non-zero;
* ``entries`` -- MSA entry-count conservation and capacity;
* ``noc`` -- NoC message conservation (no drop/dup a FaultPlan did not
  authorize) and transport delivery-order checking;
* ``race`` -- vector-clock happens-before tracking with a lockset race
  report for workload shared accesses (reported, not raised);
* ``oracle`` -- differential replay of the sync-op trace against a
  sequential reference model.

Violations raise :class:`repro.common.errors.InvariantViolation`
carrying the invariant name, address, threads, cycle window, and the
relevant trace slice; see docs/CHECKING.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.common.errors import InvariantViolation
from repro.verify.events import Probe, SyncEvent
from repro.verify.hb import RaceMonitor, VectorClock
from repro.verify.monitors import (
    BarrierMonitor,
    CondvarMonitor,
    EntryConservationMonitor,
    Monitor,
    MutualExclusionMonitor,
    NocConservationMonitor,
    OmuSafetyMonitor,
)
from repro.verify.oracle import (
    DifferentialReport,
    OracleMonitor,
    SequentialReplayer,
    differential,
)
from repro.verify.report import CheckReport, RaceRecord, Violation

__all__ = [
    "MONITORS",
    "DEFAULT_MONITORS",
    "CheckerSuite",
    "attach_checkers",
    "resolve_monitors",
    "run_selftest",
    "differential",
    "DifferentialReport",
    "SequentialReplayer",
    "Probe",
    "SyncEvent",
    "Monitor",
    "CheckReport",
    "Violation",
    "RaceRecord",
    "VectorClock",
    "InvariantViolation",
]

#: Registry: monitor name -> class.  Extend it to plug in custom
#: monitors by name (or pass Monitor instances to attach_checkers).
MONITORS = {
    "mutex": MutualExclusionMonitor,
    "barrier": BarrierMonitor,
    "condvar": CondvarMonitor,
    "omu-safety": OmuSafetyMonitor,
    "entries": EntryConservationMonitor,
    "noc": NocConservationMonitor,
    "race": RaceMonitor,
    "oracle": OracleMonitor,
}

DEFAULT_MONITORS = tuple(MONITORS)


def resolve_monitors(
    monitors: Union[bool, None, Sequence] = True,
) -> List[Monitor]:
    """Names/instances/True(=all) -> fresh Monitor instances."""
    if monitors is True or monitors is None:
        monitors = DEFAULT_MONITORS
    out: List[Monitor] = []
    for item in monitors:
        if isinstance(item, Monitor):
            out.append(item)
        elif isinstance(item, type) and issubclass(item, Monitor):
            out.append(item())
        elif item in MONITORS:
            out.append(MONITORS[item]())
        else:
            raise ValueError(
                f"unknown monitor {item!r}; expected one of {sorted(MONITORS)}"
            )
    return out


class CheckerSuite:
    """Owns the probe, the monitors, and the accumulated findings.

    Built by :func:`attach_checkers` (one suite per machine, attach
    before spawning threads); monitors publish into it via
    :meth:`report_violation` / :meth:`report_race`, and
    :meth:`report` snapshots everything as a :class:`CheckReport`.
    Pass ``probe=`` to share an existing bus (an observability
    :class:`repro.obs.Collector` and a suite can listen on one probe).

    >>> from repro import api
    >>> from repro.verify import attach_checkers
    >>> machine = api.build("msa-omu-2", cores=4)
    >>> suite = attach_checkers(machine)
    >>> result = api.run(machine, "streamcluster", scale=0.05)
    >>> report = suite.report()
    >>> report.ok and report.events_observed > 0
    True
    >>> sorted(report.monitors)[:2]
    ['barrier-epoch', 'condvar-wakeup']
    """

    def __init__(
        self, machine, monitors, fail_fast: bool = False, probe=None
    ):
        self.machine = machine
        self.monitors: List[Monitor] = monitors
        self.fail_fast = fail_fast
        self.violations: List[Violation] = []
        self.races: List[RaceRecord] = []
        self.oracle_summary: Dict = {}
        self.probe = probe if probe is not None else Probe(machine.sim)
        for monitor in self.monitors:
            monitor.attach(machine, self.probe, self)

    def report_violation(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.fail_fast:
            raise InvariantViolation(violation)

    def report_race(self, race: RaceRecord) -> None:
        self.races.append(race)

    def report(self) -> CheckReport:
        return CheckReport(
            monitors=[m.name for m in self.monitors],
            events_observed=self.probe.events_observed,
            violations=list(self.violations),
            races=list(self.races),
            notes={m.name: m.stats() for m in self.monitors if m.stats()},
            oracle=dict(self.oracle_summary),
        )

    def finalize(self, raise_on_violation: bool = True) -> CheckReport:
        """Run end-of-run checks and build the report.  With
        ``raise_on_violation`` (default), any violation raises a
        structured :class:`InvariantViolation` carrying the report."""
        for monitor in self.monitors:
            monitor.finalize()
        report = self.report()
        if raise_on_violation and report.violations:
            raise InvariantViolation(report.violations[0], report=report)
        return report


def attach_checkers(
    machine,
    monitors: Union[bool, None, Sequence] = True,
    fail_fast: bool = False,
) -> CheckerSuite:
    """Wire a checker suite into ``machine``.

    Wires the machine's probe through :meth:`Machine.attach_probe`
    (reusing the one an observability :class:`repro.obs.Collector`
    already wired in -- both listen on the same bus) and subscribes
    the requested monitors.  Attach *before* spawning threads; one
    suite per machine."""
    if machine.checker_suite is not None:
        raise InvariantViolation(
            "a checker suite is already attached to this machine"
        )
    suite = CheckerSuite(
        machine,
        resolve_monitors(monitors),
        fail_fast,
        probe=machine.attach_probe(),
    )
    machine.checker_suite = suite
    return suite


def run_selftest(print_out: bool = False) -> CheckReport:
    """End-to-end checker self-test with a deliberately broken lock.

    Builds a real machine, replaces the sync library's lock/unlock with
    no-ops (the classic broken lock: every "acquire" succeeds
    immediately), runs a contended counter workload, and returns the
    resulting report -- which must contain a mutual-exclusion violation
    naming the invariant, address, threads, and cycle window.  Used by
    ``python -m repro verify --selftest`` and CI to prove the checkers
    can actually catch protocol bugs.
    """
    from repro.harness.configs import build_machine

    machine = build_machine("msa-omu-2", n_cores=4)
    suite = attach_checkers(
        machine, ("mutex", "barrier", "condvar", "entries", "noc", "oracle")
    )
    machine.sync_library = _BrokenLockLibrary(machine.sync_library)
    lock_addr = machine.allocator.sync_var()
    data_addr = machine.allocator.line()

    def body(th):
        for _ in range(10):
            yield from th.lock(lock_addr)
            value = yield from th.load(data_addr)
            yield from th.compute(20)
            yield from th.store(data_addr, value + 1)
            yield from th.unlock(lock_addr)

    for index in range(4):
        machine.scheduler.spawn(body, name=f"selftest.{index}")
    machine.run(max_events=2_000_000)
    report = suite.finalize(raise_on_violation=False)
    if print_out:
        print(report.describe())
        caught = any(
            v.invariant == "mutual-exclusion" for v in report.violations
        )
        print(
            "selftest: broken lock "
            + ("CAUGHT (checkers work)" if caught else "MISSED (bug!)")
        )
    return report


class _BrokenLockLibrary:
    """Test-only mutant: lock/unlock do nothing (no mutual exclusion);
    every other operation is forwarded to the real library."""

    def __init__(self, inner):
        self._inner = inner

    def lock(self, th, addr):
        yield 1

    def unlock(self, th, addr):
        yield 1

    def __getattr__(self, name):
        return getattr(self._inner, name)
