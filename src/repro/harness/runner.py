"""Workload runner: spawn a workload's threads on a machine, run to
completion, collect the metrics the experiments report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Optional

from repro.common.schema import RESULT_SCHEMA, check_schema

if TYPE_CHECKING:
    from repro.machine import Machine
    from repro.workloads.base import Workload


@dataclass
class RunResult:
    """Everything an experiment needs from one simulation run."""

    config: str
    workload: str
    n_cores: int
    cycles: int
    msa_coverage: Optional[float]
    msa_counters: Dict[str, int] = field(default_factory=dict)
    sync_unit_counters: Dict[str, int] = field(default_factory=dict)
    noc_counters: Dict[str, int] = field(default_factory=dict)
    workload_metrics: Dict[str, float] = field(default_factory=dict)
    fault_counters: Dict[str, int] = field(default_factory=dict)
    """Injector/transport/recovery counters; empty unless the machine
    was built with a :class:`repro.faults.FaultPlan`."""

    check_report: Optional[Dict] = None
    """Serialized :class:`repro.verify.CheckReport` when the run was
    checked (``checkers=...``); ``None`` on unchecked runs.  Rehydrate
    with ``CheckReport.from_dict(result.check_report)``."""

    def speedup_over(self, baseline: "RunResult") -> float:
        """Application speedup relative to a baseline run."""
        return baseline.cycles / self.cycles if self.cycles else 0.0

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-ready; a ``schema`` stamp followed by
        the fields in field order)."""
        out = {"schema": RESULT_SCHEMA}
        out.update({f.name: getattr(self, f.name) for f in fields(self)})
        return out

    def to_json(self) -> str:
        """Serialize to JSON.  Serialization is canonical: two equal
        results (same run replayed) produce byte-identical text, which
        the experiment engine's result cache relies on."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "RunResult":
        """Inverse of :meth:`to_dict`.

        The ``schema`` stamp is validated first: a payload written by
        an incompatible major version raises
        :class:`~repro.common.errors.SchemaError` instead of silently
        mis-parsing (stamps are absent from pre-versioning payloads,
        which still load).  Unknown keys are otherwise ignored so old
        caches survive additive schema changes.
        """
        check_schema(data.get("schema"), RESULT_SCHEMA, what="result")
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        """Human-readable run summary: headline metrics plus the MSA,
        instruction, and NoC activity that explains them."""
        lines = [
            f"run: {self.workload} on {self.config} "
            f"({self.n_cores} cores)",
            f"  cycles               : {self.cycles:,}",
        ]
        if self.msa_coverage is not None:
            lines.append(
                f"  MSA coverage         : {100 * self.msa_coverage:.1f}%"
            )
        issued = {
            k.split(".", 1)[1]: v
            for k, v in self.sync_unit_counters.items()
            if k.startswith("issued.") and v
        }
        if issued:
            ops = ", ".join(f"{k}={v}" for k, v in sorted(issued.items()))
            lines.append(f"  sync instructions    : {ops}")
        for key, label in (
            ("silent_lock_hits", "silent LOCK fast path"),
            ("silent_unlock_hits", "silent UNLOCK fast path"),
        ):
            value = self.sync_unit_counters.get(key, 0)
            if value:
                lines.append(f"  {label:<21}: {value}")
        for key, label in (
            ("entries_allocated", "MSA entries allocated"),
            ("omu_steered_sw", "OMU-steered to software"),
            ("revokes_sent", "HWSync revokes"),
            ("ops_aborted", "operations ABORTed"),
        ):
            value = self.msa_counters.get(key, 0)
            if value:
                lines.append(f"  {label:<21}: {value}")
        sent = self.noc_counters.get("messages_sent", 0)
        if sent:
            lines.append(f"  NoC messages         : {sent:,}")
        if self.check_report is not None:
            lines.append(
                f"  checkers             : "
                f"{'ok' if self.check_report.get('ok') else 'VIOLATIONS'} "
                f"({len(self.check_report.get('violations', []))} violations, "
                f"{len(self.check_report.get('races', []))} race reports)"
            )
        for key, value in sorted(self.workload_metrics.items()):
            lines.append(f"  {key:<21}: {value:,.1f}")
        return "\n".join(lines)


def run_workload(
    machine: Machine,
    workload: Workload,
    max_events: Optional[int] = 50_000_000,
    check: bool = True,
    config: str = "",
    checkers=(),
    raise_violations: bool = True,
    watchdog=None,
) -> RunResult:
    """Run ``workload`` on ``machine`` to completion.

    With ``check`` (default), the workload's validation hook and the
    machine's protocol invariants are verified after the run.

    ``watchdog`` (a :class:`repro.resilience.watchdog.Watchdog`) hands
    the event-loop drain to an escalating budget enforcer -- warn,
    snapshot, then abort with a triage dump on wall-clock or event
    overrun.  The watchdog owns budget enforcement when present (give
    it ``max_events``; the plain ``max_events`` argument is ignored),
    and drains events in the exact order an unwatched run would, so
    results are bit-identical.

    ``checkers`` attaches a :mod:`repro.verify` suite before spawning
    threads: ``True`` for every monitor, or a sequence of monitor names
    (see :data:`repro.verify.MONITORS`).  The finalized report rides on
    ``RunResult.check_report``; violations raise
    :class:`~repro.common.errors.InvariantViolation` unless
    ``raise_violations`` is false.  If the run itself dies (deadlock,
    event-budget exhaustion), the suite is still finalized and the
    report is attached to the propagating exception, so the invariant
    evidence that explains a hang is never lost.
    """
    from repro.workloads.base import WorkloadEnv

    suite = None
    if checkers is True or checkers:
        if machine.checker_suite is not None:
            suite = machine.checker_suite
        else:
            suite = machine.attach_checkers(monitors=checkers)
    env = WorkloadEnv(machine)
    workload.setup(env)
    for index, body in enumerate(workload.thread_bodies(env)):
        machine.scheduler.spawn(body, name=f"{workload.name}.{index}")
    if workload.controller is not None:
        machine.sim.process(
            workload.controller(env), name=f"{workload.name}.controller"
        )
    try:
        if watchdog is not None:
            cycles = watchdog.run(machine)
        else:
            cycles = machine.run(max_events=max_events)
    except Exception as exc:
        if suite is not None:
            exc.check_report = suite.finalize(raise_on_violation=False)
        raise
    if check:
        machine.check_invariants()
        workload.validate(env)
    check_report = None
    if suite is not None:
        report = suite.finalize(raise_on_violation=raise_violations)
        check_report = report.to_dict()
    return RunResult(
        config=config or machine.library_name,
        workload=workload.name,
        n_cores=machine.params.n_cores,
        cycles=cycles,
        msa_coverage=machine.msa_coverage(),
        msa_counters=machine.msa_counters(),
        sync_unit_counters=machine.sync_unit_counters(),
        noc_counters=dict(machine.network.stats.counters),
        workload_metrics=dict(env.metrics),
        fault_counters=(
            machine.fault_counters() if machine.fault_plan is not None else {}
        ),
        check_report=check_report,
    )
