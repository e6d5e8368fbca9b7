"""Harness-level chaos: prove the engine is crash-safe, end to end.

The fault-injection layer (:mod:`repro.faults`) attacks the *simulated*
machine; this module attacks the *harness itself*.  :func:`chaos_harness`
runs a small sweep twice:

1. an **undisturbed serial baseline** -- every spec executed in this
   process, no pool, no cache, no store;
2. a **chaotic supervised sweep** -- a worker pool whose members are
   SIGKILLed mid-point on a timer, whose result cache gets random
   byte-flips injected while the sweep runs, and whose workers see
   simulated ``ENOSPC`` disk-full errors on their first cache writes.

The engine's resilience machinery (leases + heartbeats, seeded backoff,
quarantine, checksummed cache entries, in-parent fallback) must absorb
all of it: the harness asserts every point converges to a result
**byte-identical** to the serial baseline, then runs :func:`repro.
resilience.fsck.fsck` over the battered cache as a final health check.
``python -m repro chaos-harness`` is the CLI entry point and CI gate.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.resilience.fsck import FsckReport, fsck
from repro.resilience.supervise import ChaosPlan

DEFAULT_CONFIGS = ("pthread", "msa-omu-2")
DEFAULT_WORKLOADS = ("canneal", "swaptions")


def default_chaos_specs(
    seed: int = 2015,
    scale: float = 0.2,
    cores: int = 4,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
) -> List["JobSpec"]:
    """The default chaos grid: small enough for CI, real enough to keep
    workers busy while the harness shoots at them."""
    from repro.harness.jobs import JobSpec

    return [
        JobSpec(
            config=config,
            workload=workload,
            cores=cores,
            scale=scale,
            seed=seed,
        )
        for workload in workloads
        for config in configs
    ]


@dataclass
class ChaosHarnessResult:
    """Verdict of one :func:`chaos_harness` run."""

    total: int
    mismatched: List[str] = field(default_factory=list)
    """Point descriptions whose chaotic result differed from (or never
    converged to) the serial baseline.  Empty on success."""

    kills: int = 0
    restarts: int = 0
    corruptions: int = 0
    quarantined: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    fsck_report: Optional[FsckReport] = None
    workdir: str = ""

    @property
    def identical(self) -> bool:
        """Every point byte-identical to the undisturbed serial run."""
        return not self.mismatched

    @property
    def ok(self) -> bool:
        return self.identical and (
            self.fsck_report is None or self.fsck_report.ok
        )

    def describe(self) -> str:
        verdict = "IDENTICAL" if self.identical else "MISMATCH"
        lines = [
            f"chaos-harness: {self.total} points, {verdict} vs serial "
            f"baseline",
            f"  injected: {self.kills} worker kill(s), "
            f"{self.corruptions} cache corruption(s); "
            f"{self.restarts} worker restart(s), "
            f"{self.quarantined} quarantined",
        ]
        interesting = (
            "leases_granted",
            "leases_expired",
            "leases_released",
            "retries",
            "stale_completions",
            "cache_corrupt",
        )
        parts = [
            f"{name}={self.counters[name]}"
            for name in interesting
            if self.counters.get(name)
        ]
        if parts:
            lines.append("  counters: " + " ".join(parts))
        for description in self.mismatched:
            lines.append(f"  MISMATCH {description}")
        if self.fsck_report is not None:
            lines.append(
                "  " + self.fsck_report.describe().replace("\n", "\n  ")
            )
        return "\n".join(lines)


def chaos_harness(
    specs: Optional[Sequence["JobSpec"]] = None,
    workdir=None,
    workers: int = 3,
    seed: int = 2015,
    scale: float = 0.2,
    cores: int = 4,
    kill_interval_s: float = 0.4,
    kill_first_leases: int = 2,
    corrupt_interval_s: float = 0.7,
    diskfull_puts: int = 1,
    retries: int = 9,
    progress=False,
) -> ChaosHarnessResult:
    """Run the chaos gauntlet; see the module docstring for the plot.

    ``kill_first_leases`` guarantees SIGKILLs that land mid-point even
    when every point simulates in milliseconds (the wall-clock
    ``kill_interval_s`` timer alone may never fire on a fast machine).
    ``retries`` is deliberately generous (default 9): every injected
    disk-full failure burns an attempt, and the point of this harness is
    to prove convergence under fire, not to quarantine healthy specs.
    Returns a :class:`ChaosHarnessResult`; inspect ``.ok`` (CI exits
    non-zero otherwise).
    """
    from repro.harness.jobs import Engine, execute_spec

    if specs is None:
        specs = default_chaos_specs(seed=seed, scale=scale, cores=cores)
    specs = list(specs)
    workdir = Path(
        workdir
        if workdir is not None
        else tempfile.mkdtemp(prefix="repro-chaos-harness-")
    )
    workdir.mkdir(parents=True, exist_ok=True)

    # 1. Undisturbed serial baseline: no engine, no cache, no store.
    baseline: Dict[str, str] = {}
    for spec in specs:
        baseline[spec.key()] = execute_spec(spec).to_json()

    # 2. The same grid through the supervised engine, under fire.
    cache_dir = workdir / "cache"
    engine = Engine(
        workers=workers,
        cache_dir=cache_dir,
        retries=retries,
        progress=progress,
        seed=seed,
        chaos=ChaosPlan(
            kill_interval_s=kill_interval_s,
            kill_first_leases=kill_first_leases,
            corrupt_interval_s=corrupt_interval_s,
            diskfull_puts=diskfull_puts,
            seed=seed,
        ),
    )
    jobs = engine.run(specs)

    # 3. Byte-identical convergence check.
    mismatched = []
    for job in jobs:
        expected = baseline[job.key]
        if job.result is None:
            mismatched.append(
                f"{job.spec.describe()}: no result ({job.error})"
            )
        elif job.result.to_json() != expected:
            mismatched.append(
                f"{job.spec.describe()}: result diverged from serial run"
            )

    # 4. fsck over the battered cache: whatever the injections tore up
    #    must be found and healed.
    counters = engine.resilience_counters()
    fsck_report = fsck(cache_dir, repair=True)
    pool_stats = engine.pool_stats
    return ChaosHarnessResult(
        total=len(specs),
        mismatched=mismatched,
        kills=pool_stats.get("kills", 0),
        restarts=pool_stats.get("restarts", 0),
        corruptions=pool_stats.get("corruptions", 0),
        quarantined=counters.get("quarantined", 0),
        counters=counters,
        fsck_report=fsck_report,
        workdir=str(workdir),
    )


__all__ = [
    "ChaosHarnessResult",
    "DEFAULT_CONFIGS",
    "DEFAULT_WORKLOADS",
    "chaos_harness",
    "default_chaos_specs",
]
