"""Load sweeps: offered load vs tail latency across sync backends.

The open-loop analogue of the paper's speedup sweeps.  Each point is an
ordinary registry-named :class:`JobSpec` (so the result cache, parallel
engine, and ``repro serve`` dedup/resume all apply) whose ``scale`` is
the offered-load multiplier.  The output is the classic
capacity-planning curve: p99 sojourn latency against offered load, one
line per machine configuration -- flat until saturation, then the knee.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.errors import ConfigError, SimulationError
from repro.harness.jobs import Engine, JobSpec
from repro.harness.sweep import SweepPoint, add_request_metrics
from repro.traffic.workload import TRAFFIC

#: Default backends compared in a load sweep (paper configs + ideal).
DEFAULT_CONFIGS = ("msa0", "msa-omu-2", "pthread", "ideal")

#: Default offered-load multipliers: below, near, and past saturation.
DEFAULT_LOADS = (0.5, 1.0, 2.0, 4.0)


def load_sweep(
    scenario: str = "traffic.poisson",
    configs: Sequence[str] = DEFAULT_CONFIGS,
    loads: Sequence[float] = DEFAULT_LOADS,
    cores: int = 16,
    seed: int = 2015,
    checkers: Sequence[str] = (),
    fault_plan=None,
    workers: Optional[int] = None,
    cache_dir=None,
    progress: bool = False,
    engine: Optional[Engine] = None,
) -> List[SweepPoint]:
    """Sweep offered load for one scenario across machine configs.

    Returns :class:`SweepPoint` rows (``scale`` = load multiplier) with
    request-latency SLO extras already annotated, ready for
    :func:`repro.harness.sweep.to_csv` or the HTML report.

    ``fault_plan`` (e.g. :func:`repro.faults.drop_plan`) runs the whole
    sweep under fault injection -- the overload-plus-failure experiment;
    fault plans are process-local, so such sweeps bypass remote serve.
    """
    if scenario not in TRAFFIC:
        raise ConfigError(
            f"unknown traffic scenario {scenario!r}; "
            f"options: {sorted(TRAFFIC)}"
        )
    specs = [
        JobSpec(
            config=config,
            workload=scenario,
            cores=cores,
            scale=load,
            seed=seed,
            checkers=tuple(checkers),
            fault_plan=fault_plan,
        )
        for load in loads
        for config in configs
    ]
    if engine is None:
        engine = Engine(
            workers=workers,
            cache_dir=cache_dir,
            progress=progress,
        )
    points: List[SweepPoint] = []
    failures: List[str] = []
    for job in engine.run(specs):
        if not job.ok:
            failures.append(f"{job.spec.describe()}: {job.error}")
            continue
        points.append(
            SweepPoint(
                config=job.spec.config,
                workload=job.spec.workload,
                n_cores=job.spec.cores,
                scale=job.spec.scale,
                result=job.result,
            )
        )
    if failures:
        raise SimulationError(
            "load-sweep points failed after retries: " + "; ".join(failures)
        )
    add_request_metrics(points)
    return points
