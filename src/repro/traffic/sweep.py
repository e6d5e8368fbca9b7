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

from repro.common.errors import ConfigError
from repro.harness.jobs import Engine
from repro.harness.sweep import (
    SweepPoint,
    add_request_metrics,
    grid_specs,
    run_specs,
)
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
    engine: Optional[Engine] = None,
) -> List[SweepPoint]:
    """Sweep offered load for one scenario across machine configs.

    Returns :class:`SweepPoint` rows (``scale`` = load multiplier) with
    request-latency SLO extras already annotated, ready for
    :func:`repro.harness.sweep.to_csv` or the HTML report.  Each load
    is one config grid (:func:`~repro.harness.sweep.grid_specs`), run
    on ``engine`` (default: configured from the environment; see
    :func:`repro.api.traffic` for the ``workers``/``cache_dir`` form).

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
        spec
        for load in loads
        for spec in grid_specs(
            configs,
            {scenario: None},
            cores,
            scale=load,
            seed=seed,
            checkers=checkers,
            fault_plan=fault_plan,
        )
    ]
    points = run_specs(specs, engine)
    add_request_metrics(points)
    return points
