"""Parameter-sweep utilities and CSV export.

Experiments beyond the paper's fixed grids (sensitivity studies, new
configurations) share the same pattern: run a cartesian grid of
(config, workload, cores, knobs), collect :class:`RunResult` rows, and
export them.  :func:`sweep` runs such a grid -- through the parallel
:mod:`repro.harness.jobs` engine, so grids fan out across worker
processes and repeat runs are served from the result cache;
:func:`to_csv` writes the rows in a flat, spreadsheet-friendly form.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.common.errors import ConfigError, SimulationError
from repro.harness.configs import build_machine
from repro.harness.jobs import Engine, JobSpec
from repro.harness.runner import RunResult, run_workload


@dataclass
class SweepPoint:
    """One grid point and its result."""

    config: str
    workload: str
    n_cores: int
    scale: float
    result: RunResult
    extras: Dict[str, float] = field(default_factory=dict)


def sweep(
    configs: Sequence[str],
    workload_factories: Dict[str, Callable],
    cores: Sequence[int] = (16,),
    scale: float = 1.0,
    seed: int = 2015,
    machine_hook: Optional[Callable] = None,
    workers: Optional[int] = None,
    cache_dir=None,
    progress=False,
    engine: Optional[Engine] = None,
    checkers: Sequence[str] = (),
    params: Optional[Dict] = None,
    fault_plan=None,
) -> List[SweepPoint]:
    """Run every (config, workload, cores) combination.

    ``workload_factories`` maps name -> factory(n_threads, scale).
    ``workers``/``cache_dir``/``progress`` configure the
    :class:`repro.harness.jobs.Engine` the grid runs on (or pass a
    pre-built ``engine``); per-point results are deterministic, so the
    parallel path returns bit-identical results to the serial one.

    ``params`` applies :class:`MachineParams` overrides to every point
    of the grid -- top-level fields or dotted scalar paths like
    ``"msa.entries_per_tile"`` (see ``MachineParams.with_overrides``);
    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) runs the whole
    grid under fault injection.  Both are part of each point's cache
    key, so overridden grids never collide with plain ones.

    ``machine_hook(machine)`` runs after machine construction (for
    enabling tracing, poking parameters, ...).  Hooks see the live
    machine, which cannot cross a process boundary or a result cache,
    so a hooked sweep always runs serially in-process and uncached.
    """
    if machine_hook is not None:
        if params or fault_plan is not None:
            raise ConfigError(
                "machine_hook sweeps run through the legacy in-process "
                "path, which ignores params/fault_plan; apply overrides "
                "inside the hook instead"
            )
        return _sweep_hooked(
            configs, workload_factories, cores, scale, seed, machine_hook,
            checkers,
        )
    specs = []
    for n in cores:
        for name, factory in workload_factories.items():
            for config in configs:
                specs.append(
                    JobSpec(
                        config=config,
                        workload=name,
                        cores=n,
                        scale=scale,
                        seed=seed,
                        params=dict(params) if params else {},
                        factory=factory,
                        checkers=tuple(checkers),
                        fault_plan=fault_plan,
                    )
                )
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
            "sweep points failed after retries: " + "; ".join(failures)
        )
    return points


def _sweep_hooked(
    configs, workload_factories, cores, scale, seed, machine_hook,
    checkers=(),
) -> List[SweepPoint]:
    """Legacy in-process path for sweeps with a machine hook."""
    points: List[SweepPoint] = []
    for n in cores:
        for name, factory in workload_factories.items():
            for config in configs:
                machine = build_machine(config, n_cores=n, seed=seed)
                machine_hook(machine)
                result = run_workload(
                    machine, factory(n, scale), config=config,
                    checkers=tuple(checkers),
                )
                points.append(
                    SweepPoint(
                        config=config,
                        workload=name,
                        n_cores=n,
                        scale=scale,
                        result=result,
                    )
                )
    return points


def add_speedups(points: List[SweepPoint], baseline_config: str) -> None:
    """Annotate each point with speedup over the same (workload, cores)
    point of ``baseline_config``."""
    baselines = {
        (p.workload, p.n_cores): p.result.cycles
        for p in points
        if p.config == baseline_config
    }
    for p in points:
        base = baselines.get((p.workload, p.n_cores))
        if base is None:
            continue
        if base == 0 or p.result.cycles == 0:
            warnings.warn(
                f"speedup undefined for ({p.workload}, {p.config}, "
                f"{p.n_cores} cores): "
                + (
                    f"baseline {baseline_config!r} ran for 0 cycles"
                    if base == 0
                    else "point ran for 0 cycles"
                ),
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        p.extras["speedup"] = base / p.result.cycles


#: workload_metrics key -> CSV extras column for request-latency SLOs.
REQUEST_METRIC_COLUMNS = {
    "traffic.p50": "p50",
    "traffic.p99": "p99",
    "traffic.p999": "p999",
    "traffic.goodput_rpk": "goodput_rpk",
    "traffic.offered_rpk": "offered_rpk",
    "traffic.shed": "shed",
    "traffic.timeout": "timeout",
}


def add_request_metrics(points: List[SweepPoint]) -> None:
    """Copy request-latency SLO metrics into CSV extras columns.

    Open-loop traffic points (:mod:`repro.traffic`) report sojourn
    percentiles and goodput in ``RunResult.workload_metrics``; lifting
    them into ``extras`` makes load-sweep CSVs directly plottable
    (offered load vs p99) without digging through result JSON.  Points
    without traffic metrics are left untouched, so this is safe to call
    on any sweep.
    """
    for p in points:
        metrics = p.result.workload_metrics or {}
        for key, column in REQUEST_METRIC_COLUMNS.items():
            if key in metrics:
                p.extras[column] = metrics[key]


BASE_COLUMNS = (
    "config",
    "workload",
    "n_cores",
    "scale",
    "cycles",
    "msa_coverage",
)

#: Legacy alias (pre-dates dynamic extras columns).
CSV_COLUMNS = BASE_COLUMNS + ("speedup",)


def _format_extra(value) -> str:
    """One extras cell: floats to 4 places, missing values empty, and
    everything else (ints, bools, strings from annotators) verbatim --
    a sparse or mixed-type extras column must not crash the export."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def to_csv(points: Iterable[SweepPoint], path: Optional[str] = None) -> str:
    """Serialize sweep points to CSV; returns the text (and writes to
    ``path`` when given).

    Columns are :data:`BASE_COLUMNS` followed by *every* extras key seen
    across the points (sorted), so annotations beyond ``speedup`` --
    sensitivity knobs, derived metrics -- survive the round trip.
    """
    points = list(points)
    extra_keys = sorted({k for p in points for k in p.extras})
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(BASE_COLUMNS) + extra_keys)
    for p in points:
        coverage = p.result.msa_coverage
        row = [
            p.config,
            p.workload,
            p.n_cores,
            p.scale,
            p.result.cycles,
            f"{coverage:.4f}" if coverage is not None else "",
        ]
        for key in extra_keys:
            row.append(_format_extra(p.extras.get(key)))
        writer.writerow(row)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w") as f:
            f.write(text)
    return text


def from_csv(text: str) -> List[Dict[str, str]]:
    """Parse a sweep CSV back into row dicts (round-trip helper)."""
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)
