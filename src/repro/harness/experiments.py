"""Experiment drivers: one function per paper table/figure.

Each driver expresses its (config, workload, core-count) grid as
:class:`repro.harness.jobs.JobSpec` points and runs them through the
parallel experiment engine -- so every figure fans out across worker
processes and is served from the result cache on repeat runs (rerunning
with the same cache directory resumes an interrupted figure).
``workers``/``cache_dir``/``progress`` on
each driver (or the ``REPRO_WORKERS``/``REPRO_CACHE_DIR`` environment
variables) configure the engine.

Run standalone through the package CLI::

    python -m repro fig6 --cores 16 --scale 0.5 --workers 4
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.common.stats import geomean
from repro.harness.jobs import Engine, JobSpec
from repro.harness.report import render_table
from repro.harness.runner import RunResult
from repro.workloads import microbench
from repro.workloads.kernels import FIGURE_APPS, KERNELS

DEFAULT_CORES = (16, 64)

FIG5_CONFIGS = ("pthread", "msa0", "msa-omu-2", "mcs-tour", "spinlock")
FIG6_CONFIGS = ("msa0", "mcs-tour", "msa-omu-1", "msa-omu-2", "msa-inf", "ideal")
FIG9_CONFIGS = ("msa-omu-2", "msa-lockonly-2", "msa-barrieronly-2")


def _run(config: str, workload_name: str, n_cores: int, seed: int = 2015) -> RunResult:
    """Run one registry workload in-process (no pool, no cache)."""
    from repro.harness.jobs import execute_spec

    return execute_spec(
        JobSpec(config=config, workload=workload_name, cores=n_cores, seed=seed)
    )


def _grid(
    specs: Sequence[JobSpec],
    workers: Optional[int] = None,
    cache_dir=None,
    progress=False,
) -> Dict[Tuple[str, str, int], RunResult]:
    """Run a driver's grid through the engine; results are keyed by
    (config, workload, cores).  Duplicate grid points collapse to one
    run.  A point that still fails after its retry aborts the driver --
    a figure with silent holes would be worse than no figure."""
    unique: Dict[Tuple[str, str, int], JobSpec] = {}
    for spec in specs:
        unique.setdefault((spec.config, spec.workload, spec.cores), spec)
    engine = Engine(workers=workers, cache_dir=cache_dir, progress=progress)
    out: Dict[Tuple[str, str, int], RunResult] = {}
    failures = []
    for job in engine.run(list(unique.values())):
        if job.ok:
            out[(job.spec.config, job.spec.workload, job.spec.cores)] = job.result
        else:
            failures.append(f"{job.spec.describe()}: {job.error}")
    if failures:
        raise SimulationError(
            "grid points failed after retries: " + "; ".join(failures)
        )
    return out


def _dedupe(configs: Sequence[str]) -> List[str]:
    return list(dict.fromkeys(configs))


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------
def table1(print_out: bool = True):
    from repro.harness.related_work import table1_rows

    rows = table1_rows()
    if print_out:
        print(
            render_table(
                (
                    "Work",
                    "Synchronization Primitives",
                    "Notification",
                    "Resource overhead",
                    "Dedicated Network",
                    "Resource Overflow",
                ),
                rows,
                title="Table 1: Summary of hardware synchronization approaches",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 5: raw synchronization latency
# ---------------------------------------------------------------------------
def fig5(
    cores: Sequence[int] = DEFAULT_CORES,
    configs: Sequence[str] = FIG5_CONFIGS,
    print_out: bool = True,
    workers: Optional[int] = None,
    cache_dir=None,
    progress=False,
) -> Dict:
    """Raw latency (cycles) per probe, config, and core count."""
    probes = list(microbench.MICROBENCHES)
    runs = _grid(
        [
            JobSpec(config=config, workload=probe, cores=n)
            for probe in probes
            for n in cores
            for config in configs
        ],
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
    )
    results: Dict[str, Dict] = {}
    for probe in probes:
        metric = microbench.METRIC_KEYS[probe]
        results[probe] = {
            (config, n): runs[(config, probe, n)].workload_metrics[metric]
            for n in cores
            for config in configs
        }
    if print_out:
        from repro.harness.charts import hbar_chart

        for probe in results:
            rows = []
            for config in configs:
                rows.append(
                    [config] + [f"{results[probe][(config, n)]:.0f}" for n in cores]
                )
            print(
                render_table(
                    ["config"] + [f"{n}-core" for n in cores],
                    rows,
                    title=f"\nFigure 5 - {probe} (cycles)",
                )
            )
            n = cores[-1]
            print(
                hbar_chart(
                    [(c, results[probe][(c, n)]) for c in configs],
                    title=f"{probe} @ {n} cores:",
                    log_scale=True,
                )
            )
    return results


# ---------------------------------------------------------------------------
# Figure 6: application speedup over the pthread baseline
# ---------------------------------------------------------------------------
@dataclass
class SpeedupGrid:
    apps: List[str]
    cores: List[int]
    configs: List[str]
    speedups: Dict = field(default_factory=dict)  # (app, config, n) -> float
    coverage: Dict = field(default_factory=dict)

    def geomeans(self) -> Dict:
        out = {}
        for config in self.configs:
            for n in self.cores:
                out[(config, n)] = geomean(
                    self.speedups[(app, config, n)] for app in self.apps
                )
        return out


def fig6(
    cores: Sequence[int] = DEFAULT_CORES,
    configs: Sequence[str] = FIG6_CONFIGS,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    print_out: bool = True,
    workers: Optional[int] = None,
    cache_dir=None,
    progress=False,
) -> SpeedupGrid:
    apps = list(apps or KERNELS.keys())
    grid = SpeedupGrid(apps=apps, cores=list(cores), configs=list(configs))
    all_configs = _dedupe(["pthread"] + list(configs))
    runs = _grid(
        [
            JobSpec(config=config, workload=app, cores=n, scale=scale)
            for app in apps
            for n in cores
            for config in all_configs
        ],
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
    )
    for app in apps:
        for n in cores:
            baseline = runs[("pthread", app, n)]
            for config in configs:
                run = runs[(config, app, n)]
                grid.speedups[(app, config, n)] = run.speedup_over(baseline)
                grid.coverage[(app, config, n)] = run.msa_coverage
    if print_out:
        shown = [a for a in apps if a in FIGURE_APPS] or apps
        for n in cores:
            rows = []
            for app in shown:
                rows.append(
                    [app]
                    + [f"{grid.speedups[(app, c, n)]:.2f}" for c in configs]
                )
            gm = grid.geomeans()
            rows.append(
                ["GeoMean(all)"] + [f"{gm[(c, n)]:.2f}" for c in configs]
            )
            print(
                render_table(
                    ["app"] + list(configs),
                    rows,
                    title=f"\nFigure 6 - speedup over pthread, {n} cores",
                )
            )
        from repro.harness.charts import hbar_chart

        n = grid.cores[-1]
        gm = grid.geomeans()
        print(
            hbar_chart(
                [(c, gm[(c, n)]) for c in configs],
                title=f"\nsuite geomean speedup @ {n} cores (| marks 1.0x):",
                baseline=1.0,
            )
        )
    return grid


# ---------------------------------------------------------------------------
# Figure 7: coverage with and without the OMU
# ---------------------------------------------------------------------------
def fig7(
    cores: Sequence[int] = DEFAULT_CORES,
    entries: Sequence[int] = (1, 2),
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    print_out: bool = True,
    workers: Optional[int] = None,
    cache_dir=None,
    progress=False,
) -> Dict:
    """Percentage of sync operations serviced by the MSA, averaged over
    the suite, with the OMU vs the never-deallocate baseline."""
    apps = list(apps or KERNELS.keys())
    cells = [
        (e, n, with_omu)
        for n in cores
        for e in entries
        for with_omu in (False, True)
    ]
    config_of = {
        (e, n, with_omu): f"msa-omu-{e}" if with_omu else f"msa-{e}-no-omu"
        for (e, n, with_omu) in cells
    }
    runs = _grid(
        [
            JobSpec(config=config_of[cell], workload=app, cores=cell[1], scale=scale)
            for cell in cells
            for app in apps
        ],
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
    )
    results: Dict = {}
    for cell in cells:
        e, n, with_omu = cell
        covs = [
            runs[(config_of[cell], app, n)].msa_coverage
            for app in apps
            if runs[(config_of[cell], app, n)].msa_coverage is not None
        ]
        results[cell] = 100.0 * sum(covs) / len(covs)
    if print_out:
        rows = []
        for e in entries:
            for n in cores:
                rows.append(
                    [
                        f"MSA-{e}",
                        f"{n}-core",
                        f"{results[(e, n, False)]:.1f}",
                        f"{results[(e, n, True)]:.1f}",
                    ]
                )
        print(
            render_table(
                ["MSA", "cores", "Without OMU (%)", "With OMU (%)"],
                rows,
                title="\nFigure 7 - coverage of synchronization operations",
            )
        )
    return results


# ---------------------------------------------------------------------------
# Figure 8: HWSync-bit optimization on fluidanimate
# ---------------------------------------------------------------------------
def fig8(
    cores: Sequence[int] = DEFAULT_CORES,
    scale: float = 1.0,
    print_out: bool = True,
    workers: Optional[int] = None,
    cache_dir=None,
    progress=False,
) -> Dict:
    configs = ("pthread", "msa-omu-2", "msa-omu-2-noopt")
    runs = _grid(
        [
            JobSpec(config=c, workload="fluidanimate", cores=n, scale=scale)
            for n in cores
            for c in configs
        ],
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
    )
    results: Dict = {}
    for n in cores:
        baseline = runs[("pthread", "fluidanimate", n)]
        for config, label in (
            ("msa-omu-2", "with_opt"),
            ("msa-omu-2-noopt", "without_opt"),
        ):
            results[(label, n)] = runs[(config, "fluidanimate", n)].speedup_over(
                baseline
            )
    if print_out:
        rows = [
            [f"{n}-core", f"{results[('with_opt', n)]:.3f}",
             f"{results[('without_opt', n)]:.3f}"]
            for n in cores
        ]
        print(
            render_table(
                ["cores", "With Optimization", "Without Optimization"],
                rows,
                title="\nFigure 8 - HWSync-bit effect on fluidanimate (speedup)",
            )
        )
    return results


# ---------------------------------------------------------------------------
# Figure 9: lock-only / barrier-only MSA support
# ---------------------------------------------------------------------------
def fig9(
    n_cores: int = 64,
    apps: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    print_out: bool = True,
    workers: Optional[int] = None,
    cache_dir=None,
    progress=False,
) -> Dict:
    apps = list(apps or KERNELS.keys())
    runs = _grid(
        [
            JobSpec(config=config, workload=app, cores=n_cores, scale=scale)
            for app in apps
            for config in _dedupe(["pthread"] + list(FIG9_CONFIGS))
        ],
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
    )
    results: Dict = {}
    for app in apps:
        baseline = runs[("pthread", app, n_cores)]
        for config in FIG9_CONFIGS:
            results[(app, config)] = runs[(config, app, n_cores)].speedup_over(
                baseline
            )
    for config in FIG9_CONFIGS:
        results[("GeoMean", config)] = geomean(
            results[(app, config)] for app in apps
        )
    if print_out:
        shown = [a for a in apps if a in FIGURE_APPS] or apps
        rows = [
            [app] + [f"{results[(app, c)]:.2f}" for c in FIG9_CONFIGS]
            for app in shown + ["GeoMean"]
        ]
        print(
            render_table(
                ["app"] + list(FIG9_CONFIGS),
                rows,
                title=f"\nFigure 9 - type-restricted MSA, {n_cores} cores (speedup)",
            )
        )
    return results


# ---------------------------------------------------------------------------
# Chaos resilience: lock/barrier workloads under NoC message loss
# ---------------------------------------------------------------------------
def chaos(
    n_cores: int = 16,
    drop_rates: Sequence[float] = (0.0, 0.02, 0.05, 0.1, 0.2),
    apps: Sequence[str] = ("streamcluster", "fluidanimate"),
    scale: float = 0.5,
    config: str = "msa-omu-2",
    print_out: bool = True,
    workers: Optional[int] = None,
    cache_dir=None,
    progress=False,
    checkers: Sequence[str] = (),
) -> Dict:
    """Sweep NoC drop probability over sync-heavy kernels and report the
    cost of recovery: completion, slowdown over the fault-free run,
    coverage, and the retry/retransmission work the fault plane did.
    Every run must complete correctly -- the workloads' own validation
    hooks run at each point.

    ``checkers`` attaches :mod:`repro.verify` invariant monitors to
    every point (``python -m repro chaos --check``): injected faults
    must be fully masked by the recovery machinery, so a checked chaos
    sweep demands *zero* violations even at 20% drop rates."""
    from repro.faults import drop_plan

    grid = [(app, rate) for app in apps for rate in drop_rates]
    specs = [
        JobSpec(
            config=config,
            workload=app,
            cores=n_cores,
            scale=scale,
            fault_plan=drop_plan(rate, seed=1) if rate else None,
            checkers=tuple(checkers),
        )
        for app, rate in grid
    ]
    engine = Engine(workers=workers, cache_dir=cache_dir, progress=progress)
    results: Dict = {}
    failures = []
    for (app, rate), job in zip(grid, engine.run(specs)):
        if not job.ok:
            failures.append(f"{job.spec.describe()}@drop={rate}: {job.error}")
            continue
        run = job.result
        fc = run.fault_counters
        results[(app, rate)] = {
            "cycles": run.cycles,
            "coverage": run.msa_coverage,
            "msgs_dropped": fc.get("msgs_dropped", 0),
            "retransmits": fc.get("retransmits", 0),
            "retries": fc.get("retries", 0),
            "timeouts": fc.get("timeouts", 0),
            "degraded_tiles": fc.get("degraded_tiles", 0),
            "violations": (
                len(run.check_report.get("violations", []))
                if run.check_report is not None
                else None
            ),
        }
    if failures:
        raise SimulationError(
            "chaos points failed after retries: " + "; ".join(failures)
        )
    if print_out:
        for app in apps:
            base = results[(app, drop_rates[0])]["cycles"]
            rows = []
            for rate in drop_rates:
                r = results[(app, rate)]
                cov = r["coverage"]
                rows.append(
                    [
                        f"{100 * rate:.0f}%",
                        f"{r['cycles']:,}",
                        f"{r['cycles'] / base:.2f}x",
                        f"{100 * cov:.1f}%" if cov is not None else "-",
                        str(r["msgs_dropped"]),
                        str(r["retransmits"]),
                        str(r["retries"]),
                        str(r["timeouts"]),
                    ]
                )
            print(
                render_table(
                    [
                        "drop",
                        "cycles",
                        "slowdown",
                        "coverage",
                        "dropped",
                        "retransmits",
                        "retries",
                        "timeouts",
                    ],
                    rows,
                    title=f"\nChaos resilience - {app} on {config}, "
                    f"{n_cores} cores",
                )
            )
    return results


# ---------------------------------------------------------------------------
# Headline numbers (abstract / section 6 summary)
# ---------------------------------------------------------------------------
def headline(
    n_cores: int = 64,
    scale: float = 1.0,
    print_out: bool = True,
    workers: Optional[int] = None,
    cache_dir=None,
    progress=False,
) -> Dict:
    """The paper's summary claims: coverage of MSA-2 with OMU, mean
    speedup over pthreads, distance from ideal."""
    apps = list(KERNELS.keys())
    runs = _grid(
        [
            JobSpec(config=config, workload=app, cores=n_cores, scale=scale)
            for app in apps
            for config in ("pthread", "msa-omu-2", "ideal")
        ],
        workers=workers,
        cache_dir=cache_dir,
        progress=progress,
    )
    speedups, coverages, vs_ideal = [], [], []
    best = ("", 0.0)
    for app in apps:
        base = runs[("pthread", app, n_cores)]
        msa = runs[("msa-omu-2", app, n_cores)]
        ideal = runs[("ideal", app, n_cores)]
        s = msa.speedup_over(base)
        speedups.append(s)
        if s > best[1]:
            best = (app, s)
        if msa.msa_coverage is not None:
            coverages.append(msa.msa_coverage)
        vs_ideal.append(ideal.cycles / msa.cycles)
    out = {
        "mean_speedup": geomean(speedups),
        "max_speedup": best[1],
        "max_speedup_app": best[0],
        "mean_coverage_pct": 100.0 * sum(coverages) / len(coverages),
        "mean_fraction_of_ideal": geomean(vs_ideal),
    }
    if print_out:
        print("\nHeadline numbers (paper: 1.43x mean, 7.59x max in "
              "streamcluster, 93% coverage, within 3% of ideal)")
        print(f"  mean speedup over pthread : {out['mean_speedup']:.2f}x")
        print(f"  max speedup               : {out['max_speedup']:.2f}x "
              f"({out['max_speedup_app']})")
        print(f"  MSA-2 coverage            : {out['mean_coverage_pct']:.1f}%")
        print(f"  performance vs ideal      : {100*out['mean_fraction_of_ideal']:.1f}%")
    return out


def export_fig6_csv(grid: SpeedupGrid, path: str) -> None:
    """Write a Figure-6 speedup grid as flat CSV rows."""
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["app", "config", "n_cores", "speedup", "coverage"])
        for (app, config, n), speedup in sorted(grid.speedups.items()):
            coverage = grid.coverage.get((app, config, n))
            writer.writerow(
                [
                    app,
                    config,
                    n,
                    f"{speedup:.4f}",
                    f"{coverage:.4f}" if coverage is not None else "",
                ]
            )

