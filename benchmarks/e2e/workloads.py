"""The benchmark's workloads: which points each one runs, and why.

Pure data (no ``repro`` import), so the set-up probe and ``run.py`` can
read it without paying for the simulator's imports.

Three kinds of workload drive three different front doors:

``direct``
    Each point is built and simulated in the measuring process
    (``build_machine`` -> workload factory -> ``run_workload``) and its
    result is stored with ``ResultCache.put``; the warm pass reads every
    point back with ``ResultCache.get``.
``engine``
    The whole grid goes through ``Engine.run``: cold with two worker
    processes and an empty cache directory, then warm (every point a
    cache hit).
``serve``
    One client in a closed loop against ``python -m repro serve``:
    fresh single-point sweeps (submit, wait, fetch), then the warm
    passes resubmit each one (a dedup hit answered from the service's
    cache).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

KERNELS = (
    "barnes", "bodytrack", "canneal", "cholesky", "dedup", "ferret",
    "fluidanimate", "fmm", "lu", "ocean", "ocean-nc", "radiosity",
    "raytrace", "streamcluster", "swaptions", "volrend", "water-sp",
)
TRAFFIC = (
    "traffic.bursty", "traffic.diurnal", "traffic.pareto", "traffic.poisson",
)


@dataclass(frozen=True)
class Point:
    """One simulation point; its seed comes from the run's ``--seed``."""

    config: str
    workload: str
    cores: int
    scale: float


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    why: str
    points: Tuple[Point, ...]
    seeds_per_point: int = 1
    """Engine grids run every point at ``seed, seed + 1, ...``."""

    warm_passes: int = 1
    """Warm passes measured after each cold pass."""

    def quick(self) -> "Workload":
        """A seconds-long variant for the smoke test: the same code
        paths on 16-core, scale-0.1 points (traffic keeps its load)."""
        points = tuple(
            replace(
                p,
                cores=16,
                scale=p.scale if p.workload in TRAFFIC else 0.1,
            )
            for p in self.points[:3]
        )
        return replace(self, points=points, seeds_per_point=1, warm_passes=2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-msa",
            "direct",
            "MSA hardware sync at 64 and 256 cores: the kernel, NoC and MSA "
            "do most of the work, at the densest event batches (5-12 per "
            "timestamp)",
            (
                Point("msa-omu-2", "streamcluster", 64, 4.0),
                Point("msa-omu-2", "canneal", 64, 2.0),
                Point("msa-omu-2", "fluidanimate", 64, 2.0),
                Point("msa-omu-2", "streamcluster", 256, 4.0),
            ),
            warm_passes=50,
        ),
        Workload(
            "sim-sw",
            "direct",
            "the same kernels on software sync: MSA idle, coherence and "
            "futex/spin dominate, at low event density (~1.25 per "
            "timestamp)",
            (
                Point("pthread", "streamcluster", 64, 4.0),
                Point("pthread", "canneal", 64, 2.0),
                Point("mcs-tour", "streamcluster", 64, 4.0),
            ),
            warm_passes=50,
        ),
        Workload(
            "traffic-open",
            "direct",
            "open-loop request traffic: the sparsest event stream and many "
            "short runs, so per-run build, instantiate and result costs "
            "show",
            tuple(
                Point(config, scenario, 16, load)
                for scenario in TRAFFIC
                for config in ("msa-omu-2", "pthread")
                for load in (1.0, 4.0)
            ),
            warm_passes=50,
        ),
        Workload(
            "sweep-engine",
            "engine",
            "102 tiny points through Engine.run, cold on two workers and "
            "warm from the cache: the engine, job store, cache and codec do "
            "most of the work",
            tuple(
                Point(config, kernel, 16, 0.1)
                for config in ("pthread", "msa-omu-2", "ideal")
                for kernel in KERNELS
            ),
            seeds_per_point=2,
            warm_passes=10,
        ),
        Workload(
            "serve-roundtrip",
            "serve",
            "closed-loop client against repro serve: fresh points measure "
            "dispatch and long-poll latency, resubmits measure HTTP, JSON "
            "and the store alone",
            (Point("msa-omu-2", "streamcluster", 16, 0.1),) * 10,
            warm_passes=3,
        ),
    )
}
"""Serve workloads list one point per request of a pass; request ``i``
of a run gets seed ``1000 * seed + i``, so every fresh request is a
point the service has not seen."""
