"""Microbenchmark driver: events/sec, wall time, peak RSS per point.

A *point* is one (config, workload, cores, scale) simulation.  Each
point is run ``repeat`` times on freshly built machines; wall time is
the best repeat (least scheduler noise), while the simulated cycle and
event counts must be identical across repeats -- a free determinism
check on every benchmark run.

Host-speed normalization: absolute events/sec numbers are only
comparable on the same machine, so every document also records a
*calibration* score (a fixed pure-Python workload, see
:func:`calibrate`).  :func:`repro.perf.compare.compare` uses the ratio
of calibration scores to translate a baseline taken on one host into
an expectation on another.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.harness.configs import build_machine
from repro.harness.jobs import _instantiate, resolve_factory
from repro.harness.runner import run_workload

DEFAULT_SEED = 2015
DEFAULT_REPEAT = 3


@dataclass(frozen=True)
class BenchPoint:
    """One benchmarkable (config, workload, cores, scale) simulation."""

    config: str
    workload: str
    cores: int = 16
    scale: float = 1.0

    @property
    def key(self) -> str:
        return f"{self.config}/{self.workload}/c{self.cores}/s{self.scale:g}"

    @classmethod
    def parse(cls, spec: str) -> "BenchPoint":
        """Parse ``config:workload[:cores[:scale]]`` CLI specs."""
        parts = spec.split(":")
        if not 2 <= len(parts) <= 4:
            raise ValueError(
                f"bad point spec {spec!r}; want config:workload[:cores[:scale]]"
            )
        cores = int(parts[2]) if len(parts) > 2 else 16
        scale = float(parts[3]) if len(parts) > 3 else 1.0
        return cls(parts[0], parts[1], cores, scale)


#: The benchmark suites.  ``smoke`` is the CI gate (seconds); ``headline``
#: is the set the >=2x tentpole target is measured on (tens of seconds).
SUITES: Dict[str, Sequence[BenchPoint]] = {
    "smoke": (
        BenchPoint("msa-omu-2", "streamcluster", 16, 1.0),
        BenchPoint("pthread", "streamcluster", 16, 1.0),
        BenchPoint("msa-omu-2", "fluidanimate", 16, 1.0),
    ),
    "headline": (
        BenchPoint("msa-omu-2", "streamcluster", 64, 8.0),
        BenchPoint("msa-omu-2", "fluidanimate", 64, 2.0),
        BenchPoint("pthread", "streamcluster", 64, 4.0),
        BenchPoint("mcs-tour", "streamcluster", 64, 4.0),
        BenchPoint("msa-omu-2", "canneal", 64, 2.0),
        BenchPoint("ideal", "streamcluster", 64, 8.0),
        # The scaling point: event density per cycle grows with the
        # mesh, which is exactly where the calendar kernel's batched
        # drains pay off (see docs/PERF.md).
        BenchPoint("msa-omu-2", "streamcluster", 256, 8.0),
    ),
}


def calibrate(iters: int = 2_000_000) -> float:
    """Host-speed score in kops/sec: a fixed pure-Python loop whose cost
    tracks interpreter dispatch speed (what the simulator spends its
    time on), *not* this repo's code -- so the score is independent of
    the optimizations being measured."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iters):
            acc += i & 7
        best = min(best, time.perf_counter() - t0)
    assert acc >= 0
    return iters / best / 1000.0


def _peak_rss_kb() -> Optional[int]:
    """Process high-water RSS in KiB (monotonic over the process life;
    meaningful as a ceiling, not a per-point delta)."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes
        rss //= 1024
    return int(rss)


def measure_point(
    point: BenchPoint,
    repeat: int = DEFAULT_REPEAT,
    seed: int = DEFAULT_SEED,
    profile: int = 0,
) -> Dict:
    """Run one point ``repeat`` times; return its benchmark record.

    With ``profile`` > 0, one extra profiled run prints the top-N
    functions by self time (the profiled run is never timed).
    """
    factory = resolve_factory(point.workload)
    walls: List[float] = []
    fingerprint = None
    for _ in range(max(1, repeat)):
        machine = build_machine(point.config, n_cores=point.cores, seed=seed)
        workload = _instantiate(factory, point.cores, point.scale)
        t0 = time.perf_counter()
        result = run_workload(machine, workload, check=False)
        wall = time.perf_counter() - t0
        walls.append(wall)
        this = (result.cycles, machine.sim.events_processed)
        if fingerprint is None:
            fingerprint = this
        elif this != fingerprint:
            raise AssertionError(
                f"{point.key}: nondeterministic repeat -- "
                f"{this} != {fingerprint}"
            )
    if profile:
        machine = build_machine(point.config, n_cores=point.cores, seed=seed)
        workload = _instantiate(factory, point.cores, point.scale)
        prof = cProfile.Profile()
        prof.enable()
        run_workload(machine, workload, check=False)
        prof.disable()
        print(f"\n--- profile: {point.key} (top {profile} by self time) ---")
        pstats.Stats(prof).sort_stats("tottime").print_stats(profile)
    cycles, events = fingerprint
    best = min(walls)
    return {
        "key": point.key,
        "config": point.config,
        "workload": point.workload,
        "cores": point.cores,
        "scale": point.scale,
        "seed": seed,
        "repeats": len(walls),
        "cycles": cycles,
        "events": events,
        "wall_s": round(best, 6),
        "wall_all_s": [round(w, 6) for w in walls],
        "events_per_sec": round(events / best, 1) if best > 0 else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
    }


def run_suite(
    points: Sequence[BenchPoint],
    repeat: int = DEFAULT_REPEAT,
    seed: int = DEFAULT_SEED,
    label: str = "",
    profile: int = 0,
    progress: bool = False,
) -> Dict:
    """Measure every point; return the benchmark document (JSON-ready)."""
    import platform

    records = []
    for point in points:
        if progress:
            print(f"bench: {point.key} ...", file=sys.stderr, flush=True)
        records.append(
            measure_point(point, repeat=repeat, seed=seed, profile=profile)
        )
    return {
        "schema": "repro.perf/1",
        "label": label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_kops": round(calibrate(), 1),
        "points": records,
    }
