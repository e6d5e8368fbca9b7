"""Report-from-cache: render HTML reports from finished sweeps.

The experiment engine (:mod:`repro.harness.jobs`) leaves every finished
run in its content-addressed result cache.  This module turns that
cache back into sweep points and renders the cross-sweep HTML report --
**without re-simulating anything**: ``python -m repro report`` on a
warm cache is pure deserialization plus string formatting.

>>> from repro.obs.report import load_cache_points
>>> list(load_cache_points("/nonexistent"))
[]
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.harness.jobs import ResultCache
from repro.harness.sweep import SweepPoint, add_speedups
from repro.obs.html import render_sweep_report


def load_cache_points(cache_dir) -> List[SweepPoint]:
    """Load every readable entry of a result cache as
    :class:`~repro.harness.sweep.SweepPoint` rows (key-sorted,
    deterministic order).  Missing or empty caches yield ``[]``."""
    points: List[SweepPoint] = []
    for spec, result in ResultCache(cache_dir).entries():
        points.append(
            SweepPoint(
                config=spec.get("config", result.config),
                workload=spec.get("workload", result.workload),
                n_cores=int(spec.get("cores", result.n_cores)),
                scale=float(spec.get("scale", 1.0)),
                result=result,
            )
        )
    return points


def load_store_counters(cache_dir) -> Optional[dict]:
    """Lifetime resilience counters of the job store living next to a
    result cache (``<cache_dir>/jobs.sqlite3``): leases granted and
    reclaimed, retries, quarantines, stale completions.  ``None`` when
    the cache has no store (a pre-resilience or serial-only sweep)."""
    from repro.resilience import JobStore, default_store_path

    path = default_store_path(cache_dir)
    if not path.is_file():
        return None
    try:
        store = JobStore(path)
        try:
            return store.counters()
        finally:
            store.close()
    except Exception:
        return None


def report_from_cache(
    cache_dir,
    out,
    baseline: Optional[str] = None,
    title: Optional[str] = None,
) -> Path:
    """Render the cross-sweep HTML report for a result cache.

    ``cache_dir`` is the engine's cache root (``REPRO_CACHE_DIR`` /
    ``--cache``); ``out`` the HTML file to write.  With ``baseline`` (a
    config name present in the cache, e.g. ``pthread``), speedup
    columns are added.  Raises :class:`ConfigError` on
    an empty cache -- a report of nothing is a usage error, not a blank
    page.
    """
    points = load_cache_points(cache_dir)
    if not points:
        raise ConfigError(
            f"no cached results under {str(cache_dir)!r}; run a sweep "
            "first (e.g. `python -m repro sweep --cache-dir DIR ...`)"
        )
    if baseline is not None:
        if not any(p.config == baseline for p in points):
            raise ConfigError(
                f"baseline config {baseline!r} not in cache; have "
                f"{sorted({p.config for p in points})}"
            )
        add_speedups(points, baseline)
    html = render_sweep_report(
        points,
        baseline=baseline,
        title=title or f"repro sweep report ({len(points)} cached points)",
        resilience=load_store_counters(cache_dir),
    )
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html)
    return out
