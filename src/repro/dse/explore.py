"""The DSE driver: strategy rungs -> cached sweeps -> Pareto front.

:func:`explore` walks a :class:`~repro.dse.space.SpaceSpec` with a
search strategy and returns a :class:`DseResult`.  Every evaluation is
an ordinary :func:`repro.api.sweep` call -- one per design per rung,
plus one baseline sweep per rung scale -- so all the machinery built
for sweeps applies unchanged: the result cache dedups repeated points
(across rungs, across strategies, across re-runs), ``server=`` pushes
the grid to a ``repro serve`` instance, and killing the process loses
nothing that already finished.

Objectives per design (all computed over the *final* rung, where the
designs ran at full scale):

``speedup``   geomean over the (workload x cores) grid of
              ``baseline_cycles / design_cycles`` (max).
``cost``      storage bits from the :class:`~repro.dse.cost.CostModel`
              at the largest evaluated core count (min).
``chaos``     resilience under a :func:`repro.faults.drop_plan`: for
              traffic workloads the worst p99 sojourn across the grid;
              for kernels the geomean slowdown vs the clean run (min).
              Fault plans never cross the service wire, so the chaos
              pass is local-only; with ``server=`` pass
              ``chaos_rate=0``.

Designs eliminated on early (cheap) rungs are kept in the record --
with the rung they reached and the score that eliminated them -- but
only full-scale designs enter the Pareto front: scores at different
scales are not comparable.

The result persists as ``<cache_dir>/dse/<space_hash>.json`` (schema
:data:`~repro.common.schema.DSE_SCHEMA`), which is what ``python -m
repro report`` reads to render Pareto scatter and heatmap pages
without re-running anything.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.schema import DSE_SCHEMA, check_schema
from repro.common.stats import geomean
from repro.dse.cost import CostModel
from repro.dse.pareto import pareto_indices
from repro.dse.space import SpaceSpec
from repro.dse.strategies import Strategy, resolve_strategy
from repro.harness.jobs import EngineStats

#: Default message-drop probability for the chaos objective.
DEFAULT_CHAOS_RATE = 0.02


@dataclass
class DesignRecord:
    """One evaluated design and everything we learned about it."""

    design: Dict[str, Any]
    """The axis values (``{"msa.entries_per_tile": 4, ...}``)."""

    speedup: float
    """Geomean speedup over the baseline at the last rung it ran."""

    cost: float
    """Cost-model total (storage bits) -- scale-independent."""

    cost_breakdown: Dict[str, float] = field(default_factory=dict)
    chaos: Optional[float] = None
    """Chaos objective (final-rung survivors only; lower is better)."""

    rung: int = 0
    """Last rung index this design was evaluated at."""

    final: bool = False
    """True when the design survived to the full-scale rung (only
    these enter the Pareto front)."""

    pareto: bool = False

    def label(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.design.items())

    def objectives(self) -> Dict[str, Optional[float]]:
        return {
            "speedup": self.speedup,
            "cost": self.cost,
            "chaos": self.chaos,
        }


@dataclass
class DseResult:
    """Outcome of one :func:`explore` run (JSON round-trippable)."""

    space: SpaceSpec
    strategy: str
    baseline: str
    records: List[DesignRecord]
    cost_model: CostModel = field(default_factory=CostModel)
    chaos_rate: float = 0.0
    stats: EngineStats = field(default_factory=EngineStats)
    rung_sizes: List[int] = field(default_factory=list)
    """Designs evaluated per rung (budget audit trail)."""

    path: Optional[str] = None
    """Where :meth:`save` last wrote this document, if anywhere."""

    # ------------------------------------------------------------------
    @property
    def pareto_records(self) -> List[DesignRecord]:
        return [r for r in self.records if r.pareto]

    @property
    def final_records(self) -> List[DesignRecord]:
        return [r for r in self.records if r.final]

    def objectives(self) -> Tuple[Tuple[str, str], ...]:
        """The objective set this result was ranked on (chaos only when
        a chaos pass actually ran)."""
        objs: List[Tuple[str, str]] = [("speedup", "max"), ("cost", "min")]
        if self.chaos_rate > 0:
            objs.append(("chaos", "min"))
        return tuple(objs)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": DSE_SCHEMA,
            "space": self.space.to_dict(),
            "space_hash": self.space.space_hash(),
            "strategy": self.strategy,
            "baseline": self.baseline,
            "cost_model": self.cost_model.to_dict(),
            "chaos_rate": self.chaos_rate,
            "rung_sizes": list(self.rung_sizes),
            "stats": asdict(self.stats),
            "records": [asdict(r) for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DseResult":
        check_schema(data.get("schema"), DSE_SCHEMA, what="dse")
        try:
            records = [
                DesignRecord(
                    design=dict(r["design"]),
                    speedup=float(r["speedup"]),
                    cost=float(r["cost"]),
                    cost_breakdown=dict(r.get("cost_breakdown", {})),
                    chaos=r.get("chaos"),
                    rung=int(r.get("rung", 0)),
                    final=bool(r.get("final", False)),
                    pareto=bool(r.get("pareto", False)),
                )
                for r in data["records"]
            ]
            stats_data = data.get("stats", {})
            stats = EngineStats(
                **{
                    k: int(v)
                    for k, v in stats_data.items()
                    if k in EngineStats.__dataclass_fields__
                }
            )
            return cls(
                space=SpaceSpec.from_dict(data["space"]),
                strategy=str(data.get("strategy", "grid")),
                baseline=str(data.get("baseline", "pthread")),
                records=records,
                cost_model=CostModel.from_dict(data.get("cost_model", {})),
                chaos_rate=float(data.get("chaos_rate", 0.0)),
                stats=stats,
                rung_sizes=[int(n) for n in data.get("rung_sizes", [])],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed DSE document: {exc}") from None

    # ------------------------------------------------------------------
    def save(self, cache_dir: str) -> str:
        """Persist under ``<cache_dir>/dse/<space_hash>.json`` (written
        atomically: same directory tmp file + rename)."""
        dse_dir = os.path.join(str(cache_dir), "dse")
        os.makedirs(dse_dir, exist_ok=True)
        path = os.path.join(dse_dir, f"{self.space.space_hash()}.json")
        fd, tmp = tempfile.mkstemp(dir=dse_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self.path = path
        return path

    @classmethod
    def load(cls, path: str) -> "DseResult":
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read DSE document {path}: {exc}")
        result = cls.from_dict(data)
        result.path = str(path)
        return result

    # ------------------------------------------------------------------
    def to_csv(self, path: Optional[str] = None) -> str:
        """Flat CSV: one row per design, axis columns then objectives."""
        import csv
        import io

        axis_names = [name for name, _ in self.space.axes]
        header = axis_names + [
            "speedup", "cost", "msa_bits", "omu_bits", "noc_links",
            "chaos", "rung", "final", "pareto",
        ]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for r in self.records:
            row: List[Any] = [r.design.get(a, "") for a in axis_names]
            row.append(f"{r.speedup:.4f}")
            row.append(f"{r.cost:.1f}")
            for part in ("msa_bits", "omu_bits", "noc_links"):
                value = r.cost_breakdown.get(part)
                row.append(f"{value:.1f}" if value is not None else "")
            row.append(f"{r.chaos:.4f}" if r.chaos is not None else "")
            row.append(r.rung)
            row.append(int(r.final))
            row.append(int(r.pareto))
            writer.writerow(row)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text

    def describe(self) -> str:
        lines = [
            self.space.describe(),
            f"strategy {self.strategy}, baseline {self.baseline}, "
            f"rungs {self.rung_sizes}",
            f"engine: {self.stats.describe()}",
            f"pareto front ({len(self.pareto_records)} of "
            f"{len(self.final_records)} full-scale designs):",
        ]
        for r in sorted(self.pareto_records, key=lambda r: -r.speedup):
            chaos = f", chaos {r.chaos:.3f}" if r.chaos is not None else ""
            lines.append(
                f"  {r.label()}: speedup {r.speedup:.3f}, "
                f"cost {r.cost:.0f} bits{chaos}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def _add(total: EngineStats, part: Optional[EngineStats]) -> None:
    if part is None:
        return
    total.total += part.total
    total.cache_hits += part.cache_hits
    total.executed += part.executed
    total.retried += part.retried
    total.failed += part.failed


def _grid_cycles(points) -> Dict[Tuple[str, int], int]:
    return {(p.workload, p.n_cores): p.result.cycles for p in points}


def _score(
    design_points, baselines: Dict[Tuple[str, int], int]
) -> float:
    """Geomean speedup of one design over the baseline grid."""
    ratios = []
    for p in design_points:
        base = baselines.get((p.workload, p.n_cores))
        if not base or not p.result.cycles:
            continue
        ratios.append(base / p.result.cycles)
    return geomean(ratios) if ratios else 0.0


def _chaos_objective(chaos_points, clean_cycles) -> float:
    """Traffic grids: worst p99 under chaos.  Kernel grids: geomean
    slowdown vs the clean run (1.0 = unaffected)."""
    p99s = [
        (p.result.workload_metrics or {}).get("traffic.p99")
        for p in chaos_points
    ]
    p99s = [v for v in p99s if v is not None]
    if p99s:
        return max(p99s)
    ratios = []
    for p in chaos_points:
        clean = clean_cycles.get((p.workload, p.n_cores))
        if not clean or not p.result.cycles:
            continue
        ratios.append(p.result.cycles / clean)
    return geomean(ratios) if ratios else 0.0


def explore(
    space: SpaceSpec,
    strategy="grid",
    baseline: str = "pthread",
    cost_model: Optional[CostModel] = None,
    chaos_rate: float = DEFAULT_CHAOS_RATE,
    chaos_seed: int = 0,
    workers: Optional[int] = None,
    cache_dir=None,
    server: Optional[str] = None,
    progress: bool = False,
    save: bool = True,
    **strategy_kwargs,
) -> DseResult:
    """Explore ``space`` with ``strategy`` and return the ranked result.

    ``strategy`` is a name from
    :data:`~repro.dse.strategies.STRATEGIES`, a class, or an instance;
    extra keyword arguments go to the strategy constructor (e.g.
    ``explore(space, "halving", rungs=2)``).  ``workers`` /
    ``cache_dir`` / ``server`` / ``progress`` are passed straight to
    :func:`repro.api.sweep` for every rung; ``chaos_rate=0`` skips the
    chaos pass (mandatory with ``server=``, since fault plans do not
    cross the wire).  With ``save`` and a cache dir, the document lands
    in ``<cache_dir>/dse/`` for the HTML report.
    """
    from repro import api
    from repro.common import config as repro_config
    from repro.faults import drop_plan

    space.validate()
    strat: Strategy = resolve_strategy(strategy, **strategy_kwargs)
    model = cost_model or CostModel()
    server = repro_config.server(server)
    if server is not None and chaos_rate > 0:
        raise ConfigError(
            "the chaos objective is local-only (fault plans do not cross "
            "the service wire); pass chaos_rate=0 when using server=..."
        )
    if chaos_rate < 0 or chaos_rate >= 1:
        raise ConfigError(f"chaos_rate must be in [0, 1), got {chaos_rate}")

    def run_sweep(configs, scale, params=None, fault_plan=None):
        points, stats = api.sweep(
            configs,
            list(space.workloads),
            cores=list(space.cores),
            scale=scale,
            seed=space.seed,
            workers=workers,
            cache_dir=cache_dir,
            server=server,
            progress=progress,
            return_stats=True,
            params=params,
            fault_plan=fault_plan,
        )
        return points, stats

    totals = EngineStats()
    rung_sizes: List[int] = []
    # design key -> (rung index, score) for everything ever evaluated
    evaluated: Dict[str, Tuple[Dict[str, Any], int, float]] = {}
    rung = strat.first_rung(space)
    final_rung = rung
    final_points: Dict[str, list] = {}
    while True:
        rung_sizes.append(len(rung.designs))
        base_points, base_stats = run_sweep([baseline], rung.scale)
        _add(totals, base_stats)
        baselines = _grid_cycles(base_points)
        scores: List[float] = []
        points_by_design: Dict[str, list] = {}
        for design in rung.designs:
            points, stats = run_sweep(
                [space.config], rung.scale, params=design
            )
            _add(totals, stats)
            score = _score(points, baselines)
            scores.append(score)
            key = json.dumps(design, sort_keys=True, default=repr)
            points_by_design[key] = points
            evaluated[key] = (design, rung.index, score)
        nxt = strat.next_rung(space, rung, scores)
        if nxt is None:
            final_rung = rung
            final_points = points_by_design
            break
        rung = nxt

    # Chaos pass over the full-scale survivors.
    chaos_by_key: Dict[str, float] = {}
    if chaos_rate > 0:
        plan = drop_plan(chaos_rate, seed=chaos_seed)
        for design in final_rung.designs:
            key = json.dumps(design, sort_keys=True, default=repr)
            points, stats = run_sweep(
                [space.config], final_rung.scale,
                params=design, fault_plan=plan,
            )
            _add(totals, stats)
            chaos_by_key[key] = _chaos_objective(
                points, _grid_cycles(final_points[key])
            )

    # Assemble records: survivors first (design order), then eliminated.
    cost_cores = max(space.cores)
    final_keys = {
        json.dumps(d, sort_keys=True, default=repr)
        for d in final_rung.designs
    }
    records: List[DesignRecord] = []
    for key, (design, rung_idx, score) in evaluated.items():
        breakdown = model.breakdown(space.resolved(design, cost_cores))
        records.append(
            DesignRecord(
                design=design,
                speedup=score,
                cost=breakdown["total"],
                cost_breakdown=breakdown,
                chaos=chaos_by_key.get(key),
                rung=rung_idx,
                final=key in final_keys,
            )
        )
    records.sort(key=lambda r: (not r.final, -r.speedup))

    result = DseResult(
        space=space,
        strategy=strat.describe(),
        baseline=baseline,
        records=records,
        cost_model=model,
        chaos_rate=chaos_rate,
        stats=totals,
        rung_sizes=rung_sizes,
    )
    finals = result.final_records
    for i in pareto_indices(
        [r.objectives() for r in finals], result.objectives()
    ):
        finals[i].pareto = True

    if save:
        doc_dir = repro_config.cache_dir(cache_dir)
        if doc_dir is not None:
            result.save(doc_dir)
    return result
