"""Compare two experiment sweeps (e.g., before/after a model change).

Loads the CSV form produced by :mod:`repro.harness.sweep` and reports
per-point cycle deltas, flagging regressions beyond a threshold.  A
point is its (config, workload, cores, scale): the rows of a load sweep
differ only in scale (the offered load)::

    from repro.harness.compare import compare_csv, render_comparison
    report = compare_csv(old_text, new_text)
    print(render_comparison(report))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.harness.report import render_table
from repro.harness.sweep import from_csv

Key = Tuple[str, str, int, float]  # (config, workload, n_cores, scale)


@dataclass
class Delta:
    key: Key
    old_cycles: int
    new_cycles: int

    @property
    def ratio(self) -> float:
        return self.new_cycles / self.old_cycles if self.old_cycles else 0.0

    @property
    def percent(self) -> float:
        return 100.0 * (self.ratio - 1.0)


@dataclass
class Comparison:
    deltas: List[Delta]
    only_old: List[Key]
    only_new: List[Key]

    def regressions(self, threshold_pct: float = 5.0) -> List[Delta]:
        return [d for d in self.deltas if d.percent > threshold_pct]

    def improvements(self, threshold_pct: float = 5.0) -> List[Delta]:
        return [d for d in self.deltas if d.percent < -threshold_pct]


def _index(rows) -> Dict[Key, int]:
    out: Dict[Key, int] = {}
    for row in rows:
        key = (
            row["config"],
            row["workload"],
            int(row["n_cores"]),
            float(row["scale"]),
        )
        out[key] = int(row["cycles"])
    return out


def compare_csv(old_text: str, new_text: str) -> Comparison:
    old = _index(from_csv(old_text))
    new = _index(from_csv(new_text))
    deltas = [
        Delta(key, old[key], new[key]) for key in sorted(old.keys() & new.keys())
    ]
    return Comparison(
        deltas=deltas,
        only_old=sorted(old.keys() - new.keys()),
        only_new=sorted(new.keys() - old.keys()),
    )


def render_comparison(
    comparison: Comparison, threshold_pct: float = 5.0
) -> str:
    rows = []
    for d in comparison.deltas:
        flag = ""
        if d.percent > threshold_pct:
            flag = "REGRESSION"
        elif d.percent < -threshold_pct:
            flag = "improved"
        config, workload, n_cores, scale = d.key
        rows.append(
            [
                config,
                workload,
                n_cores,
                scale,
                d.old_cycles,
                d.new_cycles,
                f"{d.percent:+.1f}%",
                flag,
            ]
        )
    out = render_table(
        ["config", "workload", "cores", "scale", "old", "new", "delta", ""],
        rows,
        title="sweep comparison",
    )
    extra = []
    if comparison.only_old:
        extra.append(f"removed points: {len(comparison.only_old)}")
    if comparison.only_new:
        extra.append(f"added points: {len(comparison.only_new)}")
    if extra:
        out += "\n" + "; ".join(extra)
    return out
