"""Compare two sets of benchmark runs, per workload and end-to-end metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the parent (baseline), ``B`` the change; both are ``run.py
--out`` files, normally ``--runs 10`` each with the same ``--seed``.
For every (workload, end-to-end metric) it prints each side's median,
spread (interquartile range as a share of the median) and run count,
B's change against A, and a verdict against the bound in
``BENCHMARK.json``:

better
    every run of B beats every run of A; or B's median is better by
    more than A's own spread and B wins at least 9 of 10 seed-paired
    runs.
unresolved
    not ``better``, and either side's spread exceeds the bound -- the
    runs cannot tell a regression of that size from noise.
worse
    B's median is worse than A's by more than the bound.
unchanged
    none of the above.

Exits 1 if any verdict is ``worse`` or any run failed its checks.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def load(path) -> Tuple[Dict[Tuple[str, str], Dict[int, float]], int]:
    """``{(workload, metric): {seed: value}}`` of a run file's correct
    runs, and how many of its runs failed their checks."""
    doc = json.loads(Path(path).read_text())
    values: Dict[Tuple[str, str], Dict[int, float]] = {}
    failed = 0
    for run in doc["runs"]:
        if not run["correct"]:
            failed += 1
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), {})[run["seed"]] = (
                metric["value"]
            )
    return values, failed


def verdict(a: Dict[int, float], b: Dict[int, float], lower_is_better: bool,
            bound: float) -> Tuple[str, float]:
    """The verdict for one metric, and B's change against A as a share
    of A's median (positive = worse)."""
    sign = 1.0 if lower_is_better else -1.0

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    med_a = statistics.median(a.values())
    change = sign * (statistics.median(b.values()) - med_a) / med_a
    if all(beats(x, y) for x in b.values() for y in a.values()):
        return "better", change
    paired = sorted(set(a) & set(b))
    wins = sum(beats(b[s], a[s]) for s in paired)
    if (paired and -change > spread(list(a.values()))
            and wins >= 0.9 * len(paired)):
        return "better", change
    if max(spread(list(a.values())), spread(list(b.values()))) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    return "unchanged", change


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    (a, failed_a), (b, failed_b) = load(argv[0]), load(argv[1])
    print(f"{'workload':16s} {'metric':14s} {'A median':>12s} {'spread':>7s} "
          f"{'n':>3s} {'B median':>12s} {'spread':>7s} {'n':>3s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    verdicts = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            word, change = verdict(a[key], b[key],
                                   metric["better"] == "lower",
                                   metric["bound"])
            verdicts.append(word)
            va, vb = list(a[key].values()), list(b[key].values())
            print(f"{workload:16s} {metric['name']:14s} "
                  f"{statistics.median(va):12.6g} {spread(va):7.1%} "
                  f"{len(va):3d} {statistics.median(vb):12.6g} "
                  f"{spread(vb):7.1%} {len(vb):3d} {change:+8.1%} "
                  f"{metric['bound']:6.0%}  {word}")
    if failed_a or failed_b:
        print(f"failed runs: A {failed_a}, B {failed_b}")
    counts = {w: verdicts.count(w) for w in sorted(set(verdicts))}
    print("verdicts:", ", ".join(f"{n} {w}" for w, n in counts.items()))
    return 1 if "worse" in verdicts or failed_a or failed_b else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
