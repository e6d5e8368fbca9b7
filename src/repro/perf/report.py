"""Benchmark document I/O and the human-readable table."""

from __future__ import annotations

import json
from typing import Dict, Optional

SCHEMA = "repro.perf/1"


def write_doc(doc: Dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_doc(path: str) -> Dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}"
        )
    return doc


def _fmt_rate(eps: float) -> str:
    if eps >= 1e6:
        return f"{eps / 1e6:.2f}M"
    if eps >= 1e3:
        return f"{eps / 1e3:.0f}k"
    return f"{eps:.0f}"


def render_table(doc: Dict, baseline: Optional[Dict] = None) -> str:
    """The human table; with ``baseline``, adds a speedup column
    (events/sec ratio, not host-normalized -- use compare() for gating)."""
    base_by_key = {
        p["key"]: p for p in (baseline or {}).get("points", ())
    }
    header = f"{'point':<44} {'events':>10} {'wall':>8} {'ev/s':>8}"
    if base_by_key:
        header += f" {'speedup':>8}"
    lines = [header, "-" * len(header)]
    for p in doc["points"]:
        line = (
            f"{p['key']:<44} {p['events']:>10,} {p['wall_s']:>7.3f}s "
            f"{_fmt_rate(p['events_per_sec']):>8}"
        )
        old = base_by_key.get(p["key"])
        if base_by_key:
            if old and old.get("events_per_sec"):
                ratio = p["events_per_sec"] / old["events_per_sec"]
                line += f" {ratio:>7.2f}x"
            else:
                line += f" {'-':>8}"
        lines.append(line)
    rss = max(
        (p.get("peak_rss_kb") or 0) for p in doc["points"]
    ) if doc["points"] else 0
    lines.append(
        f"calibration {doc.get('calibration_kops', 0):,.0f} kops/s; "
        f"peak RSS {rss / 1024:.0f} MiB"
    )
    return "\n".join(lines)
