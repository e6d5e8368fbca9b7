"""Regression gate: compare two benchmark documents.

Two independent checks, in severity order:

1. **Determinism** (hard failure, no threshold): points present in both
   documents must report identical simulated ``cycles`` and ``events``.
   An optimization that changes either has changed the machine model,
   invalidating every number the repro reports.
2. **Throughput**: a point regresses when its events/sec falls more
   than ``threshold`` below the baseline, after normalizing the
   baseline by the ratio of the two hosts' calibration scores (so a
   baseline taken on a fast workstation doesn't fail CI on a slow
   runner, and vice versa).

Points that appear in only one document are reported but never fail
the gate (benchmark suites are allowed to grow).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

DEFAULT_THRESHOLD = 0.15


@dataclass
class CompareResult:
    """Outcome of comparing a new benchmark document to a baseline."""

    threshold: float
    host_ratio: float
    """new_calibration / old_calibration; >1 means the new host is
    faster, and the baseline expectation is scaled up accordingly."""

    regressions: List[str] = field(default_factory=list)
    determinism_breaks: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    unmatched: List[str] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.determinism_breaks

    def describe(self) -> str:
        out = list(self.lines)
        if self.determinism_breaks:
            out.append(
                f"DETERMINISM BROKEN on {len(self.determinism_breaks)} "
                f"point(s) -- simulated results changed"
            )
        if self.regressions:
            out.append(
                f"FAIL: {len(self.regressions)} point(s) regressed more "
                f"than {self.threshold:.0%}"
            )
        if self.ok:
            out.append(
                f"ok: no events/sec regression beyond {self.threshold:.0%} "
                f"(host ratio {self.host_ratio:.2f})"
            )
        return "\n".join(out)


def compare(
    new: Dict, old: Dict, threshold: float = DEFAULT_THRESHOLD
) -> CompareResult:
    """Gate ``new`` against baseline ``old``; see module docstring."""
    old_cal = old.get("calibration_kops") or 0.0
    new_cal = new.get("calibration_kops") or 0.0
    host_ratio = (new_cal / old_cal) if old_cal and new_cal else 1.0
    result = CompareResult(threshold=threshold, host_ratio=host_ratio)

    old_by_key = {p["key"]: p for p in old.get("points", ())}
    new_by_key = {p["key"]: p for p in new.get("points", ())}
    for key in sorted(set(old_by_key) | set(new_by_key)):
        if key not in old_by_key or key not in new_by_key:
            result.unmatched.append(key)
            result.lines.append(f"  {key:<44} (only in one document)")
            continue
        o, n = old_by_key[key], new_by_key[key]
        if (o["cycles"], o["events"]) != (n["cycles"], n["events"]):
            result.determinism_breaks.append(key)
            result.lines.append(
                f"  {key:<44} DETERMINISM: cycles {o['cycles']}->"
                f"{n['cycles']}, events {o['events']}->{n['events']}"
            )
            continue
        expected = o["events_per_sec"] * host_ratio
        ratio = n["events_per_sec"] / expected if expected else 1.0
        verdict = "ok"
        if ratio < 1.0 - threshold:
            verdict = "REGRESSION"
            result.regressions.append(key)
        elif ratio > 1.0 + threshold:
            verdict = "improved"
            result.improvements.append(key)
        result.lines.append(
            f"  {key:<44} {ratio:>6.2f}x vs host-adjusted baseline "
            f"({verdict})"
        )
    return result
