"""Storage self-healing: scan and repair the harness's on-disk state.

``python -m repro fsck`` (and :func:`fsck` programmatically) walks the
two durable artifacts a sweep leaves behind and classifies every
defect it finds:

* **result cache** entries -- torn JSON, checksum mismatches (a
  byte-flip anywhere in the entry), key/filename mismatches, stale
  cache versions, schema drift the result decoder rejects, and orphaned
  ``*.tmp`` files from interrupted atomic writes;
* **job store** -- SQLite corruption (``PRAGMA integrity_check``) and
  leases whose workers are long gone.

The repair policy mirrors the cache's read-path contract: *corrupt
means miss, never crash*.  Every evicted entry is re-runnable by
construction (specs are pure data), so deleting a bad file is always
safe -- the next engine run simply re-executes that point.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

#: Issue kinds, in scan order (stable vocabulary for tests and reports).
ISSUE_KINDS = (
    "orphan-tmp",
    "torn-json",
    "checksum-mismatch",
    "key-mismatch",
    "stale-version",
    "schema-drift",
    "store-corrupt",
    "expired-lease",
)


@dataclass
class FsckIssue:
    """One defect found (and possibly repaired) by :func:`fsck`."""

    kind: str
    path: str
    detail: str = ""
    repaired: bool = False

    def describe(self) -> str:
        state = "repaired" if self.repaired else "found"
        detail = f": {self.detail}" if self.detail else ""
        return f"[{state}] {self.kind} {self.path}{detail}"


@dataclass
class FsckReport:
    """Outcome of one :func:`fsck` scan."""

    cache_dir: str
    scanned_entries: int = 0
    healthy_entries: int = 0
    issues: List[FsckIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every found issue was repaired (or none existed)."""
        return all(issue.repaired for issue in self.issues)

    def counters(self) -> Dict[str, int]:
        """Issue counts by kind (zero-filled), plus scan totals --
        shaped for :meth:`repro.obs.MetricsRegistry.add_counters`."""
        out = {f"fsck_{kind}": 0 for kind in ISSUE_KINDS}
        for issue in self.issues:
            out[f"fsck_{issue.kind}"] += 1
        out["fsck_scanned"] = self.scanned_entries
        out["fsck_healthy"] = self.healthy_entries
        out["fsck_repaired"] = sum(1 for i in self.issues if i.repaired)
        return out

    def describe(self) -> str:
        lines = [
            f"fsck {self.cache_dir}: {self.scanned_entries} entries "
            f"scanned, {self.healthy_entries} healthy, "
            f"{len(self.issues)} issue(s)"
        ]
        lines += [f"  {issue.describe()}" for issue in self.issues]
        return "\n".join(lines)


def fsck(cache_dir, repair: bool = True) -> FsckReport:
    """Scan (and with ``repair``, heal) a sweep's durable state.

    ``cache_dir`` is the result-cache root; the job store is found next
    to it automatically (``<cache_dir>/jobs.sqlite3``) when present.
    Returns a :class:`FsckReport`; nothing here ever raises on corrupt
    input -- that is the point.
    """
    root = Path(cache_dir)
    report = FsckReport(cache_dir=str(root))
    _scan_cache(root, report, repair)
    _scan_store(root, report, repair)
    return report


# ---------------------------------------------------------------------------
# Cache entries
# ---------------------------------------------------------------------------
def _scan_cache(root: Path, report: FsckReport, repair: bool) -> None:
    from repro.harness.jobs import CACHE_VERSION, entry_checksum
    from repro.harness.runner import RunResult

    if not root.is_dir():
        return
    for tmp in sorted(root.glob("*/*.tmp")):
        issue = FsckIssue("orphan-tmp", str(tmp), "interrupted atomic write")
        if repair:
            tmp.unlink(missing_ok=True)
            issue.repaired = True
        report.issues.append(issue)
    for path in sorted(root.glob("*/*.json")):
        report.scanned_entries += 1
        kind, detail = _classify_entry(
            path, CACHE_VERSION, entry_checksum, RunResult
        )
        if kind is None:
            report.healthy_entries += 1
            continue
        issue = FsckIssue(kind, str(path), detail)
        if repair:
            # Evict: a corrupt entry is a cache miss by contract, and
            # the point re-runs from its spec.  Never try to "fix" the
            # payload -- a guessed result would poison determinism.
            path.unlink(missing_ok=True)
            issue.repaired = True
        report.issues.append(issue)


def _classify_entry(path: Path, version, checksum_fn, result_cls):
    """Return ``(issue_kind, detail)`` for one entry file, or
    ``(None, "")`` when the entry is healthy."""
    try:
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise ValueError("entry is not a JSON object")
    except (OSError, ValueError) as exc:
        return "torn-json", str(exc)[:120]
    if "sha256" not in data or "v" not in data:
        return "schema-drift", "missing checksum/version fields"
    if data.get("v") != version:
        return "stale-version", f"entry v{data.get('v')} != v{version}"
    if checksum_fn(data) != data["sha256"]:
        return "checksum-mismatch", "payload does not match its sha256"
    if data.get("key") != path.stem:
        return "key-mismatch", f"entry key {str(data.get('key'))[:12]}..."
    try:
        result_cls.from_dict(data["result"])
    except Exception as exc:
        return "schema-drift", f"{type(exc).__name__}: {exc}"[:120]
    return None, ""


# ---------------------------------------------------------------------------
# Job store
# ---------------------------------------------------------------------------
def _scan_store(root: Path, report: FsckReport, repair: bool) -> None:
    from repro.resilience.store import JobStore, default_store_path, journal_path

    path = default_store_path(root)
    if not path.is_file():
        return
    try:
        db = sqlite3.connect(str(path), timeout=5.0)
        try:
            verdict = db.execute("PRAGMA integrity_check").fetchone()[0]
        finally:
            db.close()
        if verdict != "ok":
            raise sqlite3.DatabaseError(verdict)
    except sqlite3.DatabaseError as exc:
        issue = FsckIssue("store-corrupt", str(path), str(exc)[:120])
        if repair:
            # Same policy as cache entries: the ledger is rebuildable
            # (JobStore re-creates it; jobs re-enqueue on the next run).
            path.unlink(missing_ok=True)
            journal_path(path).unlink(missing_ok=True)
            issue.repaired = True
        report.issues.append(issue)
        return
    try:
        store = JobStore(path)
        try:
            expired = store.reclaim_expired() if repair else _count_expired(store)
        finally:
            store.close()
    except Exception as exc:
        report.issues.append(
            FsckIssue("store-corrupt", str(path), str(exc)[:120])
        )
        return
    if expired:
        report.issues.append(
            FsckIssue(
                "expired-lease",
                str(path),
                f"{expired} lease(s) past expiry",
                repaired=repair,
            )
        )


def _count_expired(store) -> int:
    now = store.clock()
    return sum(
        1
        for row in store.rows()
        if row.status == "leased"
        and row.lease_expires is not None
        and row.lease_expires <= now
    )


__all__ = ["ISSUE_KINDS", "FsckIssue", "FsckReport", "fsck"]
