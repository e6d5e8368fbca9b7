"""Durable SQLite-backed job store: experiments as rows, claimed by lease.

The parallel engine (:mod:`repro.harness.jobs`) used to hand grid points
straight to a process pool and hope every worker came back.  This module
is the crash-safe replacement for that hope: each :class:`JobSpec
<repro.harness.jobs.JobSpec>` becomes one row in a small SQLite database
living next to the result cache, and workers *claim* rows through
expiring leases:

* **claim** -- an atomic ``BEGIN IMMEDIATE`` transaction moves one
  eligible row to ``leased`` with this worker's owner id and a lease
  deadline.  Any number of workers -- in one process pool, or on
  different hosts sharing a cache directory -- can pull safely.
  :meth:`JobStore.finish` records a point's outcome and claims the
  worker's next point in one transaction, so an executed point costs
  one commit.
* **heartbeat** -- a live worker extends its lease while it simulates;
  a worker that is SIGKILLed simply stops heartbeating and its lease
  expires, making the row claimable again (counted as a reclaim).
* **failure** -- a failed attempt returns the row to ``pending`` with a
  ``not_before`` backoff deadline; after ``quarantine_after`` attempts
  the row is quarantined with a captured traceback artifact so one
  poison point cannot starve the sweep.

Statuses: ``pending`` -> ``leased`` -> ``done`` | ``quarantined``; a
terminal row goes back to ``pending`` when it is enqueued again, which
callers do only for a point whose cache entry they cannot read (see
:meth:`JobStore.enqueue_many`).  All transitions bump the store's
lifetime counters (:meth:`JobStore.counters`), which the harness
exports through :class:`repro.obs.MetricsRegistry`.

Reads cost what they ask for, not what the store holds: a store that
backs a long-running service only grows, so :meth:`JobStore.rows` with
keys is a primary-key lookup and :meth:`JobStore.open_keys` /
:meth:`JobStore.open_jobs` search the ``jobs_status`` index.  A
re-enqueue that changes nothing writes nothing.

A store opened without a path is an in-memory ledger (SQLite
``:memory:``): the same SQL and transitions for a run whose points
only this process executes, with nothing written to disk.
"""

from __future__ import annotations

import os
import socket
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Bump on incompatible jobs-table changes; a drifted store is rebuilt
#: (jobs are re-runnable by construction -- results live in the cache).
STORE_SCHEMA_VERSION = 1

#: Terminal row statuses (nothing left to execute for this row).
TERMINAL = ("done", "quarantined")

#: Keys per ``WHERE key IN (...)`` query: SQLite's smallest default
#: limit on bound variables (999 before 3.32).
_KEY_CHUNK = 999

_ROW_COLUMNS = (
    "key, describe, status, attempts, lease_owner, lease_expires,"
    " not_before, host, pid, error, created, updated"
)
#: The rows that are not TERMINAL, as a condition the ``jobs_status``
#: index can serve (``NOT IN`` could not use it).
_OPEN_WHERE = "status IN ('pending', 'leased')"

#: Run on every connect.  The connection keeps its rollback journal
#: between commits (zeroing its header instead of deleting the file):
#: as durable as the default mode, and it works on network filesystems,
#: but a commit costs about half as much.  An executed point costs one
#: commit: :meth:`JobStore.finish` records its outcome and claims the
#: next point together.  Creating the schema is one transaction (one
#: commit), so a fresh store opens in about the time of a single job
#: transition.
_SCHEMA = f"""
PRAGMA journal_mode=PERSIST;
BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    key           TEXT PRIMARY KEY,
    describe      TEXT NOT NULL DEFAULT '',
    spec_blob     BLOB,
    status        TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    lease_owner   TEXT,
    lease_expires REAL,
    not_before    REAL NOT NULL DEFAULT 0,
    host          TEXT,
    pid           INTEGER,
    error         TEXT,
    created       REAL NOT NULL,
    updated       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL DEFAULT 0
);
INSERT OR IGNORE INTO meta VALUES ('schema', '{STORE_SCHEMA_VERSION}');
COMMIT;
"""

#: Counter names the store maintains (all start at zero).
COUNTER_NAMES = (
    "enqueued",
    "leases_granted",
    "leases_expired",
    "leases_released",
    "heartbeats",
    "retries",
    "done",
    "quarantined",
    "requeued",
    "stale_completions",
)


@dataclass
class JobRow:
    """One job row, as plain data (see the ``jobs`` table schema)."""

    key: str
    describe: str
    status: str
    attempts: int
    lease_owner: Optional[str]
    lease_expires: Optional[float]
    not_before: float
    host: Optional[str]
    pid: Optional[int]
    error: Optional[str]
    created: float
    updated: float

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL


@dataclass
class Claim:
    """A successfully leased job: execute it and :meth:`JobStore.finish`
    it, or :meth:`JobStore.release` it unrun."""

    key: str
    describe: str
    spec_blob: Optional[bytes]
    attempt: int
    owner: str
    reclaimed: bool = False
    """True when this claim took over an expired lease (a previous
    worker died or hung mid-point)."""


class JobStore:
    """Durable job ledger over one SQLite file, or an in-memory one.

    ``path`` is the SQLite file; ``None`` keeps the ledger in this
    connection's memory, seen by no other process or thread, so it
    suits only a run whose one worker is the caller (no heartbeats are
    needed, and a quarantined job's traceback is not written anywhere:
    :meth:`quarantine_path` is ``None``).  ``lease_s`` is the lease
    duration granted per claim (heartbeats extend it);
    ``quarantine_after`` is the attempt count at which a failing job is
    quarantined instead of re-pended.  ``clock`` is injectable for
    tests (defaults to wall time -- leases are real-time contracts
    between processes, not simulated time).
    """

    def __init__(
        self,
        path=None,
        lease_s: float = 30.0,
        quarantine_after: int = 3,
        clock: Callable[[], float] = time.time,
    ):
        self.path = Path(path) if path is not None else None
        self.lease_s = float(lease_s)
        self.quarantine_after = int(quarantine_after)
        self.clock = clock
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._db = self._connect()

    def _connect(self) -> sqlite3.Connection:
        if self.path is None:
            db = sqlite3.connect(":memory:")
            db.isolation_level = None
            db.executescript(_SCHEMA)
            return db
        db = sqlite3.connect(str(self.path), timeout=30.0)
        db.isolation_level = None  # explicit BEGIN/COMMIT
        db.execute("PRAGMA busy_timeout=30000")
        try:
            db.executescript(_SCHEMA)
            (version,) = db.execute(
                "SELECT value FROM meta WHERE key='schema'"
            ).fetchone()
            if version != str(STORE_SCHEMA_VERSION):
                raise sqlite3.DatabaseError(
                    f"job store schema {version} != {STORE_SCHEMA_VERSION}"
                )
        except sqlite3.DatabaseError:
            # Torn or drifted store: rebuild.  Jobs are re-runnable by
            # construction (results live in the cache), so a corrupt
            # ledger is evicted, never fatal.
            db.close()
            self.path.unlink(missing_ok=True)
            journal_path(self.path).unlink(missing_ok=True)
            db = sqlite3.connect(str(self.path), timeout=30.0)
            db.isolation_level = None
            db.execute("PRAGMA busy_timeout=30000")
            db.executescript(_SCHEMA)
        return db

    def close(self) -> None:
        self._db.close()

    @contextmanager
    def _transaction(self):
        """One ``BEGIN IMMEDIATE`` transaction: every write inside it,
        counter bumps included, commits (and hits the disk) once."""
        db = self._db
        db.execute("BEGIN IMMEDIATE")
        try:
            yield db
        except BaseException:
            db.execute("ROLLBACK")
            raise
        db.execute("COMMIT")

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def enqueue(
        self,
        key: str,
        describe: str = "",
        spec_blob: Optional[bytes] = None,
    ) -> str:
        """:meth:`enqueue_many` for one job; returns its status after."""
        return self.enqueue_many([(key, describe, spec_blob)])[0]

    def enqueue_many(
        self, jobs: Iterable[Tuple[str, str, Optional[bytes]]]
    ) -> List[str]:
        """Make each ``(key, describe, spec_blob)`` job runnable, in one
        transaction (one commit for a whole grid); returns the rows'
        statuses after, in order.  Claims take rows in enqueue order.

        Callers enqueue exactly the keys whose cache entry they could
        not read: the cache, not the row, says a point is done.  So a
        new key is inserted ``pending``, and a terminal row (``done``
        whose entry was evicted or torn, or ``quarantined``) goes back
        to ``pending`` with a fresh attempt budget and no lease, error
        or backoff; its lifetime history stays in the counters
        (``requeued``).  A ``pending`` or ``leased`` row is already on
        its way and is left as it is, bar a changed ``spec_blob``.
        """
        now = self.clock()
        statuses = []
        with self._transaction() as db:
            for key, describe, spec_blob in jobs:
                row = db.execute(
                    "SELECT status FROM jobs WHERE key=?", (key,)
                ).fetchone()
                if row is None:
                    db.execute(
                        "INSERT INTO jobs (key, describe, spec_blob, status,"
                        " created, updated) VALUES (?,?,?, 'pending', ?, ?)",
                        (key, describe, spec_blob, now, now),
                    )
                    self._bump("enqueued")
                    status = "pending"
                elif row[0] in TERMINAL:
                    db.execute(
                        "UPDATE jobs SET status='pending', attempts=0,"
                        " error=NULL, not_before=0, lease_owner=NULL,"
                        " lease_expires=NULL,"
                        " spec_blob=COALESCE(?, spec_blob),"
                        " updated=? WHERE key=?",
                        (spec_blob, now, key),
                    )
                    self._bump("requeued")
                    status = "pending"
                else:
                    status = row[0]
                    if spec_blob is not None:
                        # A dedup hit re-sends the same blob: leave the
                        # row alone so the commit has nothing to write.
                        db.execute(
                            "UPDATE jobs SET spec_blob=?, updated=?"
                            " WHERE key=? AND spec_blob IS NOT ?",
                            (spec_blob, now, key, spec_blob),
                        )
                statuses.append(status)
        return statuses

    # ------------------------------------------------------------------
    # Claiming
    # ------------------------------------------------------------------
    def claim(
        self,
        owner: str,
        keys: Optional[Iterable[str]] = None,
    ) -> Optional[Claim]:
        """Lease one eligible job: ``pending`` past its backoff deadline,
        or ``leased`` with an expired lease (the previous worker died).
        With ``keys``, only those jobs are eligible; they are filtered
        in SQL by primary key, so the cost follows ``len(keys)`` and not
        the size of the store.  Returns ``None`` when nothing is
        claimable right now."""
        with self._transaction() as db:
            return self._claim(db, owner, keys, self.clock())

    def _claim(self, db, owner, keys, now) -> Optional[Claim]:
        sql = (
            "SELECT created, rowid, key, describe, spec_blob, attempts,"
            " status FROM jobs WHERE ((status='pending' AND not_before<=?)"
            " OR (status='leased' AND lease_expires<=?))"
        )
        if keys is None:
            found = db.execute(
                sql + " ORDER BY created, rowid LIMIT 1", (now, now)
            ).fetchall()
        else:
            # One candidate per chunk; the earliest enqueued wins.
            found = []
            for chunk, marks in _key_chunks(keys):
                found.extend(
                    db.execute(
                        f"{sql} AND key IN ({marks})"
                        " ORDER BY created, rowid LIMIT 1",
                        (now, now, *chunk),
                    )
                )
        if not found:
            return None
        _, _, key, describe, blob, attempts, status = min(
            found, key=lambda row: (row[0], row[1])
        )
        reclaimed = status == "leased"
        db.execute(
            "UPDATE jobs SET status='leased', lease_owner=?,"
            " lease_expires=?, attempts=?, host=?, pid=?, updated=?"
            " WHERE key=?",
            (
                owner,
                now + self.lease_s,
                attempts + 1,
                socket.gethostname(),
                os.getpid(),
                now,
                key,
            ),
        )
        self._bump("leases_granted")
        if reclaimed:
            self._bump("leases_expired")
        return Claim(
            key=key,
            describe=describe,
            spec_blob=blob,
            attempt=attempts + 1,
            owner=owner,
            reclaimed=reclaimed,
        )

    def release(self, claim: Claim) -> bool:
        """Hand back a claim that never started: the row returns to
        ``pending`` with its attempt given back.  A worker that claimed
        its next point in the same commit as its last one (see
        :meth:`finish`) and then stops calls this; returns False if the
        lease was already lost."""
        now = self.clock()
        with self._transaction() as db:
            cur = db.execute(
                "UPDATE jobs SET status='pending', attempts=?,"
                " lease_owner=NULL, lease_expires=NULL, updated=?"
                " WHERE key=? AND status='leased' AND lease_owner=?",
                (claim.attempt - 1, now, claim.key, claim.owner),
            )
            if cur.rowcount:
                self._bump("leases_released")
        return bool(cur.rowcount)

    def heartbeat(self, key: str, owner: str) -> bool:
        """Extend the lease on a job this owner holds; returns False if
        the lease was lost (expired and reclaimed by someone else)."""
        now = self.clock()
        with self._transaction() as db:
            cur = db.execute(
                "UPDATE jobs SET lease_expires=?, updated=? WHERE key=?"
                " AND status='leased' AND lease_owner=?",
                (now + self.lease_s, now, key, owner),
            )
            if cur.rowcount:
                self._bump("heartbeats")
        return bool(cur.rowcount)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def mark_done(self, key: str, owner: Optional[str] = None) -> bool:
        """Record success.  With ``owner``, the transition is rejected
        (returns False) if this owner no longer holds the lease -- a
        hung worker whose job was reclaimed and finished elsewhere must
        not overwrite the fresher outcome."""
        with self._transaction() as db:
            return self._done(db, key, owner, self.clock())

    def _done(self, db, key, owner, now) -> bool:
        sql = (
            "UPDATE jobs SET status='done', error=NULL, lease_owner=NULL,"
            " lease_expires=NULL, updated=? WHERE key=?"
        )
        if owner is None:
            cur = db.execute(sql, (now, key))
        else:
            cur = db.execute(
                sql + " AND status='leased' AND lease_owner=?",
                (now, key, owner),
            )
        if cur.rowcount:
            self._bump("done")
        elif owner is not None:
            self._bump("stale_completions")
        return bool(cur.rowcount)

    def _failed(self, db, key, owner, error, backoff_s, now) -> str:
        """Record one failed attempt by lease holder ``owner``; returns
        the row's new status: ``pending`` (retried after ``backoff_s``),
        ``quarantined`` (attempts reached ``quarantine_after``) or
        ``stale`` (``owner`` no longer holds the lease)."""
        row = db.execute(
            "SELECT attempts FROM jobs WHERE key=? AND status='leased'"
            " AND lease_owner=?",
            (key, owner),
        ).fetchone()
        if row is None:
            self._bump("stale_completions")
            return "stale"
        if row[0] >= self.quarantine_after:
            db.execute(
                "UPDATE jobs SET status='quarantined', error=?,"
                " lease_owner=NULL, lease_expires=NULL, updated=?"
                " WHERE key=?",
                (error, now, key),
            )
            self._bump("quarantined")
            return "quarantined"
        db.execute(
            "UPDATE jobs SET status='pending', error=?,"
            " lease_owner=NULL, lease_expires=NULL, not_before=?,"
            " updated=? WHERE key=?",
            (error, now + max(0.0, backoff_s), now, key),
        )
        self._bump("retries")
        return "pending"

    def finish(
        self,
        claim: Claim,
        error: Optional[str] = None,
        traceback_text: Optional[str] = None,
        backoff_s: float = 0.0,
        keys: Optional[Iterable[str]] = None,
    ) -> Tuple[str, Optional[Claim]]:
        """Record a claim's outcome and lease the claimant's next job,
        in one transaction: an executed point costs one commit.

        Without ``error`` the outcome is :meth:`mark_done`'s.  With it,
        the attempt failed: the row returns to ``pending`` with a
        ``not_before`` deadline ``backoff_s`` away, or is quarantined
        once its attempts reach ``quarantine_after``, with
        ``traceback_text`` written to :meth:`quarantine_path` (next to
        the store, under ``quarantine/<key>.txt``; nowhere for an
        in-memory ledger).  Either way an owner that no longer
        holds the lease changes nothing (counted as a stale
        completion).  Then :meth:`claim` for ``claim.owner`` over
        ``keys``.  Returns the row's new status (``done``, ``pending``,
        ``quarantined``, or ``stale`` for a lost lease) and that claim,
        or ``None`` when nothing is claimable.
        """
        now = self.clock()
        with self._transaction() as db:
            if error is None:
                done = self._done(db, claim.key, claim.owner, now)
                status = "done" if done else "stale"
            else:
                status = self._failed(
                    db, claim.key, claim.owner, error, backoff_s, now
                )
            following = self._claim(db, claim.owner, keys, now)
        if status == "quarantined" and traceback_text is not None:
            self._write_quarantine_artifact(claim.key, error, traceback_text)
        return status, following

    def _write_quarantine_artifact(
        self, key: str, error: str, traceback_text: str
    ) -> None:
        path = self.quarantine_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            f"key: {key}\nerror: {error}\n\n{traceback_text}"
        )
        os.replace(tmp, path)

    def quarantine_path(self, key: str) -> Optional[Path]:
        """Where the captured traceback of a quarantined job lives:
        beside the store file, or ``None`` for an in-memory ledger (its
        jobs' errors still name the exception)."""
        if self.path is None:
            return None
        return self.path.parent / "quarantine" / f"{key}.txt"

    # ------------------------------------------------------------------
    # Supervision helpers
    # ------------------------------------------------------------------
    def release_owner(self, owner: str) -> int:
        """Expire every lease held by ``owner`` *now* (the supervisor
        observed its worker die; no need to wait out the lease)."""
        now = self.clock()
        with self._transaction() as db:
            cur = db.execute(
                "UPDATE jobs SET status='pending', lease_owner=NULL,"
                " lease_expires=NULL, updated=? WHERE status='leased'"
                " AND lease_owner=?",
                (now, owner),
            )
            if cur.rowcount:
                self._bump("leases_released", n=cur.rowcount)
        return cur.rowcount

    def reclaim_expired(self) -> int:
        """Return expired leases to ``pending`` (normally claims do this
        lazily; fsck and supervisors may sweep eagerly)."""
        now = self.clock()
        with self._transaction() as db:
            cur = db.execute(
                "UPDATE jobs SET status='pending', lease_owner=NULL,"
                " lease_expires=NULL, updated=? WHERE status='leased'"
                " AND lease_expires<=?",
                (now, now),
            )
            if cur.rowcount:
                self._bump("leases_expired", n=cur.rowcount)
        return cur.rowcount

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[JobRow]:
        row = self._db.execute(
            f"SELECT {_ROW_COLUMNS} FROM jobs WHERE key=?", (key,)
        ).fetchone()
        return JobRow(*row) if row else None

    def rows(self, keys: Optional[Sequence[str]] = None) -> List[JobRow]:
        """Rows in enqueue order (``created``, then ``rowid``); with
        ``keys``, only the rows of those keys (unknown keys and
        duplicates are ignored), read by primary key, so the cost
        follows ``len(keys)`` and not the size of the store."""
        if keys is None:
            return [
                JobRow(*row)
                for row in self._db.execute(
                    f"SELECT {_ROW_COLUMNS} FROM jobs ORDER BY created, rowid"
                )
            ]
        found = []
        for chunk, marks in _key_chunks(keys):
            found.extend(
                self._db.execute(
                    f"SELECT created, rowid, {_ROW_COLUMNS} FROM jobs"
                    f" WHERE key IN ({marks})",
                    chunk,
                )
            )
        found.sort(key=lambda row: (row[0], row[1]))
        return [JobRow(*row[2:]) for row in found]

    def open_keys(self, limit: Optional[int] = None) -> List[str]:
        """Keys of open (pending or leased) jobs in enqueue order, at
        most ``limit`` of them, found through the ``jobs_status`` index."""
        return [
            key
            for (key,) in self._db.execute(
                f"SELECT key FROM jobs WHERE {_OPEN_WHERE}"
                " ORDER BY created, rowid LIMIT ?",
                (-1 if limit is None else limit,),
            )
        ]

    def open_jobs(self, keys: Optional[Sequence[str]] = None) -> int:
        """Jobs not yet terminal (pending or leased) among ``keys``, or
        in the whole store; counted in SQL, through the
        ``jobs_status`` index or by primary key."""
        sql = f"SELECT COUNT(*) FROM jobs WHERE {_OPEN_WHERE}"
        if keys is None:
            return self._db.execute(sql).fetchone()[0]
        return sum(
            self._db.execute(f"{sql} AND key IN ({marks})", chunk).fetchone()[0]
            for chunk, marks in _key_chunks(keys)
        )

    def claimable_from(
        self, keys: Optional[Sequence[str]] = None
    ) -> Dict[str, float]:
        """When the open jobs among ``keys`` (or in the whole store)
        become claimable, per status: ``pending`` maps to the earliest
        backoff deadline, ``leased`` to the earliest lease expiry.  A
        status with no open job is absent, so an empty dict means every
        job is terminal."""
        sql = (
            "SELECT status, MIN(CASE status WHEN 'pending' THEN not_before"
            f" ELSE lease_expires END) FROM jobs WHERE {_OPEN_WHERE}"
        )
        out: Dict[str, float] = {}
        parts = (
            [(sql, ())] if keys is None
            else [(f"{sql} AND key IN ({marks})", chunk)
                  for chunk, marks in _key_chunks(keys)]
        )
        for query, args in parts:
            for status, at in self._db.execute(query + " GROUP BY status",
                                               args):
                out[status] = min(at, out.get(status, at))
        return out

    def counters(self) -> Dict[str, int]:
        """Lifetime transition counters plus current per-status totals."""
        out = {name: 0 for name in COUNTER_NAMES}
        for name, value in self._db.execute("SELECT name, value FROM counters"):
            out[name] = value
        for status, count in self._db.execute(
            "SELECT status, COUNT(*) FROM jobs GROUP BY status"
        ):
            out[f"jobs_{status}"] = count
        return out

    # ------------------------------------------------------------------
    def _bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a lifetime counter (inside the caller's
        transaction)."""
        self._db.execute(
            "INSERT INTO counters (name, value) VALUES (?, ?)"
            " ON CONFLICT(name) DO UPDATE SET value=value+?",
            (name, n, n),
        )


def _key_chunks(keys: Iterable[str]) -> Iterator[Tuple[List[str], str]]:
    """Distinct ``keys`` in chunks of at most ``_KEY_CHUNK``, each with
    its ``?,?,...`` placeholder list for ``key IN (...)``."""
    wanted = list(dict.fromkeys(keys))
    for at in range(0, len(wanted), _KEY_CHUNK):
        chunk = wanted[at:at + _KEY_CHUNK]
        yield chunk, ",".join("?" * len(chunk))


def default_store_path(cache_dir) -> Path:
    """Where the job store lives for a given result-cache directory."""
    return Path(cache_dir) / "jobs.sqlite3"


def journal_path(store_path) -> Path:
    """The rollback journal SQLite keeps next to a store file."""
    return Path(f"{store_path}-journal")
