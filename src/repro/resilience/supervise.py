"""Worker supervision: leases, heartbeats, seeded backoff, restarts.

Three layers, all built on the durable :class:`~repro.resilience.store.
JobStore`:

* :func:`backoff_delay` -- exponential backoff with *deterministic*
  seeded jitter: the delay for (key, attempt, seed) is a pure function,
  so retry schedules are reproducible run to run while still decorrelating
  workers that fail together.
* :class:`WorkerLoop` -- claim / execute / heartbeat / complete for one
  worker, whether that worker is a child process or the engine's own
  process (a one-worker engine run uses the same loop, so every run
  shares one supervision discipline).  Completing a point and claiming
  the next are one store commit.  While a point simulates, a
  daemon thread heartbeats the lease; a worker that is SIGKILLed stops
  heartbeating and its lease expires.
* :class:`WorkerPool` -- the parent-side supervisor: spawns worker
  processes, watches for deaths (releasing the dead worker's leases
  immediately instead of waiting out the lease), restarts workers
  within a bounded budget, and optionally applies harness-level chaos
  (seeded worker kills and cache-entry corruption) for
  :mod:`repro.resilience.chaos`.
"""

from __future__ import annotations

import errno
import hashlib
import multiprocessing
import os
import pickle
import random
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.resilience.store import Claim, JobStore, default_store_path

DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0
DEFAULT_POLL_S = 0.05
#: Heartbeats per lease duration (3 -> a lease is renewed at 1/3 life).
HEARTBEAT_DIVISOR = 3.0


def backoff_delay(
    key: str,
    attempt: int,
    base: float = DEFAULT_BACKOFF_BASE,
    cap: float = DEFAULT_BACKOFF_CAP,
    seed: int = 0,
) -> float:
    """Deterministic exponential backoff with seeded jitter.

    ``base * 2**(attempt-1)`` capped at ``cap``, scaled into
    ``[0.5, 1.0)`` of itself by a jitter derived from
    ``sha256(seed, key, attempt)`` -- a pure function, so tests and
    post-mortems can reproduce exact retry schedules.
    """
    if attempt <= 0 or base <= 0:
        return 0.0
    raw = min(cap, base * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(
        f"{seed}:{key}:{attempt}".encode()
    ).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2**64
    return raw * (0.5 + 0.5 * fraction)


@dataclass
class ChaosPlan:
    """Harness-level chaos knobs (see :mod:`repro.resilience.chaos`).

    All injection is seeded and parent-driven (kills, corruption) or
    deterministic per worker (disk-full), so a chaos run is
    reproducible given the same plan.
    """

    kill_interval_s: float = 0.0
    """SIGKILL one random live worker this often (0 disables)."""

    kill_first_leases: int = 0
    """SIGKILL the owners of the first N leases the supervisor observes
    (0 disables).  Unlike the wall-clock timer, this lands the kill
    *mid-point* by construction -- the victim provably holds a lease --
    so it exercises lease reclamation even when every point simulates
    in milliseconds."""

    corrupt_interval_s: float = 0.0
    """Flip one byte of a random result-cache entry this often
    (0 disables)."""

    diskfull_puts: int = 0
    """Each worker's first N cache writes fail with ``ENOSPC``."""

    seed: int = 0

    @property
    def active(self) -> bool:
        return bool(
            self.kill_interval_s or self.kill_first_leases
            or self.corrupt_interval_s or self.diskfull_puts
        )


def make_diskfull_hook(puts: int) -> Callable[[], None]:
    """A :attr:`ResultCache.put_hook` simulating a disk that is full for
    the first ``puts`` writes, then recovers."""
    remaining = [puts]

    def hook() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            raise OSError(errno.ENOSPC, "chaos: simulated disk full")

    return hook


class WorkerLoop:
    """Claim-execute-complete loop for one worker (any process).

    ``specs_by_key`` serves specs from memory (the engine's in-process
    loop, which also runs unpicklable-factory specs); without it, specs
    are unpickled from the claim's stored blob.  ``point_timeout_s`` arms a
    :class:`~repro.resilience.watchdog.Watchdog` per point.
    """

    def __init__(
        self,
        store: JobStore,
        cache,
        keys: Optional[Sequence[str]] = None,
        owner: Optional[str] = None,
        specs_by_key: Optional[Dict[str, object]] = None,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        seed: int = 0,
        point_timeout_s: Optional[float] = None,
        heartbeats: bool = True,
        on_complete: Optional[Callable[[str, object], None]] = None,
    ):
        self.store = store
        self.cache = cache
        self.keys = list(keys) if keys is not None else None
        self.owner = owner or f"worker-{os.getpid()}-{id(self):x}"
        self.specs_by_key = specs_by_key
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.seed = seed
        self.point_timeout_s = point_timeout_s
        self.heartbeats = heartbeats
        self.on_complete = on_complete
        self.executed = 0
        self._next: Optional[Claim] = None

    # ------------------------------------------------------------------
    def _spec_for(self, claim: Claim):
        if self.specs_by_key is not None and claim.key in self.specs_by_key:
            return self.specs_by_key[claim.key]
        if claim.spec_blob is None:
            raise RuntimeError(
                f"job {claim.key[:12]} has no stored spec and no in-memory "
                "spec was provided"
            )
        return pickle.loads(claim.spec_blob)

    def _execute(self, spec):
        from repro.harness.jobs import execute_spec

        watchdog = None
        if self.point_timeout_s is not None:
            from repro.resilience.watchdog import Watchdog

            watchdog = Watchdog(
                wall_clock_s=self.point_timeout_s,
                max_events=spec.max_events,
            )
        return execute_spec(spec, watchdog=watchdog)

    def run_one(self) -> Optional[Claim]:
        """Run one job and record its outcome; returns its claim (query
        its row for the outcome) or ``None`` if nothing was claimable.

        The commit that records the outcome also claims this loop's
        next job (:meth:`JobStore.finish`), which the next call runs, so
        an executed point costs one commit.  A loop that stops while
        holding such a claim hands it back with :meth:`release`.
        """
        claim = self._next
        self._next = None
        if claim is None:
            claim = self.store.claim(self.owner, keys=self.keys)
            if claim is None:
                return None
        stop = threading.Event()
        beater = None
        if self.heartbeats:
            beater = threading.Thread(
                target=self._beat, args=(claim.key, stop), daemon=True
            )
            beater.start()
        error = traceback_text = None
        backoff_s = 0.0
        try:
            spec = self._spec_for(claim)
            result = self._execute(spec)
            self.cache.put(claim.key, spec, result)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            traceback_text = traceback.format_exc()
            backoff_s = backoff_delay(
                claim.key,
                claim.attempt,
                base=self.backoff_base,
                cap=self.backoff_cap,
                seed=self.seed,
            )
        else:
            self.executed += 1
        finally:
            stop.set()
            if beater is not None:
                beater.join(timeout=1.0)
        self._next = self.store.finish(
            claim, error, traceback_text, backoff_s, keys=self.keys
        )
        if self.on_complete is not None:
            self.on_complete(claim.key, self.store.get(claim.key))
        return claim

    def release(self) -> None:
        """Hand back the job claimed for the next :meth:`run_one`, if
        any, so it does not wait out its lease."""
        if self._next is not None:
            self.store.release(self._next)
            self._next = None

    def _beat(self, key: str, stop: threading.Event) -> None:
        # SQLite connections belong to the thread that opened them, so
        # the beater opens its own -- only once a heartbeat is due.
        interval = max(0.01, self.store.lease_s / HEARTBEAT_DIVISOR)
        store = None
        try:
            while not stop.wait(interval):
                if store is None:
                    store = JobStore(
                        self.store.path,
                        lease_s=self.store.lease_s,
                        quarantine_after=self.store.quarantine_after,
                    )
                if not store.heartbeat(key, self.owner):
                    return  # lease lost; stop renewing
        except Exception:
            return  # a dying store must not crash the sim thread
        finally:
            if store is not None:
                store.close()

    def drain(self, poll_s: float = DEFAULT_POLL_S) -> int:
        """Run until every tracked job is terminal; returns how many
        points this loop executed.  When nothing is claimable but open
        jobs remain (leased to someone else), polls until their leases
        resolve or expire."""
        while True:
            if self.run_one() is None:
                if self.store.open_jobs(self.keys) == 0:
                    return self.executed
                time.sleep(poll_s)


def worker_main(
    store_path,
    cache_dir,
    keys: Optional[List[str]],
    owner: str,
    lease_s: float,
    quarantine_after: int,
    backoff_base: float,
    backoff_cap: float,
    seed: int,
    point_timeout_s: Optional[float],
    diskfull_puts: int = 0,
) -> None:
    """Entry point of one supervised worker process."""
    from repro.harness.jobs import ResultCache

    store = JobStore(
        store_path, lease_s=lease_s, quarantine_after=quarantine_after
    )
    cache = ResultCache(cache_dir)
    if diskfull_puts:
        cache.put_hook = make_diskfull_hook(diskfull_puts)
    try:
        WorkerLoop(
            store,
            cache,
            keys=keys,
            owner=owner,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            seed=seed,
            point_timeout_s=point_timeout_s,
        ).drain()
    finally:
        store.close()


class WorkerPool:
    """Parent-side supervisor for a fleet of worker processes.

    Spawns ``workers`` processes running :func:`worker_main`, then
    supervises until every job in ``keys`` is terminal: dead workers
    have their leases released immediately and are restarted within a
    bounded budget; expired leases of hung-but-alive workers are left
    to lease expiry (claims reclaim them lazily).  ``on_terminal(key,
    row)`` fires once per job as it reaches a terminal status, so the
    caller can report progress incrementally.
    """

    def __init__(
        self,
        store: JobStore,
        cache_dir,
        workers: int,
        lease_s: float,
        quarantine_after: int,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        seed: int = 0,
        point_timeout_s: Optional[float] = None,
        chaos: Optional[ChaosPlan] = None,
        on_terminal: Optional[Callable[[str, object], None]] = None,
        max_restarts: Optional[int] = None,
        poll_s: float = DEFAULT_POLL_S,
    ):
        self.store = store
        self.cache_dir = cache_dir
        self.workers = workers
        self.lease_s = lease_s
        self.quarantine_after = quarantine_after
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.seed = seed
        self.point_timeout_s = point_timeout_s
        self.chaos = chaos or ChaosPlan()
        self.on_terminal = on_terminal
        self.max_restarts = max_restarts
        self.poll_s = poll_s
        self.restarts = 0
        self.kills = 0
        self.corruptions = 0
        self._spawned = 0
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            self._ctx = multiprocessing.get_context()

    # ------------------------------------------------------------------
    def _spawn(self, keys: List[str]):
        self._spawned += 1
        owner = f"pool-{os.getpid()}-w{self._spawned}"
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                str(self.store.path),
                str(self.cache_dir),
                keys,
                owner,
                self.lease_s,
                self.quarantine_after,
                self.backoff_base,
                self.backoff_cap,
                self.seed,
                self.point_timeout_s,
                self.chaos.diskfull_puts,
            ),
            daemon=True,
        )
        proc.start()
        return owner, proc

    def run(self, keys: Sequence[str]) -> None:
        """Supervise until every key is terminal (or the restart budget
        is exhausted with no live workers -- the caller then finishes
        whatever remains in-process)."""
        keys = list(keys)
        budget = (
            self.max_restarts
            if self.max_restarts is not None
            else 4 + 2 * len(keys)
        )
        fleet = [self._spawn(keys) for _ in range(self.workers)]
        rng = random.Random(self.chaos.seed ^ 0xC4A05)
        now = time.monotonic()
        next_kill = (
            now + self.chaos.kill_interval_s
            if self.chaos.kill_interval_s
            else None
        )
        next_corrupt = (
            now + self.chaos.corrupt_interval_s
            if self.chaos.corrupt_interval_s
            else None
        )
        reported: set = set()
        lease_kills_left = self.chaos.kill_first_leases
        try:
            while True:
                open_jobs = 0
                leased_owners = []
                for row in self.store.rows(keys):
                    if row.terminal:
                        if row.key not in reported:
                            reported.add(row.key)
                            if self.on_terminal is not None:
                                self.on_terminal(row.key, row)
                    else:
                        open_jobs += 1
                        if row.status == "leased" and row.lease_owner:
                            leased_owners.append(row.lease_owner)
                if open_jobs == 0:
                    return
                # Lease-triggered kills: shoot a worker that provably
                # holds a lease, i.e. is mid-point right now.
                if lease_kills_left > 0 and leased_owners:
                    by_owner = dict(fleet)
                    for owner in leased_owners:
                        proc = by_owner.get(owner)
                        if (
                            lease_kills_left > 0
                            and proc is not None
                            and proc.is_alive()
                            and proc.pid
                        ):
                            os.kill(proc.pid, signal.SIGKILL)
                            self.kills += 1
                            lease_kills_left -= 1
                # Bury dead workers, release their leases, restart.
                alive = []
                for owner, proc in fleet:
                    if proc.is_alive():
                        alive.append((owner, proc))
                        continue
                    proc.join(timeout=0)
                    self.store.release_owner(owner)
                    if self.restarts < budget:
                        self.restarts += 1
                        alive.append(self._spawn(keys))
                fleet = alive
                if not fleet:
                    if self.restarts >= budget:
                        return  # the caller finishes the rest in-process
                    fleet = [self._spawn(keys)]
                now = time.monotonic()
                if next_kill is not None and now >= next_kill:
                    next_kill = now + self.chaos.kill_interval_s
                    victims = [p for _, p in fleet if p.is_alive()]
                    if victims:
                        victim = rng.choice(victims)
                        if victim.pid:
                            os.kill(victim.pid, signal.SIGKILL)
                            self.kills += 1
                if next_corrupt is not None and now >= next_corrupt:
                    next_corrupt = now + self.chaos.corrupt_interval_s
                    self.corruptions += corrupt_random_entry(
                        self.cache_dir, rng
                    )
                time.sleep(self.poll_s)
        finally:
            deadline = time.monotonic() + max(2.0, 4 * self.poll_s)
            for _, proc in fleet:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            for _, proc in fleet:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)


def corrupt_random_entry(cache_dir, rng: random.Random) -> int:
    """Flip one byte of one random cache entry file; returns 1 if a
    file was mutated (0 when the cache is still empty)."""
    from pathlib import Path

    entries = sorted(Path(cache_dir).glob("*/*.json"))
    if not entries:
        return 0
    path = rng.choice(entries)
    data = bytearray(path.read_bytes())
    if not data:
        return 0
    index = rng.randrange(len(data))
    data[index] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(data))
    return 1


__all__ = [
    "ChaosPlan",
    "WorkerLoop",
    "WorkerPool",
    "backoff_delay",
    "corrupt_random_entry",
    "default_store_path",
    "make_diskfull_hook",
    "worker_main",
]
