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
  the next are one store commit.  While a point simulates, the loop's
  one daemon heartbeat thread renews its lease every third of the
  lease; a worker that is SIGKILLed stops heartbeating and its lease
  expires.
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
import shutil
import signal
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.resilience.store import (
    TERMINAL,
    Claim,
    JobStore,
    default_store_path,
)

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

    The planned injections are triggered by events, not timers, so they
    fire however fast the points simulate: a worker kills itself on a
    claimed point (lease kills), the supervisor corrupts entries as it
    sees them land, and each worker's first cache writes fail
    (disk-full).  Only the optional ``kill_interval_s`` kills run on a
    wall-clock timer, seeded.
    """

    kill_interval_s: float = 0.0
    """SIGKILL one random live worker this often (0 disables)."""

    kill_first_leases: int = 0
    """The workers running the first N claimed points SIGKILL
    themselves mid-point: after simulating, before the result is stored,
    while they hold the point's lease (0 disables).  Each kill takes one
    of N tokens the supervisor lays out, so exactly N kills happen as
    long as the grid lasts that many claims, and every kill exercises
    lease reclamation."""

    corrupt_first_entries: int = 0
    """Flip one bit in each of the first N result-cache entries to
    land, as the supervisor sees their points finish (0 disables).  The
    engine finds each one unreadable and re-runs the point."""

    diskfull_puts: int = 0
    """Each worker's first N cache writes fail with ``ENOSPC``."""

    seed: int = 0

    @property
    def active(self) -> bool:
        return bool(
            self.kill_interval_s or self.kill_first_leases
            or self.corrupt_first_entries or self.diskfull_puts
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


def make_kill_hook(tokens_dir: str) -> Callable[[], None]:
    """A :attr:`ResultCache.put_hook` that SIGKILLs its own worker while
    a kill token is left in ``tokens_dir``.  The put comes after the
    claim and before the point is finished, so the dying worker holds
    the lease.  Unlinking a token file is the atomic take: one worker
    gets each."""

    def hook() -> None:
        for name in sorted(os.listdir(tokens_dir)):
            try:
                os.unlink(os.path.join(tokens_dir, name))
            except FileNotFoundError:  # another worker took it
                continue
            os.kill(os.getpid(), signal.SIGKILL)

    return hook


class WorkerLoop:
    """Claim-execute-complete loop for one worker (any process).

    ``specs_by_key`` serves specs from memory (the engine's in-process
    loop, which also runs unpicklable-factory specs); without it, specs
    are unpickled from the claim's stored blob.  ``point_timeout_s`` arms a
    :class:`~repro.resilience.watchdog.Watchdog` per point.
    ``on_complete(key, status)`` fires after each point with the row's
    new status (see :meth:`JobStore.finish`).
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
        #: The point whose lease the heartbeat thread renews (``None``
        #: between points); ``_beat_gen`` counts changes of it.
        self._beat_key: Optional[str] = None
        self._beat_gen = 0
        self._beat_closed = False
        self._beat_cond = threading.Condition()
        self._beater: Optional[threading.Thread] = None

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
        if self.heartbeats:
            self._beat(claim.key)
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
            if self.heartbeats:
                self._beat(None)
        status, self._next = self.store.finish(
            claim, error, traceback_text, backoff_s, keys=self.keys
        )
        if self.on_complete is not None:
            self.on_complete(claim.key, status)
        return claim

    def release(self) -> None:
        """Hand back the job claimed for the next :meth:`run_one`, if
        any, so it does not wait out its lease, and stop the heartbeat
        thread."""
        if self._next is not None:
            self.store.release(self._next)
            self._next = None
        if self._beater is not None:
            with self._beat_cond:
                self._beat_closed = True
                self._beat_cond.notify()
            self._beater.join()
            self._beater = None
            self._beat_closed = False

    def _beat(self, key: Optional[str]) -> None:
        """Renew ``key``'s lease from now on (``None``: no point is in
        flight), starting the heartbeat thread with the first point."""
        with self._beat_cond:
            self._beat_key = key
            self._beat_gen += 1
            self._beat_cond.notify()
        if self._beater is None and key is not None:
            self._beater = threading.Thread(
                target=self._beat_main, name="repro-heartbeat", daemon=True
            )
            self._beater.start()

    def _beat_main(self) -> None:
        """The heartbeat thread: renew the lease of the point in flight
        every ``lease_s / HEARTBEAT_DIVISOR`` it keeps running."""
        interval = max(0.01, self.store.lease_s / HEARTBEAT_DIVISOR)
        cond = self._beat_cond
        # SQLite connections belong to the thread that opened them, so
        # the beater opens its own -- only once a heartbeat is due.
        store = None
        try:
            while True:
                with cond:
                    if self._beat_closed:
                        return
                    gen, key = self._beat_gen, self._beat_key
                    if cond.wait_for(
                        lambda: self._beat_gen != gen or self._beat_closed,
                        interval if key is not None else None,
                    ):
                        continue
                try:
                    if store is None:
                        store = JobStore(
                            self.store.path,
                            lease_s=self.store.lease_s,
                            quarantine_after=self.store.quarantine_after,
                        )
                    renewed = store.heartbeat(key, self.owner)
                except Exception:  # a dying store must not crash the sim
                    renewed, store = False, None  # reopened when next due
                if not renewed:  # lease lost: wait for the next point
                    with cond:
                        cond.wait_for(
                            lambda: self._beat_gen != gen or self._beat_closed
                        )
        finally:
            if store is not None:
                store.close()

    def drain(self, poll_s: float = DEFAULT_POLL_S) -> int:
        """Run until every tracked job is terminal; returns how many
        points this loop executed.  When nothing is claimable but open
        jobs remain (leased to someone else), polls until their leases
        resolve or expire."""
        try:
            while True:
                if self.run_one() is None:
                    if self.store.open_jobs(self.keys) == 0:
                        return self.executed
                    time.sleep(poll_s)
        finally:
            self.release()


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
    kill_tokens: Optional[str] = None,
) -> None:
    """Entry point of one supervised worker process."""
    from repro.harness.jobs import ResultCache

    store = JobStore(
        store_path, lease_s=lease_s, quarantine_after=quarantine_after
    )
    cache = ResultCache(cache_dir)
    hooks = []
    if kill_tokens is not None:
        hooks.append(make_kill_hook(kill_tokens))
    if diskfull_puts:
        hooks.append(make_diskfull_hook(diskfull_puts))
    if hooks:

        def put_hook() -> None:
            for hook in hooks:
                hook()

        cache.put_hook = put_hook
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


def import_execution_stack(workloads: Iterable[str]) -> None:
    """Import what executing a point needs: the simulator, the workload
    framework, and the module of each named registry workload."""
    from repro.common.errors import ConfigError
    from repro.harness.jobs import resolve_factory
    import repro.machine
    import repro.workloads.base

    for name in workloads:
        try:
            resolve_factory(name)
        except ConfigError:
            pass  # the worker fails the point and names it


class WorkerPool:
    """Parent-side supervisor for a fleet of worker processes.

    Spawns ``workers`` processes running :func:`worker_main`, then
    supervises until every job in ``keys`` is terminal: dead workers
    have their leases released immediately and are restarted within a
    bounded budget (once it is spent with no live worker, the parent
    runs the rest itself); expired leases of hung-but-alive workers are
    left to lease expiry (claims reclaim them lazily).  ``on_terminal(key,
    status)`` fires once per job as it reaches a terminal status, so the
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
        self._kill_tokens: Optional[str] = None

    # ------------------------------------------------------------------
    @staticmethod
    def _context():
        """``fork`` while this process runs one thread, ``spawn``
        otherwise.  The ``repro serve`` executor forks beside its event
        loop thread, which may be inside a job-store query just then: the
        child inherits SQLite's mutex held and hangs opening its own
        store (or inherits stale lock state and finds the store read
        only).  A spawned child starts clean."""
        if threading.active_count() == 1:
            try:
                return multiprocessing.get_context("fork")
            except ValueError:  # platforms without fork
                pass
        return multiprocessing.get_context("spawn")

    def _spawn(self, keys: List[str]):
        self._spawned += 1
        owner = f"pool-{os.getpid()}-w{self._spawned}"
        proc = self._context().Process(
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
                self._kill_tokens,
            ),
            daemon=True,
        )
        proc.start()
        return owner, proc

    def run(self, keys: Sequence[str], workloads: Iterable[str] = ()) -> None:
        """Supervise until every key is terminal.  When the restart
        budget is exhausted with no live workers, this process finishes
        whatever remains itself, so points are never stranded.

        ``workloads`` names the registry workloads the batch resolves by
        name.  Before forking, this process imports them with the
        simulator, so forked workers inherit the execution stack instead
        of each importing it; a spawned worker imports what it runs."""
        from repro.harness.jobs import ResultCache

        if self._context().get_start_method() == "fork":
            import_execution_stack(workloads)
        keys = list(keys)
        cache = ResultCache(self.cache_dir)
        budget = (
            self.max_restarts
            if self.max_restarts is not None
            else 4 + 2 * len(keys)
        )
        planned_kills = self.chaos.kill_first_leases
        if planned_kills:
            self._kill_tokens = tempfile.mkdtemp(prefix="repro-chaos-kills-")
            for index in range(planned_kills):
                open(os.path.join(self._kill_tokens, str(index)), "w").close()
        fleet = [self._spawn(keys) for _ in range(self.workers)]
        rng = random.Random(self.chaos.seed ^ 0xC4A05)
        next_kill = (
            time.monotonic() + self.chaos.kill_interval_s
            if self.chaos.kill_interval_s
            else None
        )
        corruptions_left = self.chaos.corrupt_first_entries
        reported: set = set()

        def report(key, status):
            nonlocal corruptions_left
            if status in TERMINAL and key not in reported:
                reported.add(key)
                if status == "done" and corruptions_left > 0:
                    corruptions_left -= 1
                    self.corruptions += corrupt_entry(cache.path(key), rng)
                if self.on_terminal is not None:
                    self.on_terminal(key, status)

        def scan():
            """Report newly terminal rows; return the open rows' count."""
            open_jobs = 0
            for row in self.store.rows(keys):
                report(row.key, row.status)
                if not row.terminal:
                    open_jobs += 1
            return open_jobs

        try:
            while True:
                if scan() == 0:
                    return
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
                        break
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
                time.sleep(self.poll_s)
        finally:
            deadline = time.monotonic() + max(2.0, 4 * self.poll_s)
            for _, proc in fleet:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            for _, proc in fleet:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=1.0)
            if self._kill_tokens is not None:
                # Every token taken is a worker that killed itself.
                self.kills += planned_kills - len(os.listdir(self._kill_tokens))
                shutil.rmtree(self._kill_tokens, ignore_errors=True)
                self._kill_tokens = None
        # The restart budget is spent with work left: drain it here.
        WorkerLoop(
            self.store,
            cache,
            keys=keys,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            seed=self.seed,
            point_timeout_s=self.point_timeout_s,
            on_complete=report,
        ).drain()
        scan()  # points the dead workers finished after the last scan


def corrupt_entry(path, rng: random.Random) -> int:
    """Flip one random bit of the cache entry file at ``path``; returns
    1 if the file was mutated (0 when it is missing or empty)."""
    try:
        data = bytearray(path.read_bytes())
    except FileNotFoundError:
        return 0
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
    "corrupt_entry",
    "default_store_path",
    "make_diskfull_hook",
    "make_kill_hook",
    "worker_main",
]
