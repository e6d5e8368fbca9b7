"""Tests for :mod:`repro.resilience`: the durable job store (leases,
heartbeats, quarantine), deterministic backoff, the escalating watchdog
and its triage dump, cache checksums, and fsck."""

import json
import os
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DeadlockError, WatchdogTimeout
from repro.harness.configs import build_machine
from repro.harness.jobs import (
    CACHE_VERSION,
    Engine,
    JobSpec,
    ResultCache,
    entry_checksum,
    execute_spec,
)
from repro.resilience import (
    Claim,
    JobStore,
    Watchdog,
    WatchdogWarning,
    WorkerLoop,
    backoff_delay,
    default_store_path,
    format_triage,
    fsck,
    resilience_registry,
    triage_dump,
)

SPEC = dict(config="pthread", workload="canneal", cores=4, scale=0.1, seed=7)


def spec(**over):
    return JobSpec(**{**SPEC, **over})


@pytest.fixture(scope="module")
def small_result():
    return execute_spec(spec())


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ---------------------------------------------------------------------------
# Job store
# ---------------------------------------------------------------------------
class TestJobStore:
    def make(self, tmp_path, **kw):
        clock = FakeClock()
        kw.setdefault("lease_s", 10.0)
        kw.setdefault("quarantine_after", 2)
        return JobStore(tmp_path / "jobs.sqlite3", clock=clock, **kw), clock

    def test_enqueue_claim_done(self, tmp_path):
        store, _ = self.make(tmp_path)
        assert store.enqueue("k1", "point", b"blob") == "pending"
        claim = store.claim("w1")
        assert isinstance(claim, Claim)
        assert claim.key == "k1" and claim.attempt == 1
        assert not claim.reclaimed
        assert claim.spec_blob == b"blob"
        # Leased rows are not claimable by others.
        assert store.claim("w2") is None
        assert store.mark_done("k1", "w1")
        row = store.get("k1")
        assert row.status == "done" and row.terminal
        assert store.open_jobs() == 0

    def test_enqueue_is_idempotent(self, tmp_path):
        store, _ = self.make(tmp_path)
        store.enqueue("k1", "point")
        assert store.enqueue("k1", "point") == "pending"
        assert store.counters()["enqueued"] == 1

    def test_expired_lease_is_reclaimed(self, tmp_path):
        store, clock = self.make(tmp_path, lease_s=5.0)
        store.enqueue("k1")
        store.claim("w-dead")
        assert store.claim("w2") is None  # lease still live
        clock.advance(6.0)
        claim = store.claim("w2")
        assert claim is not None and claim.reclaimed
        assert claim.attempt == 2
        assert store.counters()["leases_expired"] == 1

    def test_heartbeat_extends_lease(self, tmp_path):
        store, clock = self.make(tmp_path, lease_s=5.0)
        store.enqueue("k1")
        store.claim("w1")
        clock.advance(4.0)
        assert store.heartbeat("k1", "w1")
        clock.advance(4.0)  # 8s total: dead without the heartbeat
        assert store.claim("w2") is None
        assert not store.heartbeat("k1", "w-other")

    def test_failure_backoff_then_quarantine(self, tmp_path):
        store, clock = self.make(tmp_path, quarantine_after=2)
        store.enqueue("k1")
        claim = store.claim("w1")
        # Inside the backoff window: not claimable, even in the same
        # transaction.
        assert store.finish(claim, "RuntimeError: boom", backoff_s=3.0) == (
            "pending",
            None,
        )
        assert store.get("k1").status == "pending"
        assert store.claim("w1") is None
        clock.advance(3.5)
        claim = store.claim("w1")
        assert claim.attempt == 2
        status, _ = store.finish(
            claim, "RuntimeError: boom", traceback_text="Traceback..."
        )
        assert status == store.get("k1").status == "quarantined"
        artifact = store.quarantine_path("k1")
        assert artifact.is_file()
        assert "RuntimeError: boom" in artifact.read_text()
        assert store.open_jobs() == 0  # quarantined is terminal

    def test_claimable_from_names_each_open_status(self, tmp_path):
        store, clock = self.make(tmp_path)
        store.enqueue_many([(k, k, None) for k in ("k1", "k2", "k3")])
        assert store.claimable_from() == {"pending": 0.0}
        held = store.claim("w1", keys=["k1"])
        failed = store.claim("w1", keys=["k2"])
        store.finish(failed, "RuntimeError: boom", backoff_s=3.0, keys=[])
        assert store.claimable_from(["k1", "k2"]) == {
            "leased": clock.now + 10.0, "pending": clock.now + 3.0,
        }
        assert store.claimable_from(["k1"]) == {"leased": clock.now + 10.0}
        store.finish(held, keys=[])
        assert store.claimable_from(["k1"]) == {}

    def test_in_memory_ledger_writes_nothing(self, tmp_path, monkeypatch):
        """A store without a path keeps its rows in memory: the same
        transitions, and a quarantined job leaves no artifact."""
        monkeypatch.chdir(tmp_path)
        store = JobStore(quarantine_after=1)
        store.enqueue("k1")
        claim = store.claim("w1")
        status, _ = store.finish(
            claim, "RuntimeError: boom", traceback_text="Traceback..."
        )
        assert status == store.get("k1").status == "quarantined"
        assert store.quarantine_path("k1") is None
        assert store.counters()["quarantined"] == 1
        store.close()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("terminal", ["done", "quarantined"])
    def test_requeue_resets_quarantined(self, tmp_path, terminal):
        """Enqueueing a terminal row again (its cache entry did not
        read) re-pends it with a fresh attempt budget; pending and
        leased rows are left as they are."""
        store, clock = self.make(tmp_path, quarantine_after=1)
        store.enqueue("k1", "point", b"blob")
        store.finish(store.claim("w1"), None if terminal == "done" else "err")
        assert store.get("k1").status == terminal
        store.enqueue("k2")
        store.enqueue("k3")
        store.claim("w2", keys=["k3"])
        untouched = store.rows(["k2", "k3"])
        clock.advance(1.0)
        assert store.enqueue_many(
            [("k1", "point", None), ("k2", "", None), ("k3", "", None)]
        ) == ["pending", "pending", "leased"]
        row = store.get("k1")
        assert (
            row.status, row.attempts, row.error, row.not_before,
            row.lease_owner, row.lease_expires,
        ) == ("pending", 0, None, 0, None, None)
        assert store.rows(["k2", "k3"]) == untouched
        claim = store.claim("w1", keys=["k1"])
        assert claim.attempt == 1  # fresh retry budget
        assert claim.spec_blob == b"blob"  # kept: none was given
        assert store.counters()["requeued"] == 1

    def test_stale_owner_cannot_complete(self, tmp_path):
        """A hung worker whose lease expired and whose point finished
        elsewhere must not overwrite the outcome."""
        store, clock = self.make(tmp_path, lease_s=5.0)
        store.enqueue("k1")
        hung = store.claim("w-hung")
        clock.advance(6.0)
        store.claim("w-fresh")
        store.mark_done("k1", "w-fresh")
        assert not store.mark_done("k1", "w-hung")
        assert store.finish(hung) == ("stale", None)
        assert store.finish(hung, "late failure") == ("stale", None)
        row = store.get("k1")
        assert (row.status, row.error) == ("done", None)
        assert store.counters()["stale_completions"] == 3

    def test_release_owner_frees_leases_immediately(self, tmp_path):
        store, _ = self.make(tmp_path)
        store.enqueue("k1")
        store.enqueue("k2")
        store.claim("w1", keys=("k1",))
        store.claim("w1", keys=("k2",))
        assert store.release_owner("w1") == 2
        assert store.claim("w2") is not None  # no lease wait needed

    def test_finish_records_outcome_and_claims_next(self, tmp_path):
        store, clock = self.make(tmp_path, quarantine_after=2)
        for key in ("k1", "k2", "k3"):
            store.enqueue(key)
        first = store.claim("w1")
        status, second = store.finish(first)
        assert status == store.get("k1").status == "done"
        assert (second.key, second.owner, second.attempt) == ("k2", "w1", 1)
        assert store.get("k2").status == "leased"
        # A failure backs off, so the next claim skips that point.
        _, third = store.finish(second, error="boom", backoff_s=5.0)
        row = store.get("k2")
        assert (row.status, row.error) == ("pending", "boom")
        assert third.key == "k3"
        # ``keys`` limits what the fused claim may take.
        assert store.finish(third, keys=["k3"]) == ("done", None)
        clock.advance(6.0)
        retry = store.claim("w1")
        assert (retry.key, retry.attempt) == ("k2", 2)
        assert store.finish(retry, "boom again", "Traceback ...") == (
            "quarantined",
            None,
        )
        assert store.get("k2").status == "quarantined"
        assert store.quarantine_path("k2").exists()
        counters = store.counters()
        assert counters["done"] == 2 and counters["retries"] == 1
        assert counters["quarantined"] == 1
        assert counters["leases_granted"] == 4

    def test_release_gives_the_attempt_back(self, tmp_path):
        store, _ = self.make(tmp_path)
        store.enqueue("k1")
        claim = store.claim("w1")
        assert store.release(claim)
        row = store.get("k1")
        assert (row.status, row.attempts, row.lease_owner) == (
            "pending", 0, None,
        )
        assert store.counters()["leases_released"] == 1
        assert not store.release(claim)  # no longer held
        assert store.claim("w2").attempt == 1

    def test_keyed_claim_takes_the_earliest_across_chunks(
        self, tmp_path, monkeypatch
    ):
        from repro.resilience import store as store_module

        monkeypatch.setattr(store_module, "_KEY_CHUNK", 2)
        store, _ = self.make(tmp_path)
        store.enqueue_many([(f"k{i}", "", None) for i in range(7)])
        wanted = ["k6", "k5", "k3", "k4", "k2"]
        claimed = []
        while True:
            claim = store.claim("w1", keys=wanted)
            if claim is None:
                break
            claimed.append(claim.key)
        assert claimed == ["k2", "k3", "k4", "k5", "k6"]

    def test_corrupt_store_is_rebuilt(self, tmp_path):
        path = tmp_path / "jobs.sqlite3"
        path.write_bytes(b"definitely not a sqlite database" * 10)
        store = JobStore(path)
        store.enqueue("k1")
        assert store.get("k1").status == "pending"

    def test_counters_exported_to_registry(self, tmp_path):
        store, _ = self.make(tmp_path)
        store.enqueue("k1")
        store.claim("w1")
        store.mark_done("k1", "w1")
        reg = resilience_registry(store.counters())
        names = {m.name for m in reg.metrics()}
        assert "harness.enqueued" in names
        assert "harness.leases_granted" in names

    def test_dedup_enqueue_writes_nothing(self, tmp_path):
        store, clock = self.make(tmp_path)
        store.enqueue("k1", "point", b"blob")
        store.claim("w1")
        clock.advance(1.0)
        before, changes = store.get("k1"), store._db.total_changes
        assert store.enqueue_many([("k1", "point", b"blob")]) == ["leased"]
        assert store._db.total_changes == changes
        assert store.get("k1") == before
        # A different blob is still recorded.
        store.enqueue("k1", "point", b"blob-2")
        assert store._db.total_changes == changes + 1
        assert store.get("k1").updated == before.updated + 1.0


def _scan_then_filter(store, keys):
    """What ``rows(keys)`` returned before it was a keyed lookup: every
    row in enqueue order, then filtered."""
    keyset = set(keys)
    return [r for r in store.rows() if r.key in keyset]


class TestKeyedReads:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n_rows=st.one_of(st.integers(0, 30), st.integers(1000, 1100)),
    )
    def test_rows_by_key_match_scan_then_filter(self, data, n_rows):
        """Order, duplicates, unknown keys and key lists longer than
        one ``IN (...)`` chunk all read as the full scan filtered."""
        order = data.draw(st.permutations(range(n_rows)))
        names = [f"job-{i:05d}" for i in order]
        cuts = sorted(data.draw(st.lists(st.integers(0, n_rows), max_size=4)))
        clock = FakeClock()
        with tempfile.TemporaryDirectory() as tmp:
            store = JobStore(Path(tmp) / "jobs.sqlite3", clock=clock)
            try:
                # Batches enqueued at equal or later times: rows tie on
                # ``created`` within (and sometimes across) batches.
                for lo, hi in zip([0] + cuts, cuts + [n_rows]):
                    store.enqueue_many([(k, "", None) for k in names[lo:hi]])
                    clock.advance(data.draw(st.sampled_from([0.0, 1.0])))
                if names:
                    for key in data.draw(
                        st.lists(st.sampled_from(names), max_size=5)
                    ):
                        store.mark_done(key)
                pool = names + [f"unknown-{i}" for i in range(5)]
                if n_rows >= 1000:
                    keys = data.draw(st.permutations(pool)) + data.draw(
                        st.lists(st.sampled_from(pool), max_size=20)
                    )
                else:
                    keys = data.draw(
                        st.lists(st.sampled_from(pool), max_size=60)
                    )
                expected = _scan_then_filter(store, keys)
                assert store.rows(keys) == expected
                assert store.open_jobs(keys) == sum(
                    not r.terminal for r in expected
                )
                open_keys = [r.key for r in store.rows() if not r.terminal]
                assert store.open_keys() == open_keys
                assert store.open_keys(limit=3) == open_keys[:3]
                assert store.open_jobs() == len(open_keys)
            finally:
                store.close()

    @staticmethod
    def _vm_steps(store, read):
        """SQLite virtual-machine steps ``read()`` executes on the
        store's connection."""
        steps = [0]

        def count():
            steps[0] += 1
            return 0

        store._db.set_progress_handler(count, 1)
        try:
            read()
        finally:
            store._db.set_progress_handler(None, 1)
        return steps[0]

    def _store(self, path, n_rows, n_open):
        store = JobStore(path)
        store.enqueue_many([(f"k{i:05d}", "", None) for i in range(n_rows)])
        # Close all but the first ``n_open`` rows in one statement (one
        # mark_done per row would dominate the test's run time).
        store._db.execute(
            "UPDATE jobs SET status='done' WHERE rowid > ?", (n_open,)
        )
        return store

    def test_reads_do_not_scan_the_store(self, tmp_path):
        """Reading one key, or the open jobs, costs the same in a
        10-row store as in a 5,000-row store with as many open jobs."""
        small = self._store(tmp_path / "small.sqlite3", 10, 10)
        large = self._store(tmp_path / "large.sqlite3", 5000, 10)
        try:
            for read in (
                lambda s: s.rows(["k00003"]),
                lambda s: s.rows(["k00003", "k00007", "missing"]),
                lambda s: s.open_keys(),
                lambda s: s.open_jobs(),
            ):
                assert self._vm_steps(
                    large, lambda: read(large)
                ) == self._vm_steps(small, lambda: read(small))
            assert large.rows(["k04999"])[0].status == "done"
            assert len(large.open_keys()) == 10
        finally:
            small.close()
            large.close()

    def test_keyed_claims_do_not_scan_the_store(self, tmp_path):
        """Claiming among 5 keys costs the same in a 10-row store as in
        a 5,000-row store where every row is claimable: the keys are
        filtered in SQL, by primary key.  So does the claim that finds
        nothing left among them."""
        small = self._store(tmp_path / "small.sqlite3", 10, 10)
        large = self._store(tmp_path / "large.sqlite3", 5000, 5000)
        subset = ["k00000", "k00002", "k00004", "k00006", "k00008"]
        try:
            for _ in range(len(subset) + 1):
                assert self._vm_steps(
                    large, lambda: large.claim("w1", keys=subset)
                ) == self._vm_steps(
                    small, lambda: small.claim("w1", keys=subset)
                )
            assert [r.status for r in large.rows(subset)] == ["leased"] * 5
            assert large.open_jobs() == 5000
        finally:
            small.close()
            large.close()


# ---------------------------------------------------------------------------
# Deterministic backoff
# ---------------------------------------------------------------------------
class TestBackoff:
    def test_pure_function_of_inputs(self):
        assert backoff_delay("k", 4, seed=9) == backoff_delay("k", 4, seed=9)
        assert backoff_delay("k", 4, seed=9) != backoff_delay("k", 4, seed=10)
        assert backoff_delay("k", 4) != backoff_delay("other", 4)

    def test_exponential_growth_with_cap(self):
        base, cap = 0.1, 1.0
        raw = [
            backoff_delay("k", attempt, base=base, cap=cap)
            for attempt in range(1, 8)
        ]
        # Jitter keeps each delay within [raw/2, raw) of the uncapped
        # exponential, and the cap bounds everything.
        for attempt, delay in enumerate(raw, start=1):
            ceiling = min(cap, base * 2 ** (attempt - 1))
            assert ceiling / 2 <= delay <= ceiling
        assert backoff_delay("k", 0) == 0.0


class TestWorkerLoop:
    def test_heartbeats_renew_the_lease_of_a_long_point(self, tmp_path):
        """The beater thread must reach the store: a point that outlives
        its lease several times over is renewed, never reclaimed."""
        from repro.workloads.kernels import KERNELS

        def slow(n, scale=1.0):
            time.sleep(0.4)
            return KERNELS["canneal"](n, scale)

        slow_spec = spec(workload="slow", factory=slow)
        key = slow_spec.key()
        store = JobStore(tmp_path / "jobs.sqlite3", lease_s=0.06)
        store.enqueue(key, slow_spec.describe())
        WorkerLoop(
            store,
            ResultCache(tmp_path / "cache"),
            specs_by_key={key: slow_spec},
        ).drain()
        counters = store.counters()
        assert store.get(key).status == "done"
        assert counters["heartbeats"] > 0
        assert counters["stale_completions"] == 0
        store.close()

    def test_one_beater_renews_each_long_point(self, tmp_path, monkeypatch):
        """The loop's one heartbeat thread outlives its first point: a
        short point, then two long ones, and both long ones are
        renewed."""
        from repro.workloads.kernels import KERNELS

        def slow(n, scale=1.0):
            time.sleep(0.3)
            return KERNELS["canneal"](n, scale)

        specs = [
            spec(),
            spec(workload="slow-a", factory=slow),
            spec(workload="slow-b", factory=slow),
        ]
        keys = [s.key() for s in specs]
        store = JobStore(tmp_path / "jobs.sqlite3", lease_s=0.06)
        store.enqueue_many([(k, s.describe(), None) for k, s in zip(keys, specs)])
        renewed = []
        heartbeat = JobStore.heartbeat

        def recording(self, key, owner):
            renewed.append(key)
            return heartbeat(self, key, owner)

        monkeypatch.setattr(JobStore, "heartbeat", recording)
        WorkerLoop(
            store,
            ResultCache(tmp_path / "cache"),
            specs_by_key=dict(zip(keys, specs)),
        ).drain()
        assert {store.get(k).status for k in keys} == {"done"}
        assert set(keys[1:]) <= set(renewed)
        assert store.counters()["stale_completions"] == 0
        store.close()

    def test_idle_exit_waits_for_pending_not_for_others_leases(
        self, tmp_path, monkeypatch
    ):
        """A pool worker's loop runs a point whose retry is backed off
        once the backoff ends, then returns while another worker still
        holds a lease: that worker's supervisor reruns the point if it
        dies."""

        class NullCache:
            def put(self, key, spec, result):
                pass

        store = JobStore(tmp_path / "jobs.sqlite3")
        store.enqueue_many([("held", "", None), ("later", "", None)])
        store.claim("other", keys=["held"])
        failed = store.claim("other", keys=["later"])
        store.finish(failed, "RuntimeError: boom", backoff_s=0.2, keys=[])
        loop = WorkerLoop(
            store, NullCache(), keys=["held", "later"],
            specs_by_key={"held": None, "later": None}, heartbeats=False,
        )
        monkeypatch.setattr(loop, "_execute", lambda spec: None)
        assert loop.drain(idle_exit=True) == 1
        assert store.get("later").status == "done"
        assert store.get("held").status == "leased"
        store.close()

    def test_fixed_cost_per_point(self, tmp_path, monkeypatch):
        """200 points through one loop start one heartbeat thread, not
        one per point, and never re-read a finished row: the outcome
        reaches ``on_complete`` from the commit that recorded it."""
        import threading

        store = JobStore(tmp_path / "jobs.sqlite3")
        keys = [f"k{i:03d}" for i in range(200)]
        store.enqueue_many([(k, k, None) for k in keys])
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        class NullCache:
            def put(self, key, spec, result):
                pass

        def no_get(key):
            raise AssertionError(f"store.get({key!r}) per point")

        monkeypatch.setattr(threading, "Thread", CountingThread)
        monkeypatch.setattr(store, "get", no_get)
        outcomes = []
        loop = WorkerLoop(
            store,
            NullCache(),
            specs_by_key={k: k for k in keys},
            on_complete=lambda key, status: outcomes.append(status),
        )
        monkeypatch.setattr(loop, "_execute", lambda spec: None)
        assert loop.drain() == 200
        assert outcomes == ["done"] * 200
        assert started == ["repro-heartbeat"]
        assert loop._beater is None  # drain stops it
        store.close()


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------
def _watched_machine(n_threads=4, iters=40):
    m = build_machine("msa-omu-2", n_cores=16, seed=3)
    lock = m.allocator.sync_var()
    counter = m.allocator.line()

    def body(th):
        for _ in range(iters):
            yield from th.lock(lock)
            value = yield from th.load(counter)
            yield from th.store(counter, value + 1)
            yield from th.unlock(lock)

    for _ in range(n_threads):
        m.scheduler.spawn(body)
    return m


class TestWatchdog:
    def test_within_budget_matches_unwatched_run(self):
        plain = _watched_machine()
        cycles_plain = plain.run()
        watched = _watched_machine()
        wd = Watchdog(max_events=10_000_000, chunk_events=512)
        assert wd.run(watched) == cycles_plain
        assert watched.sim.events_processed == plain.sim.events_processed
        assert wd.stage == "ok"

    def test_event_budget_escalation_ladder(self):
        reference = _watched_machine()
        reference.run()
        budget = reference.sim.events_processed // 2
        m = _watched_machine()
        stages = []
        wd = Watchdog(
            max_events=budget,
            chunk_events=max(1, budget // 50),
            on_stage=lambda stage, reason: stages.append(stage),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WatchdogWarning)
            with pytest.raises(WatchdogTimeout) as excinfo:
                wd.run(m)
        assert stages == ["warned", "snapshotted", "aborted"]
        assert wd.snapshot is not None
        err = excinfo.value
        assert err.triage["pending_events"] > 0
        assert f"max_events={budget}" in str(err)

    def test_warn_stage_emits_warning(self):
        reference = _watched_machine()
        reference.run()
        m = _watched_machine()
        wd = Watchdog(
            max_events=reference.sim.events_processed // 2,
            chunk_events=64,
        )
        with pytest.warns(WatchdogWarning):
            with pytest.raises(WatchdogTimeout):
                wd.run(m)

    def test_wall_clock_budget_with_fake_clock(self):
        clock = FakeClock()
        m = _watched_machine()

        original = m.sim.run_chunk

        def slow_chunk(n):
            clock.advance(2.0)
            return original(n)

        m.sim.run_chunk = slow_chunk
        wd = Watchdog(wall_clock_s=5.0, chunk_events=64, clock=clock)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WatchdogWarning)
            with pytest.raises(WatchdogTimeout) as excinfo:
                wd.run(m)
        assert "wall clock" in str(excinfo.value)

    def test_triage_dump_structure(self):
        m = _watched_machine()
        m.run()
        triage = triage_dump(m)
        assert triage["cycle"] == m.sim.now
        assert triage["threads"]["total"] == 4
        assert triage["threads"]["finished"] == 4
        assert triage["noc"]["in_flight"] == 0
        assert json.dumps(triage)  # plain data, JSON-safe
        assert "cycle" in format_triage(triage)

    def test_triage_does_not_count_drops_as_in_flight(self):
        """A drained run under message drops has nothing in flight: the
        triage reads the same ledger as the NoC conservation monitor."""
        from repro.faults import drop_plan
        from tests.test_faults import _lock_run

        m, _ = _lock_run(drop_plan(0.1))
        triage = triage_dump(m)
        assert triage["noc"]["dropped"] > 0
        assert triage["noc"]["in_flight"] == 0
        assert "NoC in-flight 0, dropped" in format_triage(triage)


class TestDeadlockTriage:
    def test_deadlock_error_carries_triage_dump(self):
        """Satellite: DeadlockError is enriched with the watchdog's
        triage dump (thread sets, NoC in-flight, MSA occupancy)."""
        m = build_machine("msa-omu-2", n_cores=16, seed=1)
        lock = m.allocator.sync_var()

        def greedy(th):
            yield from th.lock(lock)  # never unlocks

        def starved(th):
            yield from th.compute(50)
            yield from th.lock(lock)

        m.scheduler.spawn(greedy, name="greedy")
        m.scheduler.spawn(starved, name="starved")
        with pytest.raises(DeadlockError) as excinfo:
            m.run()
        err = excinfo.value
        assert err.triage["threads"]["total"] == 2
        assert err.triage["threads"]["finished"] == 1
        stuck = err.triage["threads"]["runnable"]
        assert [t["name"] for t in stuck] == ["starved"]
        assert stuck[0]["blocked"] == "future"
        # The MSA still holds the lock entry the victim waits on.
        assert any(
            entry["waiters"] >= 1
            for sl in err.triage["msa"]
            for entry in sl["occupancy"]
        )
        assert "[triage:" in str(err)


# ---------------------------------------------------------------------------
# Cache checksums
# ---------------------------------------------------------------------------
class TestCacheChecksums:
    def test_entry_carries_version_and_checksum(self, tmp_path, small_result):
        cache = ResultCache(tmp_path)
        key = spec().key()
        cache.put(key, spec(), small_result)
        data = json.loads(cache.path(key).read_text())
        assert data["v"] == CACHE_VERSION
        assert data["sha256"] == entry_checksum(data)
        assert cache.get(key) == small_result

    def test_parseable_but_tampered_entry_is_a_miss(
        self, tmp_path, small_result
    ):
        """A byte flip that keeps the JSON valid (e.g. a mutated cycle
        count) must still be rejected -- this is exactly the corruption
        a checksum exists for."""
        cache = ResultCache(tmp_path)
        key = spec().key()
        cache.put(key, spec(), small_result)
        path = cache.path(key)
        data = json.loads(path.read_text())
        data["result"]["cycles"] += 1  # silent wrong-result corruption
        path.write_text(json.dumps(data, sort_keys=True))
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert list(cache.entries()) == []

    def test_entry_under_wrong_key_is_a_miss(self, tmp_path, small_result):
        cache = ResultCache(tmp_path)
        key = spec().key()
        other = spec(seed=8).key()
        cache.put(key, spec(), small_result)
        cache.path(other).parent.mkdir(parents=True, exist_ok=True)
        cache.path(other).write_text(cache.path(key).read_text())
        assert cache.get(other) is None
        assert cache.get(key) is not None


# ---------------------------------------------------------------------------
# fsck
# ---------------------------------------------------------------------------
class TestFsck:
    def _cache_with_entries(self, tmp_path, small_result, n=3):
        cache = ResultCache(tmp_path / "cache")
        keys = []
        for seed in range(n):
            s = spec(seed=100 + seed)
            key = s.key()
            cache.put(key, s, small_result)
            keys.append(key)
        return cache, keys

    def test_clean_cache_is_healthy(self, tmp_path, small_result):
        cache, keys = self._cache_with_entries(tmp_path, small_result)
        report = fsck(cache.root)
        assert report.ok
        assert report.scanned_entries == 3
        assert report.healthy_entries == 3
        assert report.issues == []

    def test_finds_and_evicts_each_corruption_kind(
        self, tmp_path, small_result
    ):
        cache, keys = self._cache_with_entries(tmp_path, small_result, n=4)
        # torn JSON
        cache.path(keys[0]).write_text('{"key": "' + keys[0])
        # checksum mismatch (parseable)
        data = json.loads(cache.path(keys[1]).read_text())
        data["result"]["cycles"] += 7
        cache.path(keys[1]).write_text(json.dumps(data, sort_keys=True))
        # schema drift (no checksum/version at all)
        cache.path(keys[2]).write_text(json.dumps({"result": {}}))
        # orphan tmp from an interrupted atomic write
        orphan = cache.path(keys[3]).parent / "leftover.tmp"
        orphan.write_text("partial")

        report = fsck(cache.root, repair=True)
        kinds = sorted(i.kind for i in report.issues)
        assert kinds == [
            "checksum-mismatch", "orphan-tmp", "schema-drift", "torn-json",
        ]
        assert report.ok  # everything repaired
        assert not orphan.exists()
        for key in keys[:3]:
            assert not cache.path(key).exists()  # evicted = miss
        assert cache.path(keys[3]).exists()  # healthy entry untouched
        # The cache is clean now.
        assert fsck(cache.root).issues == []

    def test_no_repair_reports_without_touching(self, tmp_path, small_result):
        cache, keys = self._cache_with_entries(tmp_path, small_result, n=1)
        cache.path(keys[0]).write_text("{torn")
        report = fsck(cache.root, repair=False)
        assert [i.kind for i in report.issues] == ["torn-json"]
        assert not report.ok
        assert cache.path(keys[0]).exists()

    def test_fsck_repairs_manifest_and_expired_leases(
        self, tmp_path, small_result
    ):
        # The sweep manifest is gone (the job store holds the same
        # facts); the expired-lease repair half of this test remains.
        cache, _ = self._cache_with_entries(tmp_path, small_result, n=1)
        store = JobStore(default_store_path(cache.root), lease_s=0.01)
        store.enqueue("k1")
        store.claim("w-dead")
        store.close()
        time.sleep(0.05)
        report = fsck(cache.root, repair=True)
        kinds = sorted(i.kind for i in report.issues)
        assert kinds == ["expired-lease"]
        assert report.ok
        store = JobStore(default_store_path(cache.root))
        assert store.get("k1").status == "pending"
        store.close()

    def test_fsck_counters_shape(self, tmp_path, small_result):
        cache, keys = self._cache_with_entries(tmp_path, small_result, n=1)
        counters = fsck(cache.root).counters()
        assert counters["fsck_scanned"] == 1
        assert counters["fsck_healthy"] == 1
        assert counters["fsck_torn-json"] == 0
