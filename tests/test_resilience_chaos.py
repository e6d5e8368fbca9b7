"""Crash-safety property tests: random cache corruption is always a
miss (never an exception), SIGKILLed workers lose their lease and their
point is retried elsewhere, and the full chaos harness converges
byte-identically to an undisturbed serial run."""

import multiprocessing
import os
import pickle
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.jobs import (
    CACHE_VERSION,
    Engine,
    JobSpec,
    ResultCache,
    execute_spec,
)
from repro.resilience import (
    ChaosPlan,
    JobStore,
    WorkerLoop,
    WorkerPool,
    chaos_harness,
    fsck,
)
from repro.workloads.kernels import KERNELS

SPEC = JobSpec(config="pthread", workload="canneal", cores=4, scale=0.1, seed=7)


@pytest.fixture(scope="module")
def pristine_entry():
    """One real simulated result, computed once for the whole module."""
    return SPEC.key(), execute_spec(SPEC)


def _entry_bytes(cache, key):
    return cache.path(key).read_bytes()


# ---------------------------------------------------------------------------
# Satellite: random byte-flips / truncations never crash the cache and
# fsck pinpoints exactly the mutated entries.
# ---------------------------------------------------------------------------
class TestCorruptionIsAlwaysAMiss:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_mutated_entry_is_miss_or_intact_never_raises(
        self, data, pristine_entry, tmp_path_factory
    ):
        key, result = pristine_entry
        root = tmp_path_factory.mktemp("mutate")
        cache = ResultCache(root)
        cache.put(key, SPEC, result)
        raw = bytearray(_entry_bytes(cache, key))

        if data.draw(st.booleans(), label="truncate?"):
            cut = data.draw(
                st.integers(0, len(raw) - 1), label="truncate-at"
            )
            mutated = bytes(raw[:cut])
        else:
            pos = data.draw(st.integers(0, len(raw) - 1), label="flip-at")
            new = data.draw(
                st.integers(0, 255).filter(lambda b: b != raw[pos]),
                label="flip-to",
            )
            raw[pos] = new
            mutated = bytes(raw)
        cache.path(key).write_bytes(mutated)

        got = cache.get(key)  # must never raise
        if got is not None:
            # A flip inside insignificant JSON whitespace can be
            # semantically invisible; then the entry is still the truth.
            assert got == result
            assert fsck(root, repair=False).issues == []
        else:
            assert cache.corrupt >= 1
            report = fsck(root, repair=False)
            assert len(report.issues) == 1
            assert report.issues[0].path.endswith(f"{key}.json")
            assert report.issues[0].kind in (
                "torn-json", "checksum-mismatch", "schema-drift",
                "stale-version", "key-mismatch",
            )

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_fsck_detects_exactly_the_mutated_entries(
        self, data, pristine_entry, tmp_path_factory
    ):
        """Plant N healthy entries, mutate a chosen subset, and fsck
        must flag that subset and nothing else."""
        key, result = pristine_entry
        root = tmp_path_factory.mktemp("subset")
        cache = ResultCache(root)
        keys = []
        for seed in (1, 2, 3):
            s = JobSpec(
                config=SPEC.config, workload=SPEC.workload,
                cores=SPEC.cores, scale=SPEC.scale, seed=seed,
            )
            cache.put(s.key(), s, result)
            keys.append(s.key())
        victims = data.draw(
            st.sets(st.sampled_from(keys), min_size=1), label="victims"
        )
        for victim in victims:
            raw = bytearray(_entry_bytes(cache, victim))
            pos = data.draw(
                st.integers(0, len(raw) - 1), label=f"pos-{victim[:6]}"
            )
            raw[pos] ^= 0xFF  # high bit included: never JSON-invisible
            cache.path(victim).write_bytes(bytes(raw))

        report = fsck(root, repair=True)
        flagged = {
            os.path.basename(issue.path)[: -len(".json")]
            for issue in report.issues
        }
        assert flagged == victims
        assert report.ok
        for k in keys:
            expect_alive = k not in victims
            assert cache.path(k).exists() == expect_alive
            assert (cache.get(k) is not None) == expect_alive


# ---------------------------------------------------------------------------
# Satellite: SIGKILL mid-point => lease expires, point retried
# elsewhere, final results byte-identical to serial.
# ---------------------------------------------------------------------------
def _claim_and_hang(store_path, owner, started):
    store = JobStore(store_path, lease_s=1.0)
    claim = store.claim(owner)
    assert claim is not None
    started.set()
    time.sleep(60)  # never heartbeats, never completes


def _slow_canneal(n, scale=1.0):
    """canneal, after a pause long enough for a supervisor to see the
    point leased (the point itself simulates in milliseconds)."""
    time.sleep(0.3)
    return KERNELS["canneal"](n, scale)


class TestSigkillRecovery:
    def test_sigkilled_worker_releases_lease_and_point_is_retried(
        self, tmp_path
    ):
        store_path = tmp_path / "jobs.sqlite3"
        cache = ResultCache(tmp_path / "cache")
        store = JobStore(store_path, lease_s=1.0, quarantine_after=5)
        key = SPEC.key()
        store.enqueue(key, SPEC.describe())

        ctx = multiprocessing.get_context("fork")
        started = ctx.Event()
        proc = ctx.Process(
            target=_claim_and_hang, args=(store_path, "doomed", started)
        )
        proc.start()
        assert started.wait(timeout=30)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=10)

        # Lease still held: the point is not claimable yet.
        assert store.claim("survivor") is None
        deadline = time.monotonic() + 15
        claim = None
        while claim is None and time.monotonic() < deadline:
            time.sleep(0.1)
            claim = store.claim("survivor")
        assert claim is not None, "lease never expired"
        assert claim.reclaimed and claim.attempt == 2
        assert store.counters()["leases_expired"] == 1

        # Hand the reclaimed point to a healthy in-process worker and
        # check the retried result is byte-identical to serial.
        store.release_owner("survivor")
        loop = WorkerLoop(
            store, cache, keys=[key], owner="survivor",
            specs_by_key={key: SPEC}, heartbeats=False,
        )
        loop.drain()
        assert store.get(key).status == "done"
        assert cache.get(key).to_json() == execute_spec(SPEC).to_json()

    def test_pool_out_of_restarts_finishes_every_point_itself(
        self, tmp_path
    ):
        """The pool's one worker is SIGKILLed mid-point with no restart
        budget left: ``run`` still returns only once every key is done,
        with results byte-identical to a serial run."""
        specs = [
            JobSpec(config=c, workload="canneal", cores=4, scale=0.1, seed=7,
                    factory=_slow_canneal)
            for c in ("pthread", "msa-omu-2")
        ]
        keys = [s.key() for s in specs]
        store = JobStore(tmp_path / "jobs.sqlite3", lease_s=5.0,
                         quarantine_after=5)
        store.enqueue_many(
            (key, s.describe(), pickle.dumps(s)) for key, s in zip(keys, specs)
        )
        terminal = []
        pool = WorkerPool(
            store,
            tmp_path / "cache",
            workers=1,
            lease_s=5.0,
            quarantine_after=5,
            max_restarts=0,
            chaos=ChaosPlan(kill_first_leases=1),
            on_terminal=lambda key, status: terminal.append((key, status)),
        )
        pool.run(keys)
        assert (pool.kills, pool.restarts) == (1, 0)
        assert [store.get(key).status for key in keys] == ["done"] * 2
        assert sorted(terminal) == sorted((key, "done") for key in keys)
        cache = ResultCache(tmp_path / "cache")
        assert [cache.get(key).to_json() for key in keys] == [
            execute_spec(s).to_json() for s in specs
        ]
        store.close()

    def test_pool_reruns_a_lease_that_expires_after_its_workers_left(
        self, tmp_path
    ):
        """Idle workers leave while another owner holds a lease; when
        that lease expires (its holder hung), the pool starts a worker
        that reclaims the point, and counts no restart."""
        specs = [
            JobSpec(config=c, workload="canneal", cores=4, scale=0.1, seed=7)
            for c in ("pthread", "msa-omu-2")
        ]
        keys = [s.key() for s in specs]
        store = JobStore(tmp_path / "jobs.sqlite3", lease_s=0.5,
                         quarantine_after=5)
        store.enqueue_many(
            (key, s.describe(), pickle.dumps(s)) for key, s in zip(keys, specs)
        )
        assert store.claim("hung", keys=keys[:1]).key == keys[0]
        pool = WorkerPool(store, tmp_path / "cache", workers=2, lease_s=5.0,
                          quarantine_after=5)
        pool.run(keys)
        assert [store.get(key).status for key in keys] == ["done"] * 2
        assert store.counters()["leases_expired"] == 1
        assert pool.restarts == 0
        cache = ResultCache(tmp_path / "cache")
        assert [cache.get(key).to_json() for key in keys] == [
            execute_spec(s).to_json() for s in specs
        ]
        store.close()

    def test_engine_converges_under_seeded_kills(self, tmp_path):
        specs = [
            JobSpec(config=c, workload="canneal", cores=4, scale=0.15, seed=3)
            for c in ("pthread", "msa-omu-2")
        ]
        serial = [execute_spec(s).to_json() for s in specs]
        engine = Engine(
            workers=2,
            cache_dir=tmp_path / "cache",
            retries=9,
            lease_s=2.0,
            chaos=ChaosPlan(kill_interval_s=0.15, seed=11),
        )
        jobs = engine.run(specs)
        assert all(j.ok for j in jobs)
        assert [j.result.to_json() for j in jobs] == serial


# ---------------------------------------------------------------------------
# The full gauntlet (CI runs this via `python -m repro chaos-harness`).
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestChaosHarness:
    def test_full_gauntlet_is_byte_identical(self, tmp_path):
        result = chaos_harness(
            workdir=tmp_path,
            workers=3,
            scale=0.15,
            cores=4,
            kill_interval_s=0.2,
            corrupt_first_entries=2,
            diskfull_puts=1,
        )
        assert result.identical, result.describe()
        assert result.ok, result.describe()
        assert result.total == 4
        # The gauntlet actually fired (disk-full injection alone
        # guarantees retries even on a machine too fast to catch kills).
        counters = result.counters
        assert (
            result.kills + result.corruptions + counters.get("retries", 0)
        ) >= 1
        assert result.fsck_report is not None and result.fsck_report.ok

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planned_injections_all_fire(self, tmp_path, seed):
        """Lease kills and entry corruptions are triggered by claims and
        landings, not timers: on the default 4-point grid every planned
        one fires, whatever the seed and however fast the points run
        (the timer kills are off so the count is exact)."""
        result = chaos_harness(
            workdir=tmp_path, workers=3, seed=seed, kill_interval_s=0.0
        )
        assert result.total == 4
        assert (result.planned_kills, result.planned_corruptions) == (2, 2)
        assert (result.kills, result.corruptions) == (2, 2), result.describe()
        assert result.ok, result.describe()


def test_short_injection_is_not_ok():
    from repro.resilience.chaos import ChaosHarnessResult

    result = ChaosHarnessResult(
        total=4, kills=1, corruptions=2, planned_kills=2, planned_corruptions=2
    )
    assert result.identical and not result.fired and not result.ok
    text = result.describe()
    assert "1 worker kill(s) (planned 2)" in text
    assert "2 cache corruption(s) (planned 2)" in text
    assert "SHORT" in text
