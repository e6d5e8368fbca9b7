"""Tests for the parallel experiment engine (:mod:`repro.harness.jobs`):
spec hashing, the result cache, determinism of parallel vs serial
execution, retry handling, resume from the cache directory, and
cleanup of the throwaway store a cache-less run uses."""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import MachineParams, OMUParams
from repro.harness.jobs import (
    Engine,
    JobSpec,
    ResultCache,
    execute_spec,
    resolve_factory,
    run_jobs,
)
from repro.harness.runner import RunResult
from repro.resilience.store import JobStore, default_store_path
from repro.workloads.kernels import KERNELS

SPEC = dict(config="pthread", workload="canneal", cores=16, scale=0.25, seed=7)


def spec(**over):
    return JobSpec(**{**SPEC, **over})


# A module-level factory that always fails (picklable, so it exercises
# the pool's failure path too).
def _always_fail(n, scale=1.0):
    raise RuntimeError("synthetic workload failure")


class TestJobSpec:
    def test_key_is_deterministic(self):
        assert spec().key() == spec().key()

    def test_key_covers_every_grid_axis(self):
        base = spec().key()
        assert spec(config="msa-omu-2").key() != base
        assert spec(workload="swaptions").key() != base
        assert spec(cores=64).key() != base
        assert spec(scale=0.5).key() != base
        assert spec(seed=8).key() != base
        assert spec(max_events=1000).key() != base

    def test_key_covers_machine_param_overrides(self):
        base = spec(config="msa-omu-2")
        tweaked = spec(
            config="msa-omu-2", params={"omu": OMUParams(n_counters=2)}
        )
        assert base.key() != tweaked.key()

    def test_key_covers_machine_defaults(self):
        """The key hashes the *resolved* MachineParams, so editing a
        default in code invalidates cached results."""
        params, _ = spec().resolved_params()
        assert isinstance(params, MachineParams)
        assert params.stable_hash() != params.with_(seed=99).stable_hash()

    @pytest.mark.parametrize(
        "point, key",
        [
            (
                spec(),
                "ef55e1e3bc8d08682fb85bb92a40896f3a76d33eff623be1db1058a536874f1f",
            ),
            (
                spec(config="msa-omu-2", cores=64),
                "92ab36af6e38eb180a62472fb3b7bceddc1378ce755ea79a913bf6bc296add6d",
            ),
            (
                JobSpec("ideal", "fmm", cores=16, scale=0.1, seed=2015),
                "8f816ff841842a2a740853e27376ef949c09bd5895482d544b57cfed64bc60df",
            ),
            (
                JobSpec(
                    "msa-omu-2",
                    "streamcluster",
                    cores=16,
                    scale=0.1,
                    seed=3000,
                    params={"msa.entries_per_tile": 4},
                ),
                "6b66d2e7cf4834a4abd84be03cf01b35599fc55a27a34854906527bfc61bd32b",
            ),
            (
                spec(checkers=("mutex", "barrier")),
                "6b7a23d1fab7cb08abac78ef2faa711cf0017f058108a110b6b7036282e8092f",
            ),
            (
                JobSpec(
                    "ideal",
                    "swaptions",
                    cores=64,
                    scale=0.5,
                    seed=11,
                    max_events=None,
                ),
                "e91b6629c50d9fd3cb1116bfbb480af4267e45c28d77788f4a4d48adf3d61d3e",
            ),
        ],
        ids=["pthread", "msa-omu-2-64c", "ideal", "dotted", "checkers", "64c"],
    )
    def test_key_is_pinned(self, point, key):
        """Keys are what existing caches are filed under: the same
        bytes on every call, across releases, until CACHE_VERSION
        changes."""
        assert point.key() == key
        assert point.key() == key

    def test_key_memo_is_keyed_by_value(self):
        """Changing a spec after a first key() changes its key: the
        machine memo follows the spec's values, not the spec object."""
        point = spec(config="msa-omu-2")
        first = point.key()
        point.seed = 8
        reseeded = point.key()
        assert reseeded != first
        assert reseeded == spec(config="msa-omu-2", seed=8).key()
        point.params["msa.entries_per_tile"] = 4
        tweaked = point.key()
        assert tweaked not in (first, reseeded)
        assert tweaked == spec(
            config="msa-omu-2", seed=8, params={"msa.entries_per_tile": 4}
        ).key()
        # 4 and 4.0 resolve to machines that serialise differently.
        point.params["msa.entries_per_tile"] = 4.0
        assert point.key() != tweaked

    def test_key_memo_is_bounded(self):
        from repro.harness import jobs

        for seed in range(jobs.MACHINE_MEMO_SIZE + 5):
            spec(seed=seed).key()
        assert 0 < len(jobs._MACHINE_MEMO) <= jobs.MACHINE_MEMO_SIZE

    def test_resolve_factory_kernels_and_microbenches(self):
        assert resolve_factory("canneal") is KERNELS["canneal"]
        assert resolve_factory("LockAcquire") is not None
        with pytest.raises(ConfigError):
            resolve_factory("not-a-workload")

    def test_describe(self):
        assert spec().describe() == "canneal/pthread@16"


class TestExecuteSpec:
    def test_deterministic_rerun(self):
        a = execute_spec(spec())
        b = execute_spec(spec())
        assert a == b
        assert a.to_json() == b.to_json()

    def test_param_overrides_take_effect(self):
        plain = execute_spec(spec(config="msa-omu-2"))
        tweaked = execute_spec(
            spec(config="msa-omu-2", params={"omu": OMUParams(enabled=False)})
        )
        assert plain.cycles > 0 and tweaked.cycles > 0
        # Not asserting an ordering, only that the knob was actually
        # threaded through to the machine (different counters).
        assert (
            plain.msa_counters != tweaked.msa_counters
            or plain.cycles != tweaked.cycles
        )

    def test_microbench_spec(self):
        result = execute_spec(
            JobSpec(config="pthread", workload="LockAcquire", cores=4)
        )
        assert result.workload_metrics["lock_acquire_cycles"] > 0


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = spec().key()
        assert cache.get(key) is None
        result = execute_spec(spec())
        cache.put(key, spec(), result)
        hit = cache.get(key)
        assert hit == result
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = spec().key()
        cache.put(key, spec(), execute_spec(spec()))
        cache.path(key).write_text("{torn write")
        assert cache.get(key) is None


class TestEngineSerial:
    def test_runs_and_counts(self, tmp_path):
        engine = Engine(workers=1, cache_dir=tmp_path)
        jobs = engine.run([spec(), spec(workload="swaptions")])
        assert all(j.ok for j in jobs)
        assert engine.stats.executed == 2
        assert engine.stats.cache_hits == 0

    def test_second_run_fully_cached(self, tmp_path):
        Engine(workers=1, cache_dir=tmp_path).run([spec()])
        engine = Engine(workers=1, cache_dir=tmp_path)
        jobs = engine.run([spec()])
        assert engine.stats.cache_hits == 1 and engine.stats.executed == 0
        assert jobs[0].cached
        assert jobs[0].result == execute_spec(spec())

    def test_failure_reported_not_raised(self):
        engine = Engine(workers=1)
        bad = spec(workload="broken", factory=_always_fail)
        jobs = engine.run([bad, spec()])
        assert not jobs[0].ok
        assert "synthetic workload failure" in jobs[0].error
        assert jobs[0].attempts == 2  # one retry
        assert jobs[1].ok
        assert engine.stats.failed == 1 and engine.stats.retried == 1

    def test_retry_recovers_flaky_point(self, tmp_path):
        marker = tmp_path / "tried"

        def flaky(n, scale=1.0):
            if not marker.exists():
                marker.write_text("x")
                raise RuntimeError("first attempt dies")
            return KERNELS["canneal"](n, scale)

        engine = Engine(workers=1)
        jobs = engine.run([spec(workload="flaky", factory=flaky)])
        assert jobs[0].ok and jobs[0].attempts == 2
        assert engine.stats.retried == 1 and engine.stats.failed == 0


    def test_one_commit_per_executed_point(self, tmp_path, monkeypatch):
        """A serial run commits once per executed point, plus a fixed
        few (enqueue, first claim, the claim that finds nothing): the
        point's outcome and the next claim share one transaction."""
        commits = []
        connect = JobStore._connect

        def traced(store):
            db = connect(store)
            db.set_trace_callback(
                lambda sql: commits.append(sql) if sql == "COMMIT" else None
            )
            return db

        monkeypatch.setattr(JobStore, "_connect", traced)
        counts = {}
        for n in (4, 8):
            commits.clear()
            engine = Engine(workers=1, cache_dir=tmp_path / f"n{n}")
            jobs = engine.run(
                [spec(scale=0.02, seed=seed) for seed in range(n)]
            )
            assert all(j.ok and not j.cached for j in jobs)
            counts[n] = len(commits)
        assert counts[8] - counts[4] == 4
        assert counts[4] <= 4 + 3


class TestEngineParallel:
    GRID = [
        dict(workload=w, config=c)
        for w in ("canneal", "swaptions")
        for c in ("pthread", "msa-omu-2")
    ]

    def test_parallel_matches_serial_bit_for_bit(self, tmp_path):
        serial = [execute_spec(spec(**g)) for g in self.GRID]
        engine = Engine(workers=4, cache_dir=tmp_path / "cache")
        jobs = engine.run([spec(**g) for g in self.GRID])
        assert engine.stats.executed == len(self.GRID)
        assert [j.result.to_json() for j in jobs] == [
            r.to_json() for r in serial
        ]

    def test_unpicklable_factory_falls_back_in_process(self):
        captured = []

        def local_factory(n, scale=1.0):  # closure: not picklable
            captured.append(n)
            return KERNELS["canneal"](n, scale)

        engine = Engine(workers=2)
        jobs = engine.run(
            [spec(workload="closure", factory=local_factory), spec()]
        )
        assert all(j.ok for j in jobs)
        assert captured == [16]  # ran in this process

    def test_parallel_failure_still_reported(self):
        engine = Engine(workers=2)
        jobs = engine.run(
            [spec(workload="broken", factory=_always_fail), spec()]
        )
        assert not jobs[0].ok and jobs[0].attempts == 2
        assert jobs[1].ok


class TestManifestResume:
    """Resume comes from the cache directory: the job store beside the
    cache records every point, and a rerun skips cached points."""

    def test_manifest_records_every_completion(self, tmp_path):
        cache = tmp_path / "c"
        bad = spec(workload="broken", factory=_always_fail)
        Engine(workers=1, cache_dir=cache).run([spec(), bad])
        store = JobStore(default_store_path(cache))
        try:
            assert store.statuses() == {
                spec().key(): "done",
                bad.key(): "quarantined",
            }
            assert "synthetic workload failure" in store.get(bad.key()).error
            assert store.quarantine_path(bad.key()).exists()
        finally:
            store.close()

    def test_resume_after_kill_runs_only_missing_points(self, tmp_path):
        cache = tmp_path / "cache"
        grid = [spec(**g) for g in TestEngineParallel.GRID]
        # A sweep that dies after two points: only they reach the cache.
        first = Engine(workers=1, cache_dir=cache)
        first.run(grid[:2])
        assert first.stats.executed == 2

        resumed = Engine(workers=1, cache_dir=cache)
        jobs = resumed.run(grid)
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.executed == 2
        assert all(j.ok for j in jobs)
        assert [j.cached for j in jobs] == [True, True, False, False]
        store = JobStore(default_store_path(cache))
        try:
            assert sorted(store.statuses().values()) == ["done"] * 4
        finally:
            store.close()

    def test_failed_points_are_rerun_on_resume(self, tmp_path):
        cache = tmp_path / "cache"
        marker = tmp_path / "now-works"

        def flaky_twice(n, scale=1.0):
            if not marker.exists():
                raise RuntimeError("still broken")
            return KERNELS["canneal"](n, scale)

        bad = spec(workload="flaky2", factory=flaky_twice)
        first = Engine(workers=1, cache_dir=cache)
        assert not first.run([bad])[0].ok

        marker.write_text("fixed")
        second = Engine(workers=1, cache_dir=cache)
        jobs = second.run([bad])
        assert jobs[0].ok
        store = JobStore(default_store_path(cache))
        try:
            assert store.get(bad.key()).status == "done"
            assert store.counters()["requeued"] == 1
        finally:
            store.close()


class _RecordingReporter:
    def __init__(self):
        self.updates = []

    def update(self, label, cached=False, failed=False):
        self.updates.append((label, cached, failed))


class TestDuplicatePoints:
    @pytest.mark.parametrize("cached", [False, True])
    def test_duplicate_spec_runs_once_and_reports_twice(
        self, tmp_path, cached
    ):
        reporter = _RecordingReporter()
        engine = Engine(
            workers=1,
            cache_dir=tmp_path / "cache" if cached else None,
            progress=reporter,
        )
        jobs = engine.run([spec(), spec()])
        assert [j.ok for j in jobs] == [True, True]
        assert jobs[0].result.to_json() == jobs[1].result.to_json()
        assert engine.stats.executed == 1
        assert engine.stats.total == 2
        assert reporter.updates == [("canneal/pthread@16", False, False)] * 2


class TestEngineCleanup:
    def test_throwaway_store_closed_and_removed(self, tmp_path, monkeypatch):
        import tempfile

        from repro.resilience import store as store_mod

        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
        opened, closed = [], []
        real_init, real_close = store_mod.JobStore.__init__, JobStore.close

        def init(self, *args, **kwargs):
            opened.append(self)
            real_init(self, *args, **kwargs)

        def close(self):
            closed.append(self)
            real_close(self)

        monkeypatch.setattr(store_mod.JobStore, "__init__", init)
        monkeypatch.setattr(store_mod.JobStore, "close", close)

        assert Engine(workers=1).run([spec()])[0].ok
        bad = spec(workload="broken", factory=_always_fail)
        jobs = Engine(workers=2).run([bad, spec(), spec(seed=8)])
        assert [j.ok for j in jobs] == [False, True, True]
        assert list(tmpdir.iterdir()) == []
        assert len(opened) == 2 and closed == opened

    def test_unopenable_store_falls_back_to_a_throwaway(self, tmp_path):
        cache = tmp_path / "cache"
        Engine(workers=1, cache_dir=cache).run([spec()])
        default_store_path(cache).unlink()
        default_store_path(cache).mkdir()  # SQLite cannot open a directory
        engine = Engine(workers=1, cache_dir=cache)
        jobs = engine.run([spec(), spec(seed=8)])
        assert [j.ok for j in jobs] == [True, True]
        assert [j.cached for j in jobs] == [True, False]
        assert engine.stats.executed == 1

    def test_cache_dir_store_is_closed(self, tmp_path, monkeypatch):
        from repro.resilience import store as store_mod

        closed = []
        real_close = JobStore.close

        def close(self):
            closed.append(self.path)
            real_close(self)

        monkeypatch.setattr(store_mod.JobStore, "close", close)
        Engine(workers=1, cache_dir=tmp_path).run([spec()])
        assert closed == [default_store_path(tmp_path)]


class TestRunJobsWrapper:
    def test_one_shot(self, tmp_path):
        jobs = run_jobs([spec()], workers=1, cache_dir=tmp_path)
        assert jobs[0].ok and isinstance(jobs[0].result, RunResult)


class TestProgressReporting:
    def test_reporter_lines(self):
        from repro.harness.report import ProgressReporter

        fake_now = [0.0]
        reporter = ProgressReporter(
            3, stream=None, label="grid", clock=lambda: fake_now[0]
        )
        fake_now[0] = 2.0
        line = reporter.update("a/pthread@16")
        assert "[grid 1/3]" in line and "ran" in line and "eta 4s" in line
        line = reporter.update("b/pthread@16", cached=True)
        assert "cached" in line
        fake_now[0] = 4.0
        line = reporter.update("c/pthread@16", failed=True)
        assert "FAIL" in line and "done in 4s" in line

    def test_engine_accepts_reporter(self, capsys):
        import sys

        from repro.harness.report import ProgressReporter

        engine = Engine(
            workers=1, progress=ProgressReporter(1, stream=sys.stdout)
        )
        engine.run([spec()])
        assert "canneal/pthread@16" in capsys.readouterr().out
