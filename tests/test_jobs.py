"""Tests for the parallel experiment engine (:mod:`repro.harness.jobs`):
spec hashing, the result cache, determinism of parallel vs serial
execution, retry handling, resume from the cache directory, and
cleanup of the throwaway store a cache-less run uses."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.params import MachineParams, OMUParams
from repro.faults import drop_plan
from repro.harness import jobs
from repro.harness.jobs import (
    _CHECKSUM_JSON,
    Engine,
    JobSpec,
    ResultCache,
    entry_checksum,
    execute_spec,
    resolve_factory,
)
from repro.harness.runner import RunResult
from repro.resilience.fsck import fsck
from repro.resilience.store import JobStore, default_store_path
from repro.workloads.kernels import KERNELS

SPEC = dict(config="pthread", workload="canneal", cores=16, scale=0.25, seed=7)


def spec(**over):
    return JobSpec(**{**SPEC, **over})


# A module-level factory that always fails (picklable, so it exercises
# the pool's failure path too).
def _always_fail(n, scale=1.0):
    raise RuntimeError("synthetic workload failure")


def _key_or_error(point):
    try:
        return point.key()
    except Exception as exc:
        return type(exc).__name__


# Values that JSON-encode apart but compare equal in Python (2, 2.0 and
# True), so a memo keyed on anything looser would hand one the other's key.
_SPECS = st.builds(
    JobSpec,
    config=st.sampled_from(["pthread", "msa-omu-2"]),
    workload=st.sampled_from(["canneal", "streamcluster"]),
    cores=st.sampled_from([1, 1.0, True, 4, 4.0, 16]),
    scale=st.sampled_from([1, 1.0, True, 0.25]),
    seed=st.sampled_from([1, 1.0, True, 7]),
    params=st.one_of(
        st.just({}),
        st.fixed_dictionaries({
            "msa.entries_per_tile": st.sampled_from([1, 1.0, True, 4]),
        }),
        st.fixed_dictionaries({
            "omu.n_counters": st.sampled_from([2, 2.0, 4]),
        }),
    ),
    max_events=st.sampled_from([None, 1000, 1000.0]),
    check=st.sampled_from([True, False, 1, 0]),
    checkers=st.sampled_from([(), ("mutex",), ("mutex", "barrier")]),
    fault_plan=st.one_of(
        st.none(),
        st.builds(
            drop_plan,
            st.sampled_from([0.01, 0.05]),
            seed=st.sampled_from([0, 1]),
        ),
    ),
)


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
        for seed in range(jobs.MACHINE_MEMO_SIZE + 5):
            spec(seed=seed).key()
        assert 0 < len(jobs._MACHINE_MEMO) <= jobs.MACHINE_MEMO_SIZE

    @given(points=st.lists(_SPECS, min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_machine_memoised_key_matches_a_key_from_scratch(self, points):
        """Keys taken with a warm machine memo -- values that differ
        only as 2, 2.0 and True keyed side by side -- equal the keys
        computed with the memo emptied, and a spec mutated after its
        first key() gets the key of its new value."""
        warm = [_key_or_error(point) for point in points]
        mutated = dataclasses.replace(points[0])
        _key_or_error(mutated)
        for f in dataclasses.fields(JobSpec):
            setattr(mutated, f.name, getattr(points[-1], f.name))
        warm.append(_key_or_error(mutated))
        jobs._MACHINE_MEMO.clear()
        cold = [_key_or_error(point) for point in points]
        assert warm == cold + [cold[-1]]

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

    def test_entry_is_its_checksum_bytes(self, tmp_path):
        """An entry is written in the compact sorted encoding its
        checksum hashes, with the digest in place."""
        cache = ResultCache(tmp_path)
        point = spec(config="msa-omu-2")
        key = point.key()
        cache.put(key, point, execute_spec(point))
        raw = cache.path(key).read_bytes()
        payload = json.loads(raw)
        assert raw == _CHECKSUM_JSON.encode(payload).encode()
        assert payload["sha256"] == entry_checksum(payload)

    def test_spaced_layout_entry_still_verifies(self, tmp_path):
        """Entries written in the older spaced layout stay hits."""
        cache = ResultCache(tmp_path)
        point = spec(config="msa-omu-2")
        key = point.key()
        result = execute_spec(point)
        cache.put(key, point, result)
        payload = json.loads(cache.path(key).read_bytes())
        cache.path(key).write_text(json.dumps(payload, sort_keys=True))
        hit = cache.get(key)
        assert hit == result and hit.to_json() == result.to_json()
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 0, 0)
        report = fsck(tmp_path, repair=False)
        assert report.issues == [] and report.healthy_entries == 1

    def test_every_single_byte_change_is_a_corrupt_miss(self, tmp_path):
        """Changing any one byte of an entry -- a digit to another
        digit, an exponent's case -- is a miss counted as corrupt, and
        fsck flags that entry."""
        cache = ResultCache(tmp_path)
        point = spec(config="msa-omu-2")
        key = point.key()
        result = execute_spec(point)
        result.workload_metrics["tiny"] = 2.5e-05  # an exponent to flip
        cache.put(key, point, result)
        path = cache.path(key)
        pristine = path.read_bytes()
        changes = 0
        for at in range(len(pristine)):
            for flip in (0x01, 0x20):
                raw = bytearray(pristine)
                raw[at] ^= flip
                path.write_bytes(bytes(raw))
                corrupt = cache.corrupt
                assert cache.get(key) is None, (at, bytes(raw[at:at + 1]))
                assert cache.corrupt == corrupt + 1
                issues = fsck(tmp_path, repair=False).issues
                assert [i.path for i in issues] == [str(path)], at
                changes += 1
        assert changes == 2 * len(pristine)
        assert cache.hits == 0


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

    def test_exported_cache_counters_count_only_sparing_lookups(
        self, tmp_path
    ):
        """A cold run's read-back of the points it just ran is not a
        hit: the exported counters say 0 hits / 2 misses, then 2 / 0
        on a warm rerun."""
        specs = [spec(cores=4, scale=0.05, seed=s) for s in (1, 2)]
        for hits, misses in ((0, 2), (2, 0)):
            engine = Engine(workers=1, cache_dir=tmp_path)
            engine.run(specs)
            counters = engine.resilience_counters()
            assert engine.stats.cache_hits == hits
            assert (counters["cache_hits"], counters["cache_misses"]) == (
                hits, misses
            )

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
            assert {r.key: r.status for r in store.rows()} == {
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
            assert sorted(
                {r.key: r.status for r in store.rows()}.values()
            ) == ["done"] * 4
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

    def test_evicted_entries_rerun_through_the_workers(self, tmp_path):
        """Entries gone from the cache (as ``fsck`` evicts a corrupt
        one) re-pend their done rows, and the points run again through
        the worker pool under leases, not in the parent."""
        cache_dir = tmp_path / "cache"
        grid = [
            JobSpec(config=c, workload=w, cores=4, scale=0.05, seed=7)
            for w in ("canneal", "swaptions")
            for c in ("pthread", "msa-omu-2")
        ]
        first = Engine(workers=2, cache_dir=cache_dir).run(grid)
        cache = ResultCache(cache_dir)
        for job in first[:2]:
            cache.path(job.key).unlink()
        store = JobStore(default_store_path(cache_dir))
        try:
            before = store.counters()
        finally:
            store.close()

        engine = Engine(workers=2, cache_dir=cache_dir, point_timeout_s=60)
        again = engine.run(grid)
        assert "2 cached, 2 ran" in engine.stats.describe()
        after = engine.store_counters
        assert after["leases_granted"] - before["leases_granted"] == 2
        assert after["requeued"] - before["requeued"] == 2
        assert [j.result.to_json() for j in again] == [
            j.result.to_json() for j in first
        ]


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
