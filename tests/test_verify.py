"""Tests for the repro.verify subsystem: probe, invariant monitors,
race detector, sequential replay oracle, harness/CLI wiring, and the
broken-lock selftest."""

from __future__ import annotations

import time

import pytest

from repro import api
from repro.common.errors import InvariantViolation
from repro.faults import FaultPlan, SliceFault
from repro.harness.configs import build_machine
from repro.harness.jobs import JobSpec
from repro.harness.runner import RunResult, run_workload
from repro.verify import (
    CheckReport,
    DEFAULT_MONITORS,
    MONITORS,
    Probe,
    attach_checkers,
    differential,
    resolve_monitors,
    run_selftest,
)
from repro.verify.events import TRACE_KINDS
from repro.verify.oracle import SequentialReplayer
from repro.verify.report import Violation

from tests.conftest import run_threads

LOCK = 0x4000
COND = 0x4100
BARRIER = 0x4200
DATA = 0x8000


# ---------------------------------------------------------------------------
# Probe mechanics and zero-cost gating
# ---------------------------------------------------------------------------
class TestProbe:
    def test_unchecked_machine_has_no_probe(self, machine16):
        assert machine16.probe is None
        assert machine16.checker_suite is None
        for sl in machine16.msa_slices:
            assert sl.probe is None
        assert machine16.network.probe is None

    def test_attach_wires_every_component(self, machine16):
        suite = attach_checkers(machine16)
        assert machine16.probe is suite.probe
        assert machine16.checker_suite is suite
        for sl in machine16.msa_slices:
            assert sl.probe is suite.probe
        assert machine16.network.probe is suite.probe

    def test_double_attach_rejected(self, machine16):
        attach_checkers(machine16)
        with pytest.raises(InvariantViolation):
            attach_checkers(machine16)

    def test_unknown_monitor_name_rejected(self):
        with pytest.raises(ValueError, match="unknown monitor"):
            resolve_monitors(["no-such-monitor"])

    def test_resolve_all_by_default(self):
        monitors = resolve_monitors(True)
        assert {m.name for m in monitors} == {
            MONITORS[name].name for name in DEFAULT_MONITORS
        }

    def test_high_rate_kinds_skip_context_window(self, sim):
        probe = Probe(sim)
        probe.emit("lock_acq", tid=0, addr=LOCK)
        probe.emit("mem_read", tid=0, addr=DATA)
        probe.emit("noc_deliver", tid=0, tile=1, aux=("msa.lock", 1))
        assert probe.events_observed == 3
        assert [e.kind for e in probe.recent()] == ["lock_acq"]

    def test_recent_filters_by_address(self, sim):
        probe = Probe(sim)
        probe.emit("lock_acq", tid=0, addr=LOCK)
        probe.emit("lock_acq", tid=1, addr=LOCK + 0x40)
        probe.emit("msa_kill", tile=2)  # addressless events stay visible
        kinds = [(e.kind, e.addr) for e in probe.recent(addr=LOCK)]
        assert kinds == [("lock_acq", LOCK), ("msa_kill", None)]

    def test_checkers_do_not_change_cycle_counts(self):
        """Monitors are pure observers: same seed, same workload, same
        cycle count with and without the full suite attached."""
        results = []
        for checkers in ((), DEFAULT_MONITORS):
            results.append(
                api.run(
                    "msa-omu-2",
                    "streamcluster",
                    cores=16,
                    scale=0.25,
                    checkers=checkers,
                )
            )
        assert results[0].cycles == results[1].cycles
        assert results[1].check_report is not None
        assert results[0].check_report is None


# ---------------------------------------------------------------------------
# Monitors against synthetic event streams
# ---------------------------------------------------------------------------
def synthetic_suite(machine, names):
    return attach_checkers(machine, names)


class TestMonitorsSynthetic:
    """Drive the probe by hand -- no simulation -- to pin each
    monitor's violation conditions exactly."""

    @pytest.fixture
    def machine(self):
        return build_machine("msa-omu-2", n_cores=4)

    def test_mutex_double_grant(self, machine):
        suite = synthetic_suite(machine, ("mutex",))
        probe = suite.probe
        probe.emit("lock_acq", tid=0, addr=LOCK)
        probe.emit("lock_acq", tid=1, addr=LOCK)
        assert len(suite.violations) == 1
        v = suite.violations[0]
        assert v.invariant == "mutual-exclusion"
        assert v.addr == LOCK
        assert set(v.threads) == {0, 1}
        assert "granted" in v.message

    def test_mutex_release_by_non_holder(self, machine):
        suite = synthetic_suite(machine, ("mutex",))
        suite.probe.emit("lock_acq", tid=0, addr=LOCK)
        suite.probe.emit("lock_rel", tid=1, addr=LOCK)
        assert len(suite.violations) == 1
        assert "released" in suite.violations[0].message

    def test_mutex_clean_handoff(self, machine):
        suite = synthetic_suite(machine, ("mutex",))
        for tid in (0, 1, 0):
            suite.probe.emit("lock_acq", tid=tid, addr=LOCK)
            suite.probe.emit("lock_rel", tid=tid, addr=LOCK)
        suite.finalize()
        assert suite.violations == []

    def test_mutex_held_at_end(self, machine):
        suite = synthetic_suite(machine, ("mutex",))
        suite.probe.emit("lock_acq", tid=3, addr=LOCK)
        report = suite.finalize(raise_on_violation=False)
        assert "still held" in report.violations[0].message

    def test_mutex_condvar_wait_releases_lock(self, machine):
        suite = synthetic_suite(machine, ("mutex",))
        probe = suite.probe
        probe.emit("lock_acq", tid=0, addr=LOCK)
        probe.emit("cond_wait_begin", tid=0, addr=COND, aux=LOCK)
        probe.emit("lock_acq", tid=1, addr=LOCK)  # legal: waiter released
        probe.emit("lock_rel", tid=1, addr=LOCK)
        probe.emit("cond_wait_end", tid=0, addr=COND, aux=LOCK)
        probe.emit("lock_rel", tid=0, addr=LOCK)
        suite.finalize()
        assert suite.violations == []

    def test_barrier_early_exit(self, machine):
        suite = synthetic_suite(machine, ("barrier",))
        probe = suite.probe
        probe.emit("barrier_enter", tid=0, addr=BARRIER, aux=2)
        probe.emit("barrier_exit", tid=0, addr=BARRIER, aux=2)
        assert len(suite.violations) == 1
        assert "passed barrier" in suite.violations[0].message

    def test_barrier_left_behind(self, machine):
        suite = synthetic_suite(machine, ("barrier",))
        probe = suite.probe
        for tid in (0, 1):
            probe.emit("barrier_enter", tid=tid, addr=BARRIER, aux=2)
        probe.emit("barrier_exit", tid=0, addr=BARRIER, aux=2)
        report = suite.finalize(raise_on_violation=False)
        assert any("left behind" in v.message for v in report.violations)

    def test_barrier_whole_episodes_clean(self, machine):
        suite = synthetic_suite(machine, ("barrier",))
        probe = suite.probe
        for _ in range(3):
            for tid in (0, 1):
                probe.emit("barrier_enter", tid=tid, addr=BARRIER, aux=2)
            for tid in (0, 1):
                probe.emit("barrier_exit", tid=tid, addr=BARRIER, aux=2)
        suite.finalize()
        assert suite.violations == []

    def test_condvar_lost_wakeup(self, machine):
        suite = synthetic_suite(machine, ("condvar",))
        suite.probe.emit("cond_wait_begin", tid=5, addr=COND, aux=LOCK)
        report = suite.finalize(raise_on_violation=False)
        assert len(report.violations) == 1
        assert "lost wakeup" in report.violations[0].message
        assert report.violations[0].threads == (5,)

    def test_condvar_wake_without_wait(self, machine):
        suite = synthetic_suite(machine, ("condvar",))
        suite.probe.emit("cond_wait_end", tid=5, addr=COND, aux=LOCK)
        assert "without a matching wait" in suite.violations[0].message

    def test_omu_safety_alloc_over_live_software(self, machine):
        suite = synthetic_suite(machine, ("omu-safety",))
        probe = suite.probe
        probe.emit("omu_inc", addr=LOCK, aux=2, tile=0)
        probe.emit("omu_dec", addr=LOCK, aux=1, tile=0)
        probe.emit("msa_alloc", addr=LOCK, aux=("lock", 1), tile=0)
        assert len(suite.violations) == 1
        assert "false 'inactive'" in suite.violations[0].message

    def test_omu_safety_clean_when_drained(self, machine):
        suite = synthetic_suite(machine, ("omu-safety",))
        probe = suite.probe
        probe.emit("omu_inc", addr=LOCK, aux=1, tile=0)
        probe.emit("omu_dec", addr=LOCK, aux=1, tile=0)
        probe.emit("msa_alloc", addr=LOCK, aux=("lock", 1), tile=0)
        suite.finalize()
        assert suite.violations == []

    def test_omu_safety_other_tile_independent(self, machine):
        suite = synthetic_suite(machine, ("omu-safety",))
        probe = suite.probe
        probe.emit("omu_inc", addr=LOCK, aux=1, tile=0)
        probe.emit("msa_alloc", addr=LOCK, aux=("lock", 1), tile=1)
        assert suite.violations == []

    def test_entry_capacity_violation(self, machine):
        suite = synthetic_suite(machine, ("entries",))
        capacity = machine.params.msa.entries_per_tile
        suite.probe.emit(
            "msa_alloc", addr=LOCK, aux=("lock", capacity + 1), tile=0
        )
        assert any(
            "capacity" in v.message for v in suite.violations
        )

    def test_noc_sequence_gap(self, machine):
        suite = synthetic_suite(machine, ("noc",))
        probe = suite.probe
        probe.emit("noc_deliver", tid=0, tile=1, aux=("msa.lock", 1))
        probe.emit("noc_deliver", tid=0, tile=1, aux=("msa.lock", 3))
        assert any(
            "ordering broken" in v.message for v in suite.violations
        )

    def test_fail_fast_raises_immediately(self, machine):
        suite = attach_checkers(machine, ("mutex",), fail_fast=True)
        suite.probe.emit("lock_acq", tid=0, addr=LOCK)
        with pytest.raises(InvariantViolation) as info:
            suite.probe.emit("lock_acq", tid=1, addr=LOCK)
        assert info.value.violation.invariant == "mutual-exclusion"


# ---------------------------------------------------------------------------
# Race detector
# ---------------------------------------------------------------------------
class TestRaceDetector:
    def _run(self, bodies):
        machine = build_machine("msa-omu-2", n_cores=4)
        suite = attach_checkers(machine, ("race",))
        run_threads(machine, bodies)
        return suite.finalize(raise_on_violation=False)

    def test_unlocked_writes_race(self, machine16):
        suite = attach_checkers(machine16, ("race",))
        data = machine16.allocator.line()

        def body(th):
            value = yield from th.load(data)
            yield from th.compute(50)
            yield from th.store(data, value + 1)

        run_threads(machine16, [body, body])
        report = suite.finalize(raise_on_violation=False)
        assert report.violations == []  # races report, never raise
        assert report.races, "unsynchronized writes must be flagged"
        race = report.races[0]
        assert race.addr == data
        assert race.first_locks == () and race.second_locks == ()

    def test_lock_protected_writes_clean(self, machine16):
        suite = attach_checkers(machine16, ("race",))
        lock = machine16.allocator.sync_var()
        data = machine16.allocator.line()

        def body(th):
            yield from th.lock(lock)
            value = yield from th.load(data)
            yield from th.compute(50)
            yield from th.store(data, value + 1)
            yield from th.unlock(lock)

        run_threads(machine16, [body] * 4)
        report = suite.finalize()
        assert report.races == []

    def test_barrier_ordered_phases_clean(self, machine16):
        suite = attach_checkers(machine16, ("race",))
        barrier = machine16.allocator.sync_var()
        data = machine16.allocator.line()

        def writer(th):
            yield from th.store(data, 42)
            yield from th.barrier(barrier, 2)

        def reader(th):
            yield from th.barrier(barrier, 2)
            yield from th.load(data)

        run_threads(machine16, [writer, reader])
        report = suite.finalize()
        assert report.races == []

    def test_atomics_never_reported(self, machine16):
        suite = attach_checkers(machine16, ("race",))
        counter = machine16.allocator.line()

        def body(th):
            for _ in range(5):
                yield from th.fetch_add(counter)

        run_threads(machine16, [body] * 4)
        report = suite.finalize()
        assert report.races == []


# ---------------------------------------------------------------------------
# Sequential replay oracle
# ---------------------------------------------------------------------------
class TestReplayer:
    def test_clean_lock_history(self):
        r = SequentialReplayer()
        problems = r.replay(
            [
                (1, "lock_acq", 0, LOCK, None),
                (2, "lock_rel", 0, LOCK, None),
                (3, "lock_acq", 1, LOCK, None),
                (4, "lock_rel", 1, LOCK, None),
            ]
        )
        assert problems == []
        assert r.summary()["lock_acquires"][hex(LOCK)] == 2

    def test_double_grant_infeasible(self):
        r = SequentialReplayer()
        problems = r.replay(
            [
                (1, "lock_acq", 0, LOCK, None),
                (2, "lock_acq", 1, LOCK, None),
            ]
        )
        assert any("while" in p and "held" in p for p in problems)

    def test_barrier_episode_counting(self):
        r = SequentialReplayer()
        ops = []
        t = 0
        for _ in range(3):
            for tid in (0, 1):
                t += 1
                ops.append((t, "barrier_enter", tid, BARRIER, 2))
            for tid in (0, 1):
                t += 1
                ops.append((t, "barrier_exit", tid, BARRIER, 2))
        assert r.replay(ops) == []
        assert r.summary()["barrier_episodes"][hex(BARRIER)] == 3

    def test_partial_episode_infeasible(self):
        r = SequentialReplayer()
        problems = r.replay([(1, "barrier_enter", 0, BARRIER, 2)])
        assert any("arrivals" in p for p in problems)

    def test_spurious_wakeup_counted_not_infeasible(self):
        r = SequentialReplayer()
        problems = r.replay(
            [
                (1, "lock_acq", 0, LOCK, None),
                (2, "cond_wait_begin", 0, COND, LOCK),
                (3, "cond_wait_end", 0, COND, LOCK),  # no signal: spurious
                (4, "lock_rel", 0, LOCK, None),
            ]
        )
        assert problems == []
        assert r.spurious_wakeups == 1

    def test_signal_grants_wake_token(self):
        r = SequentialReplayer()
        problems = r.replay(
            [
                (1, "lock_acq", 0, LOCK, None),
                (2, "cond_wait_begin", 0, COND, LOCK),
                (3, "cond_signal", 1, COND, 0),
                (4, "cond_wait_end", 0, COND, LOCK),
                (5, "lock_rel", 0, LOCK, None),
            ]
        )
        assert problems == []
        assert r.spurious_wakeups == 0
        # The condvar re-acquire is not a fresh acquisition.
        assert r.summary()["lock_acquires"][hex(LOCK)] == 1


# ---------------------------------------------------------------------------
# End-to-end: clean runs, selftest, harness plumbing
# ---------------------------------------------------------------------------
class TestEndToEnd:
    @pytest.mark.parametrize("config", ["msa-omu-2", "pthread", "ideal"])
    def test_clean_run_all_monitors(self, config):
        result = api.run(
            config, "streamcluster", cores=16, scale=0.25, checkers=True
        )
        report = CheckReport.from_dict(result.check_report)
        assert report.ok
        assert report.events_observed > 0
        assert set(report.monitors) == {
            MONITORS[name].name for name in DEFAULT_MONITORS
        }

    def test_selftest_catches_broken_lock(self):
        report = run_selftest()
        assert not report.ok
        mutex = [
            v for v in report.violations if v.invariant == "mutual-exclusion"
        ]
        assert mutex, "broken lock must trip mutual exclusion"
        v = mutex[0]
        # The acceptance bar: the report names the invariant, the
        # address, the threads involved, and the cycle window.
        assert v.addr is not None
        assert len(v.threads) == 2
        assert v.window[0] <= v.cycle
        assert v.trace, "violation must carry its trace slice"
        assert any("lock_acq" in line for line in v.trace)
        # The oracle independently finds the same history infeasible.
        assert any(
            v.invariant == "oracle-replay" for v in report.violations
        )

    def test_violation_raises_structured_error(self, machine16):
        suite = attach_checkers(machine16, ("mutex",))
        suite.probe.emit("lock_acq", tid=0, addr=LOCK)
        suite.probe.emit("lock_acq", tid=1, addr=LOCK)
        with pytest.raises(InvariantViolation) as info:
            suite.finalize()
        err = info.value
        assert err.violation.invariant == "mutual-exclusion"
        assert err.report is not None and not err.report.ok
        assert "mutual-exclusion" in str(err)

    def test_check_report_json_roundtrip(self):
        report = run_selftest()
        data = report.to_dict()
        back = CheckReport.from_dict(data)
        assert back.to_dict() == data
        assert [v.invariant for v in back.violations] == [
            v.invariant for v in report.violations
        ]

    def test_run_result_carries_report_through_json(self):
        result = api.run(
            "msa-omu-2", "streamcluster", cores=16, scale=0.25, checkers=True
        )
        back = RunResult.from_json(result.to_json())
        assert back.check_report["ok"] is True
        assert set(back.check_report["monitors"]) == {
            MONITORS[name].name for name in DEFAULT_MONITORS
        }

    def test_jobspec_checkers_in_cache_key(self):
        base = JobSpec(config="msa-omu-2", workload="streamcluster")
        checked = JobSpec(
            config="msa-omu-2",
            workload="streamcluster",
            checkers=("mutex", "barrier"),
        )
        assert base.key() != checked.key()

    def test_violation_describe_names_everything(self):
        v = Violation(
            invariant="mutual-exclusion",
            message="boom",
            addr=LOCK,
            threads=(1, 2),
            cycle=400,
            window=(250, 400),
            trace=["[250] lock_acq tid=1"],
        )
        text = v.describe()
        for needle in ("mutual-exclusion", "0x4000", "[1, 2]", "400",
                       "250..400", "boom", "lock_acq"):
            assert needle in text

    def test_checker_overhead_under_2x(self):
        """The ISSUE's CI bar: full monitoring under 2x wall-clock on a
        smoke config."""
        def timed(checkers):
            start = time.perf_counter()
            api.run(
                "msa-omu-2",
                "fluidanimate",
                cores=16,
                scale=0.25,
                checkers=checkers,
            )
            return time.perf_counter() - start

        timed(())  # warm imports/caches before measuring
        plain = min(timed(()) for _ in range(2))
        checked = min(timed(DEFAULT_MONITORS) for _ in range(2))
        assert checked < 2.0 * plain + 0.05, (
            f"checker overhead {checked / plain:.2f}x exceeds 2x"
        )


# ---------------------------------------------------------------------------
# Differential oracle and chaos integration (slower)
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_differential_configs_agree():
    report = differential(workload="streamcluster", scale=0.25)
    assert report.ok, report.describe()
    assert set(report.configs) == {"msa-omu-2", "pthread", "ideal"}
    episodes = [
        s.get("barrier_episodes") for s in report.summaries.values()
    ]
    assert episodes[0] and all(e == episodes[0] for e in episodes)


@pytest.mark.chaos
def test_chaos_with_checkers_zero_violations():
    """Masked faults must not trip invariants: a checked chaos sweep
    (drops recovered by the transport/retry plane) reports zero
    violations -- any violation raises inside the engine and fails."""
    from repro.harness.experiments import chaos

    results = chaos(
        n_cores=16,
        drop_rates=(0.0, 0.1),
        apps=("streamcluster",),
        scale=0.25,
        print_out=False,
        checkers=DEFAULT_MONITORS,
    )
    for point in results.values():
        assert point["violations"] == 0


@pytest.mark.parametrize(
    "fault_plan",
    [None, FaultPlan(slices=(SliceFault(tile=1, at=2_000),))],
    ids=["clean", "tile-kill"],
)
def test_checker_report_blind_to_decision_kinds(fault_plan, monkeypatch):
    """A checker-only run never emits the collector's decision kinds:
    its report, ``events_observed`` included, is the same when the
    probe drops those kinds outright."""

    def report():
        return api.run(
            "msa-omu-2",
            "streamcluster",
            cores=16,
            scale=0.25,
            fault_plan=fault_plan,
            checkers=True,
        ).check_report

    baseline = report()
    emit = Probe.emit

    def emit_without_decisions(self, kind, *args, **kwargs):
        if kind not in TRACE_KINDS:
            emit(self, kind, *args, **kwargs)

    monkeypatch.setattr(Probe, "emit", emit_without_decisions)
    assert report() == baseline


@pytest.mark.chaos
def test_tile_kill_with_checkers_clean():
    """Fail-stopped tiles degrade to software; the checker suite must
    track the kill (OMU refs dropped, conservation scoped to live
    slices) without false positives."""
    result = api.run(
        "msa-omu-2",
        "streamcluster",
        cores=16,
        scale=0.25,
        fault_plan=FaultPlan(slices=(SliceFault(tile=1, at=2_000),)),
        checkers=True,
    )
    report = CheckReport.from_dict(result.check_report)
    assert report.ok, report.describe()
