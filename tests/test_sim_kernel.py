"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro.common.errors import SimulationError
from repro.harness.configs import build_machine
from repro.sim.kernel import Delay, Future, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(10, lambda: order.append("b"))
        sim.schedule(5, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_cycle_events_fire_in_schedule_order(self, sim):
        order = []
        for tag in "abcde":
            sim.schedule(7, lambda t=tag: order.append(t))
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_last_event(self, sim):
        sim.schedule(42, lambda: None)
        assert sim.run() == 42

    def test_zero_delay_runs_this_cycle(self, sim):
        seen = []
        sim.schedule(5, lambda: sim.schedule(0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_max_events_guard(self, sim):
        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_nested_scheduling_from_callback(self, sim):
        seen = []
        sim.schedule(1, lambda: sim.schedule(2, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [3]


class TestFuture:
    def test_complete_resolves_value(self, sim):
        fut = Future(sim)
        fut.complete(42)
        assert fut.done and fut.value == 42

    def test_double_complete_rejected(self, sim):
        fut = Future(sim)
        fut.complete(1)
        with pytest.raises(SimulationError):
            fut.complete(2)

    def test_value_before_completion_rejected(self, sim):
        fut = Future(sim)
        with pytest.raises(SimulationError):
            _ = fut.value

    def test_complete_at_delay(self, sim):
        fut = Future(sim)
        seen = []
        fut.add_callback(lambda v: seen.append((sim.now, v)))
        fut.complete_at(13, "x")
        sim.run()
        assert seen == [(13, "x")]

    def test_callback_on_already_complete_future_fires_immediately(self, sim):
        fut = Future(sim)
        fut.complete("y")
        seen = []
        fut.add_callback(seen.append)
        assert seen == ["y"]


class TestProcess:
    def test_process_yields_int_delay(self, sim):
        marks = []

        def body():
            marks.append(sim.now)
            yield 10
            marks.append(sim.now)
            yield 5
            marks.append(sim.now)

        sim.process(body())
        sim.run()
        assert marks == [0, 10, 15]

    def test_process_yields_delay_object(self, sim):
        marks = []

        def body():
            yield Delay(7)
            marks.append(sim.now)

        sim.process(body())
        sim.run()
        assert marks == [7]

    def test_process_waits_on_future_and_receives_value(self, sim):
        fut = Future(sim)
        got = []

        def body():
            value = yield fut
            got.append((sim.now, value))

        sim.process(body())
        sim.schedule(30, lambda: fut.complete("payload"))
        sim.run()
        assert got == [(30, "payload")]

    def test_process_return_value_and_on_exit(self, sim):
        def body():
            yield 1
            return "done"

        proc = sim.process(body())
        sim.run()
        assert proc.finished and proc.result == "done"
        assert proc.on_exit.done and proc.on_exit.value == "done"

    def test_yield_from_composition(self, sim):
        log = []

        def inner():
            yield 5
            return "inner-result"

        def outer():
            result = yield from inner()
            log.append((sim.now, result))

        sim.process(outer())
        sim.run()
        assert log == [(5, "inner-result")]

    def test_bad_yield_type_raises(self, sim):
        def body():
            yield "not-a-valid-yield"

        sim.process(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_unfinished_process_listed(self, sim):
        fut = Future(sim)

        def body():
            yield fut

        proc = sim.process(body())
        sim.run()
        assert proc in sim.unfinished_processes()
        assert proc.blocked_on is fut


class TestDeterminism:
    def test_identical_runs_identical_event_counts(self):
        def build_and_run():
            sim = Simulator()
            results = []

            def worker(n):
                for _ in range(n):
                    yield n
                results.append((sim.now, n))

            for n in (3, 5, 7):
                sim.process(worker(n))
            sim.run()
            return sim.now, sim.events_processed, tuple(results)

        assert build_and_run() == build_and_run()


# ----------------------------------------------------------------------
# Event order, budgets, and chunked drains
# ----------------------------------------------------------------------
def _random_program(sim, log, rng, scheduled=None, depth=0):
    """Schedule a seed-driven tangle of events that re-schedule more
    events (including same-cycle ones), recording fire order.

    Each scheduled callback is tagged ``(due cycle, n)``, where ``n``
    counts the program's ``schedule`` calls; ``scheduled`` collects
    every tag and is returned.  A fired event logs ``(now, tag)``."""
    if scheduled is None:
        scheduled = []

    def fire(tag):
        log.append((sim.now, tag))
        if depth < 3 and rng.random() < 0.55:
            _random_program(sim, log, rng, scheduled, depth + 1)

    for _ in range(rng.randrange(1, 5)):
        delay = rng.choice((0, 0, 1, 2, 3, 7, rng.randrange(20)))
        tag = (sim.now + delay, len(scheduled))
        scheduled.append(tag)
        if rng.random() < 0.5:
            sim.schedule(delay, fire, tag)
        else:
            sim.schedule(delay, lambda t=tag: fire(t))
    return scheduled


@pytest.mark.parametrize("seed", range(8))
def test_events_fire_in_time_then_scheduling_order(seed):
    """The kernel's total order is (time, scheduling order): fired tags
    strictly increase, each fires at its due cycle, and every scheduled
    event fires exactly once."""
    sim, log = Simulator(), []
    scheduled = _random_program(sim, log, random.Random(seed))
    sim.run()
    tags = [tag for _now, tag in log]
    assert all(a < b for a, b in zip(tags, tags[1:]))
    assert all(now == tag[0] for now, tag in log)
    assert sim.events_processed == len(scheduled) == len(log)


@pytest.mark.parametrize("chunk", (1, 2, 3, 257))
def test_chunked_drain_replays_monolithic_order(chunk):
    """run_chunk boundaries may fall mid-bucket; consecutive chunks must
    still replay the exact monolithic drain order (the watchdog drives
    the kernel this way)."""
    mono_log, mono_sim = [], Simulator()
    _random_program(mono_sim, mono_log, random.Random(99))
    mono_sim.run()

    chunk_log, chunk_sim = [], Simulator()
    _random_program(chunk_sim, chunk_log, random.Random(99))
    total = 0
    while True:
        ran = chunk_sim.run_chunk(chunk)
        if ran == 0:
            break
        assert ran <= chunk
        total += ran
    assert chunk_log == mono_log
    assert total == mono_sim.events_processed == chunk_sim.events_processed


def test_mid_bucket_exception_requeues_remainder():
    sim = Simulator()
    log = []

    def boom():
        log.append("boom")
        raise RuntimeError("injected")

    sim.schedule(0, log.append, "a")
    sim.schedule(0, boom)
    sim.schedule(0, log.append, "b")
    with pytest.raises(RuntimeError):
        sim.run()
    # The raising event was consumed; the unexecuted remainder stays
    # queued in order.
    assert log == ["a", "boom"]
    assert sim.events_processed == 2
    assert sim.pending_events == 1
    sim.run()
    assert log == ["a", "boom", "b"]


def test_exception_requeue_keeps_older_events_first():
    """A callback may schedule same-cycle work before a later callback
    in its bucket raises: the unexecuted rest of the bucket is older, so
    it must still run before the newly scheduled event."""
    sim = Simulator()
    log = []

    def spawn():
        log.append("b")
        sim.schedule(0, log.append, "late")

    def boom():
        log.append("boom")
        raise RuntimeError("injected")

    sim.schedule(0, log.append, "a")
    sim.schedule(0, spawn)
    sim.schedule(0, boom)
    sim.schedule(0, log.append, "c")
    with pytest.raises(RuntimeError):
        sim.run()
    sim.run()
    assert log == ["a", "b", "boom", "c", "late"]


def test_max_events_semantics():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(0, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert sim.events_processed == 3
    assert sim.pending_events == 2


def test_watchdog_chunked_machine_run_matches_monolithic():
    """Machine-level chunked drain (how the watchdog drives long runs):
    same workload, one machine drained monolithically and one in
    257-event chunks, identical outcome."""

    def outcome(chunked: bool) -> dict:
        machine = build_machine("msa-omu-2", n_cores=16, seed=2015)
        lock = machine.allocator.sync_var()
        counter = machine.allocator.line()

        def body(th):
            for _ in range(5):
                yield from th.lock(lock)
                value = yield from th.load(counter)
                yield from th.store(counter, value + 1)
                yield from th.unlock(lock)

        for _ in range(4):
            machine.scheduler.spawn(body)
        if chunked:
            while machine.sim.run_chunk(257):
                pass
        else:
            machine.run(max_events=10_000_000)
        return {
            "cycles": machine.sim.now,
            "events": machine.sim.events_processed,
            "value": machine.memory.peek(counter),
        }

    assert outcome(chunked=False) == outcome(chunked=True)
