"""Tests for protocol-decision tracing on the machine's probe bus."""

from repro.harness.configs import build_machine
from repro.harness.runner import run_workload
from repro.verify.events import TRACE_KINDS
from repro.workloads.kernels import KERNELS
from tests.conftest import run_threads


def record(machine, *kinds):
    """Subscribe to ``kinds`` on the machine's probe; returns the list
    the events land in."""
    probe = machine.attach_probe()
    events = []
    for kind in kinds:
        probe.subscribe(kind, events.append)
    return events


class TestMachineTracing:
    def test_msa_events_traced(self, machine16):
        m = machine16
        events = record(m, "msa_alloc", "msa_respond")
        addr = m.allocator.sync_var()

        def body(th):
            yield from th.lock(addr)
            yield from th.unlock(addr)

        run_threads(m, [body])
        kinds = {e.kind for e in events}
        assert kinds == {"msa_alloc", "msa_respond"}
        responds = [e for e in events if e.kind == "msa_respond"]
        assert "success" in {e.aux[0] for e in responds}
        assert {e.addr for e in events} == {addr}

    def test_scheduler_events_traced(self):
        m = build_machine("msa-omu-2", n_cores=16)
        events = record(m, "sched")

        def body(th):
            yield from th.compute(5000)

        t = m.scheduler.spawn(body, core=0)
        m.sim.schedule(100, lambda: m.scheduler.suspend(t))
        m.sim.schedule(900, lambda: m.scheduler.resume(t, core=5))
        m.run()
        assert [e.aux[0] for e in events] == ["suspend", "migrate"]
        assert [e.tid for e in events] == [t.tid, t.tid]

    def test_tracing_off_costs_nothing_visible(self):
        """A run with every trace kind subscribed produces the same
        cycle and event counts as a machine that never had a probe."""

        def run(enable):
            m = build_machine("msa-omu-2", n_cores=16, seed=3)
            events = record(m, *sorted(TRACE_KINDS)) if enable else []
            result = run_workload(m, KERNELS["streamcluster"](16, 0.25))
            return result.cycles, m.sim.events_processed, len(events)

        cycles0, processed0, seen0 = run(False)
        cycles1, processed1, seen1 = run(True)
        assert (cycles0, processed0) == (cycles1, processed1)
        assert seen0 == 0 and seen1 > 0
