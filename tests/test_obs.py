"""Tests for repro.obs: the metrics registry, the span collector, the
exporters, and the observation-is-passive determinism contract."""

from __future__ import annotations

import json

import pytest

from repro.faults import FaultPlan, MessageFault, SliceFault
from repro.harness.configs import build_machine
from repro.harness.runner import run_workload
from repro.obs import (
    Collector,
    Metric,
    MetricsRegistry,
    Span,
    spans_from_jsonl,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.workloads.kernels import KERNELS


#: Drops on MSA traffic plus a slice kill: a 4-core streamcluster run
#: under it takes every kind of fault, retry and degrade decision.
FAULTY = FaultPlan(
    messages=(MessageFault(kind_prefix="msa", drop_prob=0.2),),
    slices=(SliceFault(tile=1, at=2_000),),
)


def probe_holders(machine):
    """Every component :meth:`Machine.attach_probe` wires."""
    return [
        *machine.msa_slices,
        *machine.sync_units,
        machine.network,
        machine.fault_injector,
        machine.fault_plane,
        machine.transport,
    ]


def observed_run(config="msa-omu-2", kernel="streamcluster", cores=4,
                 scale=0.05, **attach_kwargs):
    machine = build_machine(config, n_cores=cores, seed=2015)
    collector = Collector.attach(machine, **attach_kwargs)
    result = run_workload(
        machine, KERNELS[kernel](cores, scale), config=config
    )
    return machine, result, collector.finalize()


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_sums_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.counter("a.ops", 3, tile=0)
        reg.counter("a.ops", 4, tile=0)
        reg.counter("a.ops", 10, tile=1)
        reg.gauge("run.cycles", 100)
        reg.gauge("run.cycles", 250)
        assert reg.get("a.ops", tile=0).value == 7
        assert reg.get("a.ops", tile=1).value == 10
        assert reg.get("run.cycles").value == 250

    def test_histogram_merges_conservatively(self):
        reg = MetricsRegistry()
        reg.histogram("lat", {"count": 2, "sum": 10, "min": 3, "max": 7,
                              "p50": 5, "p90": 7, "p99": 7})
        reg.histogram("lat", {"count": 1, "sum": 20, "min": 20, "max": 20,
                              "p50": 20, "p90": 20, "p99": 20})
        s = reg.get("lat").summary
        assert s["count"] == 3 and s["sum"] == 30
        assert s["min"] == 3 and s["max"] == 20
        assert s["p99"] == 20

    def test_jsonl_round_trip_lossless(self):
        reg = MetricsRegistry()
        reg.counter("msa.ops_hw", 42, config="msa-omu-2", tile="3")
        reg.gauge("run.cycles", 1000.5)
        reg.histogram("noc.latency", {"count": 5, "sum": 50, "min": 2,
                                      "max": 30, "p50": 8, "p90": 25,
                                      "p99": 30}, tile=1)
        back = MetricsRegistry.from_jsonl(reg.to_jsonl())
        assert back.to_jsonl() == reg.to_jsonl()
        assert [m.to_dict() for m in back.metrics()] == [
            m.to_dict() for m in reg.metrics()
        ]

    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("msa.ops_hw", 42, tile=0)
        reg.histogram("noc.latency", {"count": 5, "sum": 50, "min": 2,
                                      "max": 30, "p50": 8, "p90": 25,
                                      "p99": 30})
        text = reg.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE repro_msa_ops_hw counter" in lines
        assert 'repro_msa_ops_hw{tile="0"} 42' in lines
        assert "# TYPE repro_noc_latency summary" in lines
        assert 'repro_noc_latency{quantile="0.99"} 30' in lines
        assert "repro_noc_latency_count 5" in lines
        assert "repro_noc_latency_sum 50" in lines

    def test_prometheus_sanitizes_names_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("sent.msa-cpu", 1, kind='a"b\\c')
        line = [
            l for l in reg.to_prometheus().splitlines() if not l.startswith("#")
        ][0]
        assert line.startswith("repro_sent_msa_cpu{")
        assert '\\"' in line and "\\\\" in line

    def test_merge_across_runs(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("ops", 1, config="x")
        b.counter("ops", 2, config="x")
        b.gauge("cycles", 9, config="x")
        a.merge(b)
        assert a.get("ops", config="x").value == 3
        assert a.get("cycles", config="x").value == 9

    def test_from_run_result_covers_all_groups(self):
        machine = build_machine("msa-omu-2", n_cores=4, seed=2015)
        result = run_workload(
            machine, KERNELS["streamcluster"](4, 0.05),
            config="msa-omu-2", checkers=True,
        )
        reg = MetricsRegistry.from_run_result(result)
        names = {m.name for m in reg.metrics()}
        assert "run.cycles" in names
        assert "run.msa_coverage" in names
        assert any(n.startswith("msa.") for n in names)
        assert any(n.startswith("noc.") for n in names)
        assert "verify.ok" in names
        assert reg.get(
            "verify.ok", config="msa-omu-2", workload="streamcluster",
            cores="4",
        ).value == 1.0

    def test_metric_dict_round_trip(self):
        m = Metric(name="x", kind="gauge", labels={"a": "1"}, value=2.5)
        assert Metric.from_dict(m.to_dict()) == m


# ---------------------------------------------------------------------------
# Collector / spans
# ---------------------------------------------------------------------------
class TestCollector:
    def test_span_forest_shape(self):
        machine, result, obs = observed_run()
        names = {s.name for s in obs.spans}
        assert {"run", "lock.acquire", "lock.held", "barrier.wait",
                "msa.entry", "noc.msg"} <= names
        roots = [s for s in obs.spans if s.parent is None]
        assert [r.name for r in roots] == ["run"]
        run = roots[0]
        assert run.start == 0 and run.end == result.cycles
        # Sync spans hang off the run span and are all closed.
        for span in obs.spans:
            assert span.end is not None
            if span.cat == "sync":
                assert span.parent == run.sid
                assert span.tid is not None

    def test_lock_episodes_pair_correctly(self):
        _, _, obs = observed_run()
        acquires = [s for s in obs.spans if s.name == "lock.acquire"]
        helds = [s for s in obs.spans if s.name == "lock.held"]
        assert acquires and len(acquires) == len(helds)
        by_key = {(s.tid, s.attrs["addr"]): s for s in acquires}
        for held in helds:
            acq = by_key[(held.tid, held.attrs["addr"])]
            # The held span begins where the acquire ended.
            assert held.start == acq.end
            assert held.end >= held.start

    def test_attribution_matches_span_durations(self):
        _, _, obs = observed_run()
        attribution = obs.attribution()
        for name in ("lock.acquire", "barrier.wait", "noc.msg"):
            spans = [s for s in obs.spans if s.name == name]
            assert attribution[name]["count"] == len(spans)
            assert attribution[name]["cycles"] == sum(
                s.duration for s in spans
            )

    def test_registry_includes_machine_stats_and_span_aggregates(self):
        _, result, obs = observed_run()
        names = {m.name for m in obs.registry.metrics()}
        assert "noc.latency" in names          # StatSet histogram
        assert "msa.entries_allocated" in names
        assert "obs.span.cycles" in names
        assert obs.registry.get("run.cycles").value == result.cycles
        noc = obs.registry.get("noc.latency")
        assert noc.kind == "histogram"
        assert noc.summary["count"] == result.noc_counters["messages_sent"]

    def test_omu_timeline_records_steers(self):
        _, result, obs = observed_run(
            config="msa-omu-1", kernel="fluidanimate", scale=0.2
        )
        steers = [t for t in obs.omu_timeline if t[2] == "steer"]
        assert len(steers) == result.msa_counters["omu_steered_sw"]
        incs = [t for t in obs.omu_timeline if t[2] == "inc"]
        assert len(incs) == result.msa_counters["omu_increments"]
        cycles = [t[0] for t in obs.omu_timeline]
        assert cycles == sorted(cycles)

    def test_phase_spans_nest(self):
        machine = build_machine("msa-omu-2", n_cores=4, seed=2015)
        collector = Collector.attach(machine)
        with collector.phase("build"):
            with collector.phase("inner"):
                pass
        result = run_workload(
            machine, KERNELS["streamcluster"](4, 0.05), config="msa-omu-2"
        )
        obs = collector.finalize()
        phases = [s for s in obs.spans if s.name == "phase"]
        labels = {s.attrs["label"]: s for s in phases}
        assert labels["inner"].parent == labels["build"].sid
        assert labels["build"].parent == obs.spans[0].sid
        assert result.cycles > 0

    def test_span_retention_cap_keeps_aggregates_exact(self):
        _, result, obs = observed_run(span_limit=10)
        assert obs.dropped_spans  # tiny cap must drop something
        name, dropped = next(iter(sorted(obs.dropped_spans.items())))
        retained = sum(1 for s in obs.spans if s.name == name)
        assert retained == 10
        # The histogram still saw every span.
        assert obs.attribution()[name]["count"] == retained + dropped
        total = obs.registry.get("obs.span.dropped", span=name)
        assert total.value == dropped

    def test_double_attach_rejected(self):
        machine = build_machine("msa-omu-2", n_cores=4, seed=2015)
        Collector.attach(machine)
        with pytest.raises(ValueError):
            Collector.attach(machine)

    def test_finalize_twice_rejected(self):
        machine = build_machine("msa-omu-2", n_cores=4, seed=2015)
        collector = Collector.attach(machine)
        collector.finalize()
        with pytest.raises(ValueError):
            collector.finalize()


class TestDecisionSpans:
    """Protocol decisions arrive as zero-length ``<kind>.<what>`` spans."""

    def test_msa_responses_and_migration(self):
        machine = build_machine("msa-omu-2", n_cores=16, seed=2015)
        collector = Collector.attach(machine)
        addr = machine.allocator.sync_var()

        def locker(th):
            yield from th.lock(addr)
            yield from th.unlock(addr)

        def worker(th):
            yield from th.compute(5000)

        machine.scheduler.spawn(locker, core=0)
        thread = machine.scheduler.spawn(worker, core=1)
        scheduler = machine.scheduler
        machine.sim.schedule(100, lambda: scheduler.suspend(thread))
        machine.sim.schedule(900, lambda: scheduler.resume(thread, core=5))
        machine.run()
        obs = collector.finalize()
        responds = [s for s in obs.spans if s.cat == "msa_respond"]
        assert "msa_respond.success" in {s.name for s in responds}
        assert all(s.duration == 0 for s in responds)
        assert {s.attrs["addr"] for s in responds} == {addr}
        sched = [
            (s.name, s.tid, s.attrs["core"])
            for s in obs.spans if s.cat == "sched"
        ]
        assert sched == [
            ("sched.suspend", thread.tid, 1),
            ("sched.migrate", thread.tid, 5),
        ]

    def test_fault_plan_decisions_match_counters(self):
        machine = build_machine(
            "msa-omu-2", n_cores=4, seed=2015, fault_plan=FAULTY
        )
        collector = Collector.attach(machine)
        run_workload(
            machine, KERNELS["streamcluster"](4, 0.05), config="msa-omu-2"
        )
        obs = collector.finalize()
        names = [s.name for s in obs.spans]
        for kind in ("fault", "retry", "degrade"):
            assert any(n.startswith(kind + ".") for n in names), kind
        counters = machine.fault_counters()
        assert names.count("fault.drop") == counters["msgs_dropped"] > 0
        assert names.count("fault.retransmit") == counters["retransmits"]
        assert names.count("retry.ping") == counters["pings"]
        assert names.count("retry.timeout") == counters["timeouts"]
        assert names.count("degrade.declare_dead") == 1
        assert machine.degraded_tiles() == {1}


# ---------------------------------------------------------------------------
# Determinism: observation is passive
# ---------------------------------------------------------------------------
class TestPassiveObservation:
    def run_point(self, observe, checkers=(), checkers_first=False,
                  fault_plan=None):
        machine = build_machine(
            "msa-omu-2", n_cores=4, seed=2015, fault_plan=fault_plan
        )
        collector = None
        if checkers and checkers_first:
            machine.attach_checkers()
        if observe:
            collector = Collector.attach(machine)
        result = run_workload(
            machine,
            KERNELS["streamcluster"](4, 0.05),
            config="msa-omu-2",
            checkers=checkers if not checkers_first else True,
        )
        if collector is not None:
            collector.finalize()
        return machine, result

    def test_collector_does_not_perturb_run(self):
        for plan in (None, FAULTY):
            m0, r0 = self.run_point(observe=False, fault_plan=plan)
            m1, r1 = self.run_point(observe=True, fault_plan=plan)
            assert r0.to_json() == r1.to_json()
            assert m0.sim.events_processed == m1.sim.events_processed

    def test_collector_and_checkers_share_probe_both_orders(self):
        m0, r0 = self.run_point(observe=False, fault_plan=FAULTY)
        m1, r1 = self.run_point(observe=True, checkers=True,
                                fault_plan=FAULTY)
        m2, r2 = self.run_point(observe=True, checkers=True,
                                checkers_first=True, fault_plan=FAULTY)
        assert r0.cycles == r1.cycles == r2.cycles
        assert r1.check_report["ok"] and r2.check_report["ok"]
        for m in (m1, m2):
            assert m.checker_suite.probe is m.probe
            assert all(c.probe is m.probe for c in probe_holders(m))

    def test_unobserved_machine_has_no_probe(self):
        machine = build_machine(
            "msa-omu-2", n_cores=4, seed=2015, fault_plan=FAULTY
        )
        assert machine.probe is None
        assert machine.collector is None
        assert all(c.probe is None for c in probe_holders(machine))


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
class TestExporters:
    def test_span_jsonl_round_trip(self, tmp_path):
        _, _, obs = observed_run()
        path = tmp_path / "spans.jsonl"
        text = obs.to_jsonl(str(path))
        assert path.read_text() == text
        assert spans_from_jsonl(text) == obs.spans

    def test_jsonl_drop_metadata_line(self):
        spans = [Span(1, "run", "run", 0, 5)]
        text = spans_to_jsonl(spans, dropped={"noc.msg": 7})
        meta = json.loads(text.splitlines()[-1])
        assert meta == {"meta": "obs.spans", "dropped": {"noc.msg": 7}}
        assert spans_from_jsonl(text) == spans

    def test_chrome_trace_schema_valid(self, tmp_path):
        _, _, obs = observed_run()
        path = tmp_path / "trace.json"
        data = json.loads(obs.to_chrome_trace(str(path)))
        events = data["traceEvents"]
        assert events
        for e in events:
            assert isinstance(e["pid"], int), e
            assert isinstance(e["tid"], int), e
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for e in complete:
            assert e["dur"] >= 0
        processes = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert {"obs.run", "obs.sync", "obs.msa", "obs.noc"} <= processes

    def test_chrome_trace_open_spans_become_instants(self):
        spans = [Span(1, "run", "run", 0, None)]
        data = json.loads(spans_to_chrome_trace(spans))
        instants = [e for e in data["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1 and "dur" not in instants[0]

    def test_prometheus_export_from_run(self, tmp_path):
        _, _, obs = observed_run()
        path = tmp_path / "metrics.prom"
        text = obs.registry.to_prometheus(str(path))
        assert path.read_text() == text
        # Every non-comment line is "name{labels} value" parseable.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            assert name.startswith("repro_")
            float(value)


# ---------------------------------------------------------------------------
# api facade
# ---------------------------------------------------------------------------
class TestApiObserve:
    def test_observe_returns_result_and_obs(self):
        from repro import api

        result, obs = api.observe(
            "msa-omu-2", "streamcluster", cores=4, scale=0.05
        )
        assert result.config == "msa-omu-2"
        assert result.cycles > 0
        assert obs.spans and obs.registry.get("run.cycles") is not None

    @staticmethod
    def _observed_matches_run(monkeypatch, **point):
        """Observe and run one point; they must agree on cycles, event
        count and counters, and differ from the plain point.  Returns
        the observed result."""
        from repro import api

        built = []
        real_build = api.build

        def recording_build(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(api, "build", recording_build)
        where = ("msa-omu-2", "streamcluster")
        observed, _ = api.observe(*where, cores=4, scale=0.05, **point)
        unobserved = api.run(*where, cores=4, scale=0.05, **point)
        clean = api.run(*where, cores=4, scale=0.05)
        events = [machine.sim.events_processed for machine in built]
        assert events[0] == events[1] != events[2]
        assert observed.cycles == unobserved.cycles != clean.cycles
        assert observed.fault_counters == unobserved.fault_counters
        assert observed.noc_counters == unobserved.noc_counters
        assert observed.to_json() == unobserved.to_json()
        return observed

    def test_fault_plan_reaches_observed_run(self, monkeypatch):
        from repro.faults import drop_plan

        observed = self._observed_matches_run(
            monkeypatch, fault_plan=drop_plan(0.05)
        )
        assert observed.fault_counters["msgs_dropped"] > 0

    def test_param_override_reaches_observed_run(self, monkeypatch):
        self._observed_matches_run(monkeypatch, ideal_sync=True)

    def test_package_root_exports(self):
        import repro

        assert repro.observe is not None
        assert repro.report is not None
