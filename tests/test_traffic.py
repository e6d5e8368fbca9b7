"""Tests for :mod:`repro.traffic` -- open-loop traffic with SLOs.

Covers the arrival processes (seed determinism, long-run rate accuracy,
well-formed gap sequences), the open-loop workload itself (request
conservation, byte-identical determinism, shedding and deadline
behaviour under overload), the golden latency-fingerprint pin, the
harness integration (registry resolution, CSV extras, sweep), the SLO
sections of the HTML reports, and the request spans surfaced through
repro.obs.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.rng import DeterministicRng
from repro.harness.configs import build_machine
from repro.harness.jobs import Engine
from repro.harness.runner import run_workload
from repro.traffic import (
    ARRIVALS,
    TRAFFIC,
    TrafficConfig,
    build_schedule,
    load_sweep,
    make_arrivals,
    make_traffic,
)

SEED = 2015


def run_traffic(config: str, scale: float = 1.0, cfg: TrafficConfig = None,
                seed: int = SEED, cores: int = 16):
    machine = build_machine(config, n_cores=cores, seed=seed)
    return run_workload(machine, make_traffic(cores, scale=scale, cfg=cfg))


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------

arrival_names = st.sampled_from(sorted(ARRIVALS))


class TestArrivals:
    @given(name=arrival_names, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_seed_deterministic(self, name, seed):
        seqs = []
        for _ in range(2):
            rng = DeterministicRng(seed, stream=f"arr.{name}")
            proc = make_arrivals(name, rng, rate_rpk=4.0)
            seqs.append(proc.sequence(horizon=20_000))
        assert seqs[0] == seqs[1]

    @given(name=arrival_names, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_gaps_and_ordering(self, name, seed):
        rng = DeterministicRng(seed, stream="arr")
        proc = make_arrivals(name, rng, rate_rpk=5.0)
        seq = proc.sequence(horizon=10_000)
        assert all(1 <= t <= 10_000 for t in seq)
        # Gaps are integer cycles >= 1, so arrivals strictly increase.
        assert all(b > a for a, b in zip(seq, seq[1:]))

    @given(name=arrival_names, seed=st.integers(0, 1000),
           rate=st.sampled_from([1.0, 2.0, 8.0]))
    @example(name="pareto", seed=628, rate=1.0)
    @settings(max_examples=30, deadline=None)
    def test_long_run_rate_accuracy(self, name, seed, rate):
        """Empirical rate within 20% of nominal over a long horizon.

        The horizon holds 5,000 expected arrivals at every rate.  A
        fixed horizon held only 500 at rate 1.0, where one heavy-tailed
        Pareto gap could span a fifth of it (seed 628 read 0.77)."""
        rng = DeterministicRng(seed, stream="rate")
        proc = make_arrivals(name, rng, rate_rpk=rate)
        horizon = int(5_000 * 1000 / rate)
        n = len(proc.sequence(horizon=horizon))
        empirical = n * 1000.0 / horizon
        assert empirical == pytest.approx(rate, rel=0.20)

    def test_unknown_arrival_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            make_arrivals("lognormal", DeterministicRng(1), rate_rpk=1.0)

    def test_nonpositive_rate_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            make_arrivals("poisson", DeterministicRng(1), rate_rpk=0.0)


class TestSchedule:
    def test_schedule_deterministic_and_well_formed(self):
        cfg = TrafficConfig()
        reqs1 = build_schedule(cfg, DeterministicRng(SEED, stream="t"), 1.0)
        reqs2 = build_schedule(cfg, DeterministicRng(SEED, stream="t"), 1.0)
        assert reqs1 == reqs2
        assert len(reqs1) > 0
        assert [r.rid for r in reqs1] == list(range(len(reqs1)))
        for r in reqs1:
            assert r.shape in ("read", "write", "fanout")
            assert all(0 <= s < cfg.n_stripes for s in r.stripes)

    def test_scale_multiplies_offered_load(self):
        cfg = TrafficConfig()
        low = build_schedule(cfg, DeterministicRng(SEED, stream="t"), 0.5)
        high = build_schedule(cfg, DeterministicRng(SEED, stream="t"), 2.0)
        assert len(high) > 2 * len(low)


# ---------------------------------------------------------------------------
# Workload behaviour
# ---------------------------------------------------------------------------


class TestTrafficWorkload:
    @pytest.mark.parametrize("config", ["pthread", "msa-omu-2"])
    def test_conservation_and_smoke(self, config):
        result = run_traffic(config, scale=0.5)
        wm = result.workload_metrics
        offered = wm["traffic.offered"]
        assert offered > 0
        assert wm["traffic.done"] + wm["traffic.shed"] + wm["traffic.timeout"] == offered
        assert wm["traffic.p50"] <= wm["traffic.p99"] <= wm["traffic.p999"]
        assert wm["traffic.goodput_rpk"] > 0

    @pytest.mark.parametrize("config", ["pthread", "msa-omu-2"])
    def test_run_deterministic(self, config):
        a = run_traffic(config, scale=1.0)
        b = run_traffic(config, scale=1.0)
        assert a.cycles == b.cycles
        assert (a.workload_metrics["traffic.latency_fp"]
                == b.workload_metrics["traffic.latency_fp"])

    def test_overload_sheds(self):
        """Even the ideal backend sheds at 4x the calibrated load."""
        result = run_traffic("ideal", scale=4.0)
        wm = result.workload_metrics
        assert wm["traffic.shed"] > 0
        assert wm["traffic.done"] > 0  # still makes forward progress

    def test_tight_deadline_times_out(self):
        cfg = TrafficConfig(deadline=50, shed_lag=100_000)
        result = run_traffic("pthread", scale=1.0, cfg=cfg)
        assert result.workload_metrics["traffic.timeout"] > 0

    def test_all_scenarios_registered_and_runnable(self):
        assert set(TRAFFIC) == {
            "traffic.poisson", "traffic.bursty",
            "traffic.diurnal", "traffic.pareto",
        }
        for name, factory in TRAFFIC.items():
            wl = factory(4)
            assert wl.name == name
            assert "traffic" in wl.tags

    def test_rejects_single_core(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            make_traffic(1)


class TestGoldenTraffic:
    """Exact pins: same seed + config => byte-identical latency results.

    Regenerate after an *intentional* timing-model change with::

        PYTHONPATH=src python -m pytest tests/test_traffic.py \
            -k regeneration -s
    """

    GOLDEN = {
        "pthread": {"cycles": 67196, "latency_fp": 160696296403135.0},
        "msa-omu-2": {"cycles": 64019, "latency_fp": 225033319110578.0},
    }

    @pytest.mark.parametrize("config", sorted(GOLDEN))
    def test_golden_pin(self, config):
        result = run_traffic(config, scale=1.0)
        assert result.cycles == self.GOLDEN[config]["cycles"]
        assert (result.workload_metrics["traffic.latency_fp"]
                == self.GOLDEN[config]["latency_fp"])

    @pytest.mark.skip(reason="run with -k regeneration -s to print a new table")
    def test_regeneration(self):
        for config in sorted(self.GOLDEN):
            r = run_traffic(config, scale=1.0)
            print(f'"{config}": {{"cycles": {r.cycles}, '
                  f'"latency_fp": {r.workload_metrics["traffic.latency_fp"]}}},')


# ---------------------------------------------------------------------------
# Harness integration
# ---------------------------------------------------------------------------


class TestHarnessIntegration:
    def test_resolve_factory_finds_traffic(self):
        from repro.harness.jobs import resolve_factory

        factory = resolve_factory("traffic.poisson")
        assert factory(4).name == "traffic.poisson"

    def test_resolve_factory_error_lists_traffic(self):
        from repro.common.errors import ConfigError
        from repro.harness.jobs import resolve_factory

        with pytest.raises(ConfigError, match="traffic.poisson"):
            resolve_factory("nope.nope")

    def test_load_sweep_and_csv_extras(self, tmp_path):
        from repro.harness.sweep import from_csv, to_csv

        points = load_sweep(
            configs=("pthread", "msa-omu-2"),
            loads=(0.5, 1.0),
            cores=4,
            seed=SEED,
            engine=Engine(cache_dir=str(tmp_path / "cache")),
        )
        assert len(points) == 4
        text = to_csv(points)
        header = text.splitlines()[0].split(",")
        for col in ("p50", "p99", "p999", "goodput_rpk", "offered_rpk",
                    "shed", "timeout"):
            assert col in header
        rows = from_csv(text)
        assert all(float(r["p99"]) >= float(r["p50"]) >= 0 for r in rows)

    def test_load_sweep_rejects_unknown_scenario(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            load_sweep(scenario="traffic.weibull")

    def test_add_request_metrics_noop_for_non_traffic(self):
        from repro.harness.sweep import add_request_metrics, sweep
        from repro.workloads.kernels import KERNELS

        points = sweep(
            configs=("pthread",),
            workload_factories={"streamcluster": KERNELS["streamcluster"]},
            cores=(4,), scale=0.1)
        add_request_metrics(points)
        assert all("p99" not in p.extras for p in points)


class TestQuantilesHelper:
    def test_quantiles_match_percentile(self):
        from repro.common.stats import Histogram

        h = Histogram("lat")
        for v in range(1, 1001):
            h.add(v)
        q50, q99, q999 = h.quantiles([0.5, 0.99, 0.999])
        assert q50 == h.percentile(50)
        assert q99 == h.percentile(99)
        # Nearest rank: ceil(0.999 * 1000) - 1 = index 998 -> value 999.
        assert q999 == 999

    def test_quantiles_empty_and_bounds(self):
        from repro.common.stats import Histogram

        h = Histogram("lat")
        assert h.quantiles([0.5, 0.99]) == [0.0, 0.0]
        h.add(3.0)
        with pytest.raises(ValueError):
            h.quantiles([1.5])
        with pytest.raises(ValueError):
            h.quantiles([-0.1])
        assert h.quantiles([0.0, 1.0]) == [3.0, 3.0]


# ---------------------------------------------------------------------------
# Reports and CLI
# ---------------------------------------------------------------------------


class TestReports:
    def test_run_report_has_slo_section(self):
        from repro.obs.html import render_run_report

        result = run_traffic("msa-omu-2", scale=1.0, cores=4)
        html = render_run_report(result)
        assert "Request latency SLOs" in html
        assert "p99" in html

    def test_run_report_no_slo_section_for_kernels(self):
        from repro.obs.html import render_run_report
        from repro.workloads.kernels import KERNELS

        machine = build_machine("pthread", n_cores=4, seed=SEED)
        result = run_workload(machine, KERNELS["streamcluster"](4, 0.1))
        assert "Request latency SLOs" not in render_run_report(result)

    def test_sweep_report_has_latency_curve(self, tmp_path):
        from repro.obs.html import render_sweep_report

        points = load_sweep(configs=("pthread", "ideal"), loads=(0.5, 1.0),
                            cores=4, seed=SEED,
                            engine=Engine(cache_dir=str(tmp_path / "cache")))
        html = render_sweep_report(points)
        assert "Tail latency under offered load" in html
        assert "<polyline" in html


class TestCli:
    def test_describe_lists_everything(self, capsys):
        from repro.__main__ import main

        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "traffic.poisson" in out
        assert "poisson" in out and "pareto" in out
        assert "msa-omu-2" in out
        assert "streamcluster" in out

    def test_run_traffic_scenario(self, tmp_path, capsys):
        from repro.__main__ import main

        html = tmp_path / "run.html"
        assert main(["run", "--workload", "traffic.poisson",
                     "--config", "msa-omu-2", "--cores", "4",
                     "--scale", "0.5", "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert "p99" in out
        assert "  traffic: " in out and " shed, " in out
        assert "Request latency SLOs" in html.read_text()

    def test_traffic_is_sweep_only(self, capsys):
        from repro.__main__ import main

        for flag in ("--sweep", "--scale=2"):
            with pytest.raises(SystemExit) as exc:
                main(["traffic", flag])
            assert exc.value.code == 2

    def test_traffic_unknown_scenario_exits_2(self, capsys):
        from repro.__main__ import main

        assert main(["traffic", "--scenario", "weibull"]) == 2

    def test_traffic_sweep_csv_html(self, tmp_path, capsys):
        from repro.__main__ import main

        csv_path = tmp_path / "traffic.csv"
        html_path = tmp_path / "traffic.html"
        rc = main(["traffic",
                   "--configs", "pthread", "ideal",
                   "--loads", "0.5", "1.0",
                   "--cores", "4",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--csv", str(csv_path),
                   "--html", str(html_path)])
        assert rc == 0
        assert "p99" in csv_path.read_text().splitlines()[0]
        assert "Tail latency under offered load" in html_path.read_text()


# ---------------------------------------------------------------------------
# Observability: request spans
# ---------------------------------------------------------------------------


class TestRequestSpans:
    def test_observe_collects_request_spans(self):
        import repro

        result, obs = repro.observe(
            "msa-omu-2", make_traffic(4, scale=0.5), cores=4, seed=SEED)
        attribution = obs.attribution()
        assert "request.ok" in attribution
        wm = result.workload_metrics
        assert attribution["request.ok"]["count"] == wm["traffic.done"]

    def test_observe_collects_shed_spans_under_overload(self):
        import repro

        result, obs = repro.observe(
            "pthread", make_traffic(4, scale=4.0), cores=4, seed=SEED)
        attribution = obs.attribution()
        assert result.workload_metrics["traffic.shed"] > 0
        assert attribution["request.shed"]["count"] == result.workload_metrics["traffic.shed"]
