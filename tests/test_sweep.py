"""Tests for the sweep/CSV utilities."""

import pytest

from repro.common.errors import SimulationError
from repro.harness import experiments
from repro.harness.jobs import Engine, JobSpec
from repro.harness.runner import RunResult
from repro.harness.sweep import (
    SweepPoint,
    add_speedups,
    from_csv,
    run_specs,
    sweep,
    to_csv,
)
from repro.workloads.kernels import KERNELS
from tests.test_jobs import _always_fail


@pytest.fixture(scope="module")
def points():
    factories = {"streamcluster": KERNELS["streamcluster"]}
    pts = sweep(
        configs=("pthread", "msa-omu-2"),
        workload_factories=factories,
        cores=(16,),
        scale=0.25,
    )
    add_speedups(pts, baseline_config="pthread")
    return pts


class TestSweep:
    def test_grid_size(self, points):
        assert len(points) == 2

    def test_speedup_annotation(self, points):
        by_config = {p.config: p for p in points}
        assert by_config["pthread"].extras["speedup"] == 1.0
        assert by_config["msa-omu-2"].extras["speedup"] > 1.0


class TestFailureRule:
    """Every grid fails alike: a point that still fails after its retry
    raises one :class:`SimulationError` naming that point."""

    @pytest.mark.parametrize("entry", ["sweep", "experiments._grid"])
    def test_failed_point_is_named(self, entry, monkeypatch):
        monkeypatch.setitem(KERNELS, "broken", _always_fail)
        with pytest.raises(SimulationError) as info:
            if entry == "sweep":
                sweep(
                    configs=("pthread",),
                    workload_factories={
                        "broken": _always_fail,
                        "canneal": KERNELS["canneal"],
                    },
                    cores=(4,),
                    scale=0.1,
                )
            else:
                experiments._grid(
                    ("pthread",), ("broken", "canneal"), (4,), scale=0.1
                )
        message = str(info.value)
        assert (
            "broken/pthread@4 scale=0.1: RuntimeError: synthetic workload "
            "failure"
        ) in message
        assert "canneal" not in message

    def test_points_differing_only_in_scale_are_named_apart(self):
        specs = [
            JobSpec("pthread", "broken", cores=4, scale=scale,
                    factory=_always_fail)
            for scale in (0.1, 0.2)
        ]
        with pytest.raises(SimulationError) as info:
            run_specs(specs, Engine(workers=1, cache_dir=""))
        message = str(info.value)
        for scale in ("0.1", "0.2"):
            assert message.count(f"broken/pthread@4 scale={scale}: ") == 1

    def test_fault_points_are_named_by_drop_rate_and_plan(self):
        from repro.faults import drop_plan

        labels = [
            JobSpec("msa-omu-2", "barrier", fault_plan=plan).label()
            for plan in (drop_plan(0.05, seed=1), drop_plan(0.1, seed=1),
                         drop_plan(0.1, seed=2), None)
        ]
        assert labels[0].startswith("barrier/msa-omu-2@16 scale=1 drop=0.05 ")
        assert labels[1].startswith("barrier/msa-omu-2@16 scale=1 drop=0.1 ")
        assert labels[3] == "barrier/msa-omu-2@16 scale=1"
        assert len(set(labels)) == 4  # the seed moves the plan digest


class TestCsv:
    def test_round_trip(self, points, tmp_path):
        path = tmp_path / "sweep.csv"
        text = to_csv(points, path=str(path))
        assert path.read_text() == text
        rows = from_csv(text)
        assert len(rows) == 2
        assert {r["config"] for r in rows} == {"pthread", "msa-omu-2"}
        assert float(rows[0]["cycles"]) > 0

    def test_coverage_column_blank_for_software(self, points):
        rows = from_csv(to_csv(points))
        by_config = {r["config"]: r for r in rows}
        assert by_config["pthread"]["msa_coverage"] == ""
        assert float(by_config["msa-omu-2"]["msa_coverage"]) > 0

    def test_all_extras_become_columns(self, points):
        points[0].extras["noc_sensitivity"] = 2.5
        try:
            rows = from_csv(to_csv(points))
        finally:
            del points[0].extras["noc_sensitivity"]
        header_extras = {
            k for k in rows[0] if k not in (
                "config", "workload", "n_cores", "scale", "cycles",
                "msa_coverage",
            )
        }
        assert header_extras == {"speedup", "noc_sensitivity"}
        assert float(rows[0]["noc_sensitivity"]) == 2.5
        # Points without that extra get a blank cell, not a crash.
        assert rows[1]["noc_sensitivity"] == ""


def _point(config, cycles, workload="w", n_cores=16):
    return SweepPoint(
        config=config,
        workload=workload,
        n_cores=n_cores,
        scale=1.0,
        result=RunResult(config, workload, n_cores, cycles, None),
    )


class TestAddSpeedups:
    def test_zero_cycle_baseline_warns_instead_of_silently_dropping(self):
        points = [_point("base", 0), _point("fast", 100)]
        with pytest.warns(RuntimeWarning, match="0 cycles"):
            add_speedups(points, baseline_config="base")
        assert "speedup" not in points[1].extras

    def test_zero_cycle_point_warns(self):
        points = [_point("base", 100), _point("fast", 0)]
        with pytest.warns(RuntimeWarning, match="0 cycles"):
            add_speedups(points, baseline_config="base")
        assert "speedup" not in points[1].extras

    def test_missing_baseline_grid_point_is_skipped_quietly(self):
        points = [
            _point("base", 100, n_cores=16),
            _point("fast", 50, n_cores=64),
        ]
        add_speedups(points, baseline_config="base")
        assert "speedup" not in points[1].extras


class TestRunResultJson:
    def test_round_trip(self, points):
        result = points[0].result
        clone = RunResult.from_json(result.to_json())
        assert clone == result
        assert clone.to_json() == result.to_json()

    def test_unknown_keys_ignored(self):
        result = RunResult("c", "w", 16, 100, None)
        blob = result.to_json().replace("{", '{"future_field": 1, ', 1)
        assert RunResult.from_json(blob) == result
