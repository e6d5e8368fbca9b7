"""Tests for the sweep-comparison utility."""

import pytest

from repro.harness.compare import compare_csv, render_comparison

OLD = """config,workload,n_cores,scale,cycles,msa_coverage,speedup
pthread,app1,16,1.0,1000,,1.0
msa-omu-2,app1,16,1.0,500,0.95,2.0
msa-omu-2,app2,16,1.0,800,0.90,
"""

NEW = """config,workload,n_cores,scale,cycles,msa_coverage,speedup
pthread,app1,16,1.0,1000,,1.0
msa-omu-2,app1,16,1.0,600,0.95,1.67
msa-omu-2,app3,16,1.0,700,0.90,
"""


class TestCompare:
    def test_deltas_matched_points_only(self):
        cmp = compare_csv(OLD, NEW)
        keys = [d.key for d in cmp.deltas]
        assert ("pthread", "app1", 16, 1.0) in keys
        assert ("msa-omu-2", "app1", 16, 1.0) in keys
        assert len(cmp.deltas) == 2

    def test_added_removed_points(self):
        cmp = compare_csv(OLD, NEW)
        assert cmp.only_old == [("msa-omu-2", "app2", 16, 1.0)]
        assert cmp.only_new == [("msa-omu-2", "app3", 16, 1.0)]

    def test_regression_detection(self):
        cmp = compare_csv(OLD, NEW)
        regs = cmp.regressions(threshold_pct=5.0)
        assert len(regs) == 1
        assert regs[0].key == ("msa-omu-2", "app1", 16, 1.0)
        assert regs[0].percent == pytest.approx(20.0)

    def test_no_false_regressions(self):
        cmp = compare_csv(OLD, OLD)
        assert cmp.regressions() == []
        assert cmp.improvements() == []

    def test_render(self):
        out = render_comparison(compare_csv(OLD, NEW))
        assert "REGRESSION" in out
        assert "+20.0%" in out
        assert "removed points: 1" in out
        assert "added points: 1" in out

    def test_load_sweep_rows_differ_by_scale(self):
        """Load-sweep rows differ only in scale (the offered load); each
        is its own point, so a slower load is not hidden behind another
        row of the same (config, workload, cores)."""
        header = "config,workload,n_cores,scale,cycles,msa_coverage\n"
        old = header + (
            "pthread,traffic.poisson,4,0.5,100,\n"
            "pthread,traffic.poisson,4,2.0,400,\n"
        )
        new = header + "pthread,traffic.poisson,4,0.5,200,\n"
        cmp = compare_csv(old, new)
        assert [(d.key, d.old_cycles, d.new_cycles) for d in cmp.deltas] == [
            (("pthread", "traffic.poisson", 4, 0.5), 100, 200)
        ]
        assert cmp.only_old == [("pthread", "traffic.poisson", 4, 2.0)]
        assert len(cmp.regressions()) == 1
        out = render_comparison(cmp)
        assert "0.5" in out and "REGRESSION" in out

    def test_roundtrip_with_real_sweep(self):
        from repro.harness.sweep import sweep, to_csv
        from repro.workloads.kernels import KERNELS

        points = sweep(
            configs=("msa-omu-2",),
            workload_factories={"barnes": KERNELS["barnes"]},
            cores=(16,),
            scale=0.25,
        )
        text = to_csv(points)
        cmp = compare_csv(text, text)
        assert len(cmp.deltas) == 1
        assert cmp.deltas[0].percent == 0.0
