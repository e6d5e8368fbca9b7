"""Figure 9: speedup when the MSA supports only one synchronization
type (64 cores in the paper).

Asserts the figure's complementarity claims: barrier-intensive apps
(ocean, streamcluster) lose their speedup under MSA-LockOnly;
lock-intensive apps (radiosity, fluidanimate) lose most of theirs under
MSA-BarrierOnly; full MSA/OMU-2 dominates both restrictions on the
suite geomean."""

import pytest

from repro.harness.experiments import fig9


@pytest.fixture(scope="module")
def speedups(bench_cores, bench_scale):
    return fig9(n_cores=bench_cores[-1], scale=bench_scale, print_out=True)


def test_fig9_regenerate(benchmark, bench_cores, bench_scale):
    result = benchmark.pedantic(
        lambda: fig9(
            n_cores=bench_cores[0],
            apps=("streamcluster", "radiosity"),
            scale=bench_scale,
            print_out=False,
        ),
        rounds=1,
        iterations=1,
    )
    assert result


class TestFig9Shapes:
    def test_barrier_apps_lose_speedup_under_lockonly(self, speedups):
        for app in ("ocean", "ocean-nc", "streamcluster"):
            full = speedups[(app, "msa-omu-2")]
            lockonly = speedups[(app, "msa-lockonly-2")]
            assert lockonly < full
            assert lockonly < 1.0 + 0.6 * (full - 1.0)

    def test_lock_apps_lose_speedup_under_barrieronly(self, speedups):
        for app in ("radiosity", "fluidanimate", "raytrace"):
            full = speedups[(app, "msa-omu-2")]
            barrieronly = speedups[(app, "msa-barrieronly-2")]
            assert barrieronly < full

    def test_full_msa_dominates_geomean(self, speedups):
        full = speedups[("GeoMean", "msa-omu-2")]
        assert full > speedups[("GeoMean", "msa-lockonly-2")]
        assert full > speedups[("GeoMean", "msa-barrieronly-2")]
