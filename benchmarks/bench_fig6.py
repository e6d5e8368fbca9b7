"""Figure 6: overall application speedup over the pthread baseline.

Regenerates the speedup grid over the kernel suite for MSA-0, MCS-Tour,
MSA/OMU-1, MSA/OMU-2, MSA-inf, and Ideal, and asserts the figure's
shape claims (orderings, MSA-0 ~= baseline, MSA/OMU-2 close to MSA-inf,
everything bounded by Ideal).
"""

import pytest

from repro.harness.experiments import FIG6_CONFIGS, fig6


@pytest.fixture(scope="module")
def grid(bench_cores, bench_scale):
    return fig6(cores=bench_cores, scale=bench_scale, print_out=True)


def test_fig6_regenerate(benchmark, bench_cores, bench_scale):
    result = benchmark.pedantic(
        lambda: fig6(
            cores=(bench_cores[0],),
            apps=("streamcluster", "raytrace"),
            scale=bench_scale,
            print_out=False,
        ),
        rounds=1,
        iterations=1,
    )
    assert result.speedups


class TestFig6Shapes:
    def test_msa0_within_noise_of_baseline(self, grid):
        gm = grid.geomeans()
        for n in grid.cores:
            assert 0.9 < gm[("msa0", n)] < 1.15

    def test_ordering_baseline_mcs_msa_ideal(self, grid):
        """The paper's headline ordering: software < MCS-Tour <
        MSA/OMU-2 <= MSA-inf <= Ideal on the suite geomean."""
        gm = grid.geomeans()
        for n in grid.cores:
            assert gm[("mcs-tour", n)] > 1.0
            assert gm[("msa-omu-2", n)] > gm[("mcs-tour", n)]
            assert gm[("msa-inf", n)] >= gm[("msa-omu-2", n)] * 0.99
            assert gm[("ideal", n)] >= gm[("msa-inf", n)] * 0.99

    def test_msa_omu2_close_to_inf(self, grid):
        """Paper: MSA/OMU-2 performs similar to MSA-inf (suite level)."""
        gm = grid.geomeans()
        for n in grid.cores:
            assert gm[("msa-omu-2", n)] > 0.8 * gm[("msa-inf", n)]

    def test_omu1_within_reach_of_inf(self, grid):
        """Paper: MSA/OMU-1 averages within ~6% of MSA-inf; we accept a
        wider band on the scaled-down grid."""
        gm = grid.geomeans()
        for n in grid.cores:
            assert gm[("msa-omu-1", n)] > 0.75 * gm[("msa-inf", n)]

    def test_streamcluster_biggest_winner(self, grid):
        n = grid.cores[-1]
        sc = grid.speedups[("streamcluster", "msa-omu-2", n)]
        for app in grid.apps:
            assert sc >= grid.speedups[(app, "msa-omu-2", n)] * 0.95

    def test_every_app_bounded_by_ideal(self, grid):
        for app in grid.apps:
            for n in grid.cores:
                assert (
                    grid.speedups[(app, "msa-omu-2", n)]
                    <= grid.speedups[(app, "ideal", n)] * 1.1
                )

    def test_low_sync_apps_near_one(self, grid):
        for app in ("barnes", "lu"):
            for n in grid.cores:
                assert 0.9 < grid.speedups[(app, "msa-omu-2", n)] < 2.2
