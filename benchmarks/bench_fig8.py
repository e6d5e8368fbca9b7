"""Figure 8: effect of the HWSync-bit optimization on fluidanimate.

Regenerates the two-bar comparison at each core count and asserts the
paper's shape: with the optimization the accelerated run beats the
software baseline; without it, the per-acquire round trip to the home
tile erases the gains (a slowdown at 64 cores)."""

import pytest

from repro.harness.experiments import fig8


@pytest.fixture(scope="module")
def speedups(bench_cores, bench_scale):
    return fig8(cores=bench_cores, scale=bench_scale, print_out=True)


def test_fig8_regenerate(benchmark, bench_cores, bench_scale):
    result = benchmark.pedantic(
        lambda: fig8(
            cores=(bench_cores[0],),
            scale=bench_scale,
            print_out=False,
        ),
        rounds=1,
        iterations=1,
    )
    assert result


class TestFig8Shapes:
    def test_optimization_beats_no_optimization(self, speedups, bench_cores):
        for n in bench_cores:
            assert speedups[("with_opt", n)] > speedups[("without_opt", n)]

    def test_with_optimization_beats_software(self, speedups, bench_cores):
        for n in bench_cores:
            assert speedups[("with_opt", n)] > 1.0

    def test_without_optimization_loses_at_scale(self, speedups, bench_cores):
        """Paper: the 64-core machine shows a slowdown without the
        HWSync bit.  At 16 cores the two sit close to 1.0."""
        n = bench_cores[-1]
        if n >= 64:
            assert speedups[("without_opt", n)] < 1.0
        else:
            assert speedups[("without_opt", n)] < 1.25
