"""The paper's headline claims (abstract / conclusion).

Paper, at 64 cores: a 2-entry-per-tile MSA with the OMU services 93% of
synchronization operations, achieves a 1.43x mean speedup over pthreads
(up to 7.59x on streamcluster), and performs within 3% of ideal
zero-latency synchronization.  We assert the same *shape* on our
simulated substrate: high coverage, a solid mean speedup with
streamcluster the top winner, and most of the ideal machine's benefit
captured."""

import pytest

from repro.harness.experiments import headline


@pytest.fixture(scope="module")
def numbers(bench_cores, bench_scale):
    return headline(n_cores=bench_cores[-1], scale=bench_scale, print_out=True)


def test_headline_regenerate(benchmark, bench_cores, bench_scale):
    result = benchmark.pedantic(
        lambda: headline(
            n_cores=bench_cores[0], scale=bench_scale, print_out=False,
        ),
        rounds=1,
        iterations=1,
    )
    assert result["mean_speedup"] > 1.0


class TestHeadlineShapes:
    def test_mean_speedup_solid(self, numbers):
        assert numbers["mean_speedup"] > 1.3

    def test_max_speedup_in_streamcluster_class(self, numbers):
        assert numbers["max_speedup"] > 2.0
        assert numbers["max_speedup_app"] in ("streamcluster", "raytrace")

    def test_high_coverage(self, numbers):
        assert numbers["mean_coverage_pct"] > 75.0

    def test_most_of_ideal_captured(self, numbers):
        """Paper: within 3% of ideal.  Our substrate keeps a larger gap
        on some kernels (documented in EXPERIMENTS.md); require that
        MSA/OMU-2 lands within 2x of the zero-latency oracle while the
        software baseline is much further away."""
        assert numbers["mean_fraction_of_ideal"] > 0.5
